"""What a change did to the answers, bit for bit: the sets of tests/star_sets.py
run on two source trees, OLD_SRC and NEW_SRC, and compared set by set.

    python3 tests/answer_diff.py OLD_SRC NEW_SRC

Each src directory (a `git archive` copy of the parent's, say, and ./src)
runs in a fresh interpreter with only itself and this directory on the path.
Per set it prints "bits: identical" or how many records' bits moved, the tag
changes, the sweeps' epsilon0, and the largest relative move of R_+, of M_+
and of u over the records whose tag held, or "unchanged".  Beside the R_+
and M_+ moves stands the old tree's own error, from one re-solve of that
record on the old tree at star_sets.TIGHT.  It exits 1 when a tag or
epsilon0 changed.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path


def run_records(src: str, wanted=None) -> dict:
    """star_sets.records(wanted) of the tovds under src, from a fresh interpreter."""
    here = Path(__file__).resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(src).resolve()), str(here.parent)]))
    done = subprocess.run([sys.executable, str(here), "--records", json.dumps(wanted)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"records of {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _largest(pairs):
    """(relative move, label, old) of the largest move over (label, old, new), or None."""
    return max(((abs(new - old) / abs(old) if old else math.inf, label, old)
                for label, old, new in pairs if old != new), default=None)


def _said(move) -> str:
    return f"largest move {move[0]:.3g} relative ({move[1]})" if move else "unchanged"


def largest_moves(o: dict, n: dict) -> list:
    """[(column, name, largest move or None)] of R+ and M+ over a set's records whose tag held."""
    kept = [(a, b) for a, b in zip(o["stars"], n["stars"]) if a[1] == b[1]]
    return [(c, key, _largest((a[0], a[c], b[c]) for a, b in kept if a[c] is not None))
            for c, key in ((2, "R+"), (3, "M+"))]


def report(old: dict, new: dict, tight: dict | None = None) -> tuple:
    """(lines, changed): the comparison of two records() results; changed is
    True when a tag or epsilon0 differs.  tight is the old tree's records()
    of the records that moved, re-solved at star_sets.TIGHT."""
    lines, changed = [], False
    for name, o in old.items():
        n = new[name]
        if [s[0] for s in o["stars"] + o["u"]] != [s[0] for s in n["stars"] + n["u"]]:
            raise ValueError(f"{name}: the two trees ran different records")
        lines.append(f"{name}: {len(o['stars'])} records" + (f", {len(o['u'])} u samples" if o["u"] else ""))
        moved = sum(a[4] != b[4] for a, b in zip(o["stars"], n["stars"]))
        lines.append(f"  bits: {moved} of {len(o['stars'])} moved" if moved else "  bits: identical")
        tags = [f"    {a[0]}: {a[1]} -> {b[1]}" for a, b in zip(o["stars"], n["stars"]) if a[1] != b[1]]
        changed |= bool(tags)
        lines += [f"  tags: {len(tags)} changed"] + tags if tags else ["  tags: unchanged"]
        if o["epsilon0"] is not None:
            eps = "unchanged" if o["epsilon0"] == n["epsilon0"] else f"-> {n['epsilon0']!r}"
            changed |= eps != "unchanged"
            lines.append(f"  epsilon0: {o['epsilon0']!r} {eps}")
        exact = {s[0]: s for s in tight[name]["stars"]} if tight else {}
        for column, key, move in largest_moves(o, n):
            truth = move and move[1] in exact and exact[move[1]][column]
            lines.append(f"  {key}: {_said(move)}" + (
                f"; old tree's error {abs(move[2] - truth) / abs(truth):.2g}" if truth else ""))
        if o["u"]:
            lines.append(f"  u: {_said(_largest((a[0], a[1], b[1]) for a, b in zip(o['u'], n['u'])))}")
    return lines, changed


def main(argv) -> int:
    if argv[:1] == ["--records"]:
        import star_sets
        json.dump(star_sets.records(json.loads(argv[1])), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = run_records(argv[0]), run_records(argv[1])
    wanted = [m[1] for name in old for _, _, m in largest_moves(old[name], new[name]) if m]
    lines, changed = report(old, new, run_records(argv[0], wanted) if wanted else None)
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
