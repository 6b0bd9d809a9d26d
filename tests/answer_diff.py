"""What a change did to the answers: the star sets of tests/star_sets.py run
on two source trees and compared set by set.

    python3 tests/answer_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the src directories of the two trees, for example a
`git archive` copy of the parent's and ./src.  Each tree runs in a fresh
interpreter with only its own src and this directory on the path.  For each
set the script prints the tag changes, star by star; the sweep's epsilon0
estimate; and the largest relative move of R_+, of M_+ and of the
u_of_density samples, each with the star it comes from, or "bit-identical".
Moves are taken over the stars whose tag did not change.  It exits 1 when
a tag or epsilon0 changed.  pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_records(src: str) -> dict:
    """star_sets.records() of the tovds under src, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(src).resolve()), str(HERE)]))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--records"],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"records of {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _largest_move(pairs) -> str:
    """'bit-identical', or the largest relative move over (label, old, new)."""
    moves = [(abs(new - old) / abs(old) if old else float("inf"), label)
             for label, old, new in pairs if old != new]
    if not moves:
        return "bit-identical"
    move, label = max(moves)
    return f"largest move {move:.3g} relative ({label})"


def report(old: dict, new: dict) -> tuple:
    """(lines, changed): the comparison of two records() results; changed is
    True when a tag or epsilon0 differs."""
    lines, changed = [], False
    for name, o in old.items():
        n = new[name]
        if [s[0] for s in o["stars"]] != [s[0] for s in n["stars"]] or \
                [u[0] for u in o["u"]] != [u[0] for u in n["u"]]:
            raise ValueError(f"{name}: the two trees ran different stars")
        head = f"{name}: {len(o['stars'])} stars"
        lines.append(head + (f", {len(o['u'])} u_of_density samples" if o["u"] else ""))
        tags = [f"    {a[0]}: {a[1]} -> {b[1]}" for a, b in zip(o["stars"], n["stars"]) if a[1] != b[1]]
        changed |= bool(tags)
        lines += [f"  tags: {len(tags)} changed"] + tags if tags else ["  tags: unchanged"]
        if o["epsilon0"] is not None:
            same = o["epsilon0"] == n["epsilon0"]
            changed |= not same
            lines.append(f"  epsilon0: {o['epsilon0']!r}" + (" unchanged" if same else f" -> {n['epsilon0']!r}"))
        kept = [(a, b) for a, b in zip(o["stars"], n["stars"]) if a[1] == b[1]]
        for column, key in ((2, "R+"), (3, "M+")):
            pairs = [(a[0], a[column], b[column]) for a, b in kept if a[column] is not None]
            lines.append(f"  {key}: {_largest_move(pairs)}")
        if o["u"]:
            lines.append(f"  u: {_largest_move((a[0], a[1], b[1]) for a, b in zip(o['u'], n['u']))}")
    return lines, changed


def main(argv) -> int:
    if argv == ["--records"]:
        import star_sets

        json.dump(star_sets.records(), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, changed = report(run_records(argv[0]), run_records(argv[1]))
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
