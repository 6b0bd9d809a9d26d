"""Write the reference outputs that run.py compares against for shipped seeds.

    python3 perfbench/make_reference.py 7 11

Runs every item of every workload's cycle once, untimed, plus the probes,
and writes perfbench/reference/<workload>-seed<seed>.json.  Refuses to
write a reference whose own checks fail.  Regenerate only from a commit
whose outputs are trusted: later commits are judged against these files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def reference(name: str, seed: int) -> dict:
    work = workloads.WORKLOADS[name](seed)
    work.setup()
    records = [work.run(item)[1] for item in work.items]
    problems = [p for i, rec in enumerate(records) for p in work.problems(i, rec)]
    problems += work.cross_check(dict(enumerate(records)))
    probes = work.probes()
    for rec in probes.values():
        problems += rec.pop("problems", [])
    if problems:
        raise SystemExit(f"{name} seed {seed}: checks fail, no reference written:\n  "
                         + "\n  ".join(problems))
    return {"workload": name, "seed": seed, "items": records, "probes": probes}


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    for seed in (int(s) for s in argv):
        for name in workloads.WORKLOADS:
            path = out / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(reference(name, seed), indent=1) + "\n")
            print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
