"""Self-test of the benchmark: metric names match BENCHMARK.json, and two
traced runs of one seed report identical work counters.

    python3 perfbench/selftest.py [--seed 7] [workload ...]

Per workload, runs `run.py --seconds 1` once untraced and twice traced (each
traced run makes one untraced and one traced pass over the input cycle),
checks the metric names and units of both modes against BENCHMARK.json,
and compares every per-layer metric with unit `count`, and
`integrate.rhs_per_step`, between the two traced runs exactly.  Exit code 1
on any mismatch or a failed run.  Takes about three minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = {"integrate.rhs_per_step"}


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("workloads", nargs="*", default=["stars", "sweep", "cold"])
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for w in args.workloads:
        runs = {0: [run(w, args.seed, 0)], 1: [run(w, args.seed, 1), run(w, args.seed, 1)]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: m["unit"] for k, m in runs[trace][0].items()}
            if got != want:
                print(f"{w}: --trace {trace} metrics {got} != BENCHMARK.json {key} {want}")
                ok = False
        first, second = ({k: m["value"] for k, m in r.items() if m["unit"] == "count" or k in EXACT}
                         for r in runs[1])
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        print(f"{w}: {len(first)} work counters, {'identical' if not diff else f'DIFFER: {diff}'}")
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
