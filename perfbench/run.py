"""Benchmark of tovds: one seeded workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload stars --seed 7 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ./src.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the run alternates untraced and traced passes over
the workload's input cycle and reports the per-layer metrics instead, with
the spans written to perfbench/out/.  Timings are given at reference machine
speed: each op is timed against a calibration kernel run around it (calib.py).
The exit code is 1 when an output check fails and 2 when the package cannot be
found.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"
OUT = HERE / "out"
N_SETUP = 5  # set-up repeats; setup_s is their median
SETUP_CALIB_REPS = 8  # calibration-kernel calls before and after each set-up


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("stars", "sweep", "cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Loop:
    """Results of the timed loop: latencies, first record per item, problems."""

    def __init__(self, work):
        self.work = work
        self.latencies = []      # wall seconds per op; a sweep call gives one sample, its mean
        self.call_s = []         # wall seconds per item run
        self.item_units = {}     # item index -> per-op kernel units of each run (inf if it failed)
        self.attempted = 0
        self.failed = 0
        self.first = {}          # item index -> record of its first run
        self.problems = []

    def run_item(self, index: int, clock=None, tracer=None) -> None:
        item = self.work.items[index]
        if clock is not None:
            (n, rec), dt, units = clock.time(self.work.run, item)
        else:
            t = perf_counter()
            if tracer is None:
                n, rec = self.work.run(item)
            else:
                with tracer.span("bench.op"):
                    n, rec = self.work.run(item)
            dt, units = perf_counter() - t, math.nan
        self.call_s.append(dt)
        failed = failures(rec)
        self.latencies.append(dt / n)
        self.attempted += n
        self.failed += failed
        self.item_units.setdefault(index, []).append(math.inf if failed else units / n)
        if index not in self.first:
            self.first[index] = rec
            self.problems += self.work.problems(index, rec)
        elif rec != self.first[index]:
            self.problems.append(f"{self.work.name}[{index}]: result differs from its first run")


def failures(rec: dict) -> int:
    if "cells" in rec:
        return sum(1 for c in rec["cells"] if c["error"])
    return 1 if rec["error"] else 0


def compare_item(workloads, got: dict, ref: dict, what: str) -> list:
    if "cells" not in ref:
        return workloads.compare_records(got, ref, what)
    problems = []
    if got["epsilon0"] != ref["epsilon0"]:
        problems.append(f"{what}: epsilon0 {got['epsilon0']!r} != reference {ref['epsilon0']!r}")
    for j, (c, r) in enumerate(zip(got["cells"], ref["cells"])):
        problems += workloads.compare_records(c, r, f"{what} cell {j}")
    return problems


def reference_problems(workloads, name: str, seed: int, loop: Loop, probes: dict) -> tuple:
    path = REFERENCE / f"{name}-seed{seed}.json"
    if not path.is_file():
        return False, []
    ref = json.loads(path.read_text())
    problems = []
    for i, rec in sorted(loop.first.items()):
        problems += compare_item(workloads, rec, ref["items"][i], f"{name}[{i}] vs reference")
    for key, rec in probes.items():
        problems += compare_item(workloads, rec, ref["probes"][key], f"probe {key} vs reference")
    return True, problems


def p90_ms(latencies):
    """p90 in ms when at least ten samples lie above it, else None."""
    if len(latencies) < 20:
        return None
    p90 = statistics.quantiles(latencies, n=10)[8]
    return p90 * 1e3 if sum(1 for x in latencies if x > p90) >= 10 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tovds" / "__init__.py").is_file():
        print(f"error: no tovds package under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t = perf_counter()
    import tovds  # noqa: F401  (timed: import cost is reported as import_s)
    import workloads
    import spans
    import calib
    import_s = perf_counter() - t

    tracer = spans.Tracer() if args.trace else None

    def set_up():
        work = workloads.WORKLOADS[args.workload](args.seed)
        if tracer is None:
            work.setup()
        else:
            with tracer.active(), tracer.span("bench.setup"):
                work.setup()
        return work

    setup_clock = calib.Clock(SETUP_CALIB_REPS)
    setup_s, setup_units, setup_ranges = [], [], []
    for _ in range(N_SETUP):
        lo = len(tracer.name) if tracer else 0
        work, dt, units = setup_clock.time(set_up)
        setup_s.append(dt)
        setup_units.append(units)
        setup_ranges.append((lo, len(tracer.name) if tracer else 0))

    loop = Loop(work)
    n_items = len(work.items)
    pass_ranges, walls = [], {0: [], 1: []}
    t_loop = perf_counter()
    deadline = t_loop + args.seconds
    if tracer is None:
        clock = calib.Clock(work.calib_reps)
        k = 0
        while True:
            loop.run_item(k % n_items, clock)
            k += 1
            if perf_counter() >= deadline:
                break
    else:
        # whole passes, untraced and traced in turn: counters per pass repeat
        # exactly, and the wall-time ratio of the two gives the overhead
        while True:
            for traced in (0, 1):
                lo = len(tracer.name)
                t = perf_counter()
                if traced:
                    with tracer.active():
                        for i in range(n_items):
                            loop.run_item(i, tracer=tracer)
                else:
                    for i in range(n_items):
                        loop.run_item(i)
                walls[traced].append(perf_counter() - t)
                if traced:
                    pass_ranges.append((lo, len(tracer.name)))
            if perf_counter() >= deadline:
                break
    loop_wall = perf_counter() - t_loop
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = list(loop.problems)
    problems += work.cross_check(loop.first)
    probes = work.probes()
    for key, rec in probes.items():
        problems += rec.pop("problems", [])
    has_ref, ref_problems = reference_problems(workloads, work.name, args.seed, loop, probes)
    problems += ref_problems
    correct = not problems

    summary = {}
    if tracer is None:
        # Timings at reference machine speed (calib.py).  ops_per_s: per item,
        # the median over its runs of the op's time in calibration-kernel
        # units.  op_p50_ms: the median over every run, taking from each item
        # as many runs as every item has, so that items weigh the same.
        per_item = [statistics.median(v) for v in loop.item_units.values()]
        finite = [u for u in per_item if u < math.inf]
        runs = min(len(v) for v in loop.item_units.values())
        pooled = [u for v in loop.item_units.values() for u in v[:runs]]
        ok_frac = (loop.attempted - loop.failed) / loop.attempted
        summary = {
            "setup_s": (statistics.median(setup_units) * calib.REF_S, "s"),
            "ops_per_s": (ok_frac / (statistics.mean(finite) * calib.REF_S) if finite else 0.0,
                          "1/s"),
            "op_p50_ms": (statistics.median(pooled) * calib.REF_S * 1e3, "ms"),
            "machine_slowdown": (statistics.median(clock.samples) / calib.REF_S, "1"),
        }
    summary.update({
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_setup_s": (statistics.median(setup_s), "s"),
        "wall_ops_per_s": ((loop.attempted - loop.failed) / loop_wall, "1/s"),
        "wall_op_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "wall_op_p90_ms": (p90_ms(loop.latencies), "ms"),
        "call_p50_s": (statistics.median(loop.call_s), "s"),
        "fail_frac": (loop.failed / loop.attempted, "1"),
        "import_s": (import_s, "s"),
    })
    print(f"# {work.name} seed {args.seed}: {loop.attempted} ops in {len(loop.call_s)} calls, "
          f"{loop_wall:.2f} s loop, {len(loop.latencies)} latency samples, "
          f"setups {', '.join(f'{s:.3f}' for s in setup_s)} s wall")
    for key, (value, unit) in summary.items():
        shown = "n/a (fewer than 10 samples above p90)" if value is None else f"{value:.6g} {unit}"
        print(f"{work.name:6s} {key:14s} {shown}")
    for key, rec in probes.items():
        shown = f"{len(rec['cells'])} cells" if "cells" in rec else rec["error"] or rec["tag"]
        print(f"{work.name:6s} probe {key}: {shown}")
    print(f"{work.name:6s} checks: {len(loop.first)} distinct items, scaled/scalar cross-check, "
          f"reference {'compared' if has_ref else 'not shipped for this seed'}; "
          f"{len(problems)} problem(s)")
    for note in work.notes(loop.first):
        print(f"{work.name:6s} {note}")
    for msg in problems[:20]:
        print(f"  FAIL {msg}")

    if tracer is None:
        metrics = {k: {"value": summary[k][0], "unit": summary[k][1]}
                   for k in ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")}
    else:
        metrics = layer_metrics(spans, tracer, setup_ranges, pass_ranges, walls)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{work.name}-seed{args.seed}.npz"
        tracer.write(spans_path)
        for key, m in metrics.items():
            print(f"{work.name:6s} {key:26s} {m['value']:.6g} {m['unit']}")
        print(f"# spans written to {spans_path.relative_to(HERE.parent)}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(spans, tracer, setup_ranges, pass_ranges, walls) -> dict:
    """Per-layer values for one set-up plus one pass over the input cycle."""
    def mean_totals(ranges):
        totals = [tracer.layer_totals(lo, hi) for lo, hi in ranges]
        return {k: sum(t[k] for t in totals) / len(totals) for k in totals[0]}

    s, p = mean_totals(setup_ranges), mean_totals(pass_ranges)
    values = {k: s[k] + p[k] for k in s}
    values["integrate.rhs_per_step"] = (
        values["integrate.n_rhs"] / values["integrate.steps"] if values["integrate.steps"] else 0.0)
    values["trace.overhead"] = sum(walls[1]) / sum(walls[0]) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in spans.LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main())
