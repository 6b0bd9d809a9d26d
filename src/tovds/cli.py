"""Command-line front end.

Each subcommand takes only the options it reads:

    solve       --config, --out, --format csv|json, --units geom|si
    sweep       --config, --out, --jobs
    metric      --config, --out, --units geom|si
    lane-emden  --config, --out, --format csv|json
    verify      --out, --jobs, --criteria

A sweep is solved in the scaled variables, which carry no units, so it
takes no --units.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.  All
artifact files are deterministic functions of the configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import lane_emden_first_zero, regime_sweep
from .config import build_lane_emden, build_model_input, build_sweep, load_json, unit_system
from .errors import ConfigError, TovdsError
from .metric import MetricPatch, continuity_report
from .model import MONOTONE_SHORT, PROFILE_COLUMNS, solve_star
from .odecore import einstein_static_lambda

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _error_json(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stdout)


def _profile_json_rows(profile) -> list:
    arrays = [getattr(profile, c) for c in PROFILE_COLUMNS]
    return [
        {c: float(a[i]) for c, a in zip(PROFILE_COLUMNS, arrays)}
        for i in range(profile.r.size)
    ]


def cmd_solve(args) -> int:
    cfg = load_json(args.config)
    inp = build_model_input(cfg, args.units)
    units_label = unit_system(cfg, args.units)
    os.makedirs(args.out, exist_ok=True)

    profile, outcome = solve_star(inp)

    if args.format == "csv":
        profile.write_csv(os.path.join(args.out, "profile.csv"), units_label)
    else:
        _write_json(os.path.join(args.out, "profile.json"), {
            "units": units_label, "rows": _profile_json_rows(profile),
        })
    _write_json(os.path.join(args.out, "outcome.json"), outcome.to_json_dict())

    lambda_static = einstein_static_lambda(profile.rho[0], profile.P[0], inp.constants)
    static_case = (
        lambda_static > 0.0
        and abs(inp.Lambda - lambda_static) <= 1e-10 * lambda_static
    )

    lines = [f"outcome: {outcome.kind}"]
    if static_case:
        lines.append("constant-pressure special case detected "
                     "(Lambda equals 4 pi G (rho_c + 3 P_c/c^2)/c^2)")
    if outcome.boundary is not None:
        b = outcome.boundary
        lines += [
            f"r_plus     = {b.r_plus!r}",
            f"m_plus     = {b.m_plus!r}",
            f"kappa_plus = {b.kappa_plus!r}",
            f"Q_plus     = {b.Q_plus!r}",
            f"B          = {b.B!r}",
        ]
    if outcome.first_rise_r is not None:
        lines.append(f"first pressure rise at r = {outcome.first_rise_r!r}")
    if outcome.horizon_r is not None:
        lines.append(f"horizon at r = {outcome.horizon_r!r}")
    if outcome.end_r is not None:
        lines.append(f"integration ended at r = {outcome.end_r!r}")
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary, end="")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_json(args.config)
    result = regime_sweep(**build_sweep(cfg), jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    result.to_csv(os.path.join(args.out, "sweep.csv"))
    _write_json(os.path.join(args.out, "sweep.json"), result.to_json_dict())
    n_short = sum(c.outcome == MONOTONE_SHORT for c in result.cells)
    print(f"{len(result.cells)} cells, {n_short} monotone-short, "
          f"epsilon0 estimate {result.epsilon0_estimate!r}")
    return EXIT_OK


def cmd_metric(args) -> int:
    cfg = load_json(args.config)
    inp = build_model_input(cfg, args.units)
    os.makedirs(args.out, exist_ok=True)
    profile, outcome = solve_star(inp)
    if outcome.kind != MONOTONE_SHORT:
        _error_json("numerical", f"metric patching needs a monotone-short model, got {outcome.kind}")
        return EXIT_NUMERICAL
    patch = MetricPatch.from_model(profile, outcome.boundary)
    report = continuity_report(patch)
    doc = report.to_json_dict()
    hp = patch.horizon_pair
    doc["horizons"] = None if hp is None else {"r_I": hp.r_I, "r_E": hp.r_E}
    doc["r_plus"] = patch.bq.r_plus
    doc["brackets_star"] = patch.brackets_star() if hp is not None else None
    _write_json(os.path.join(args.out, "metric_report.json"), doc)
    for row in report.rows:
        status = "pass" if row.passed else "FAIL"
        print(f"{row.quantity} {row.side:8s} order {row.order}: value {row.value!r} "
              f"target {row.target!r} rel_err {row.rel_err:.3e} [{status}]")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_lane_emden(args) -> int:
    mus, lam, R_cap = build_lane_emden(load_json(args.config))
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for mu in mus:
        xi1 = lane_emden_first_zero(mu, lam, R_cap=R_cap)
        rows.append({"mu": mu, "lambda": lam, "xi1": xi1})
        xi_str = "none (no zero; turns around above 0)" if xi1 is None else repr(xi1)
        print(f"mu = {mu:<8g} lambda = {lam:<8g} xi1 = {xi_str}")
    if args.format == "csv":
        lines = ["# first zeros of the scaled limit equation", "mu,lambda,xi1"]
        for row in rows:
            xi = "" if row["xi1"] is None else repr(row["xi1"])
            lines.append(f"{row['mu']!r},{row['lambda']!r},{xi}")
        with open(os.path.join(args.out, "lane_emden.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        _write_json(os.path.join(args.out, "lane_emden.json"), {"rows": rows})
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import acceptance
    os.makedirs(args.out, exist_ok=True)
    numbers = None
    if args.criteria:
        try:
            numbers = {int(tok) for tok in args.criteria.split(",")}
        except ValueError:
            raise ConfigError(f"--criteria must be a comma list of integers, got {args.criteria!r}")
        unknown = numbers - acceptance.CRITERIA.keys()
        if unknown:
            raise ConfigError(f"unknown criterion number(s): {sorted(unknown)}")
    results = acceptance.run_criteria(numbers=numbers, jobs=args.jobs)
    doc = {"criteria": [r.to_json_dict() for r in results],
           "pass": all(r.passed for r in results)}
    _write_json(os.path.join(args.out, "verify_report.json"), doc)
    for r in results:
        print(r.format_line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


_OPTIONS = {
    "--config": dict(required=True, help="JSON configuration file"),
    "--out": dict(default="out", help="output directory (default: ./out)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--units": dict(choices=("geom", "si"), help="override the config unit system"),
    "--jobs": dict(type=int, default=1, help="parallel sweep workers"),
    "--criteria": dict(help="comma list of criterion numbers (default: all)"),
}

# name, command, help, and the options the command reads
_SUBCOMMANDS = (
    ("solve", cmd_solve, "solve one star and classify the outcome",
     ("--config", "--out", "--format", "--units")),
    ("sweep", cmd_sweep, "classify the scaled system over an (alpha, beta) grid",
     ("--config", "--out", "--jobs")),
    ("metric", cmd_metric, "patch the vacuum metric and check C^2 matching",
     ("--config", "--out", "--units")),
    ("lane-emden", cmd_lane_emden, "first zeros of the scaled limit equation",
     ("--config", "--out", "--format")),
    ("verify", cmd_verify, "run the acceptance criteria", ("--out", "--jobs", "--criteria")),
)
_COMMANDS = {name: command for name, command, _, _ in _SUBCOMMANDS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tovds",
        description="Static relativistic stars with a cosmological constant: "
                    "solve, classify, patch the vacuum metric, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, _, help_text, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        _error_json("config", str(exc))
        return EXIT_CONFIG
    except TovdsError as exc:
        _error_json("numerical", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
