"""Seeded inputs, operations and output checks of the benchmark workloads.

Inputs are made here from the seed with plain arithmetic; the program sees
only the generated numbers and config dicts.  Each workload has a fixed
cycle of items that the timed loop repeats, so every item's result can be
checked against its first run, against committed reference outputs for the
shipped seeds, and against an independent path outside the timed loop.

Inputs known to fail today (ROADMAP items 2 and 3) are not part of the timed
loop; they run once per run as probes, and their outcome is reported.
"""

from __future__ import annotations

import math
import random

import numpy as np

from tovds import analysis, config, metric, model
from tovds.eos import EosSpec
from tovds.errors import TovdsError
from tovds.integrate import StepControl

FOUR_PI = 4.0 * math.pi
MONOTONE_SHORT = "MonotoneShort"

# Tolerances fixed before measuring: 1e-10 is the ROADMAP item 4 gate for a
# reworked integrator; 3e-12 is the physical/scaled agreement ROADMAP item 3
# records for today's code.
REF_RTOL = 1e-10
SCALED_RTOL = 3e-12
# u_of_density integrates with epsrel = 1e-10; allow a factor ten.
CLOSED_FORM_RTOL = 1e-9

SERIES = [1.0, 0.3, -0.1]


# -- closed forms used to make and check inputs (geometrized units) ----------

def a1_coeff(gamma: float, A: float) -> float:
    return ((gamma - 1.0) / (gamma * A)) ** (1.0 / (gamma - 1.0))


def lambda_of_beta(beta: float, u_c: float, gamma: float, A: float) -> float:
    """Lambda such that the scaled cosmological constant is beta at u_c."""
    return beta * u_c ** (1.0 / (gamma - 1.0)) * FOUR_PI * a1_coeff(gamma, A)


def length_scale(u_c: float, gamma: float, A: float) -> float:
    """Homology length a with 4 pi G A1 a^2 b^(mu-1) = 1, b = u_c."""
    mu = 1.0 / (gamma - 1.0)
    return (FOUR_PI * a1_coeff(gamma, A) * u_c ** (mu - 1.0)) ** -0.5


def polytrope_u_of_rho(rho: float, gamma: float, A: float) -> float:
    """u(rho) of the pure polytrope: gamma/(gamma-1) log1p(A rho^(gamma-1))."""
    return gamma / (gamma - 1.0) * math.log1p(A * rho ** (gamma - 1.0))


def polytrope_rho_of_u(u: float, gamma: float, A: float) -> float:
    return (math.expm1((gamma - 1.0) * u / gamma) / A) ** (1.0 / (gamma - 1.0))


def log_uniform(rng: random.Random, lo: float, hi: float, stratum: int = 0, strata: int = 1,
                jitter: float = 1.0) -> float:
    """Log-uniform in stratum `stratum` of `strata`, within the middle `jitter`
    share of the stratum."""
    t = (stratum + 0.5 + jitter * (rng.random() - 0.5)) / strata
    return 10.0 ** (math.log10(lo) + t * (math.log10(hi) - math.log10(lo)))


def _bitrev3(k: int) -> int:
    return int(f"{k:03b}"[::-1], 2)


def rel_close(x, y, rtol: float) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def _error_record(exc: Exception) -> dict:
    return {"tag": None, "R": None, "M": None, "error": type(exc).__name__}


def compare_records(got: dict, ref: dict, what: str) -> list:
    """Problems found comparing one op's record with its reference."""
    if got["error"] or ref["error"]:
        if got["error"] and got["error"] != ref["error"]:
            return [f"{what}: error {got['error']} where reference has {ref['error'] or ref['tag']}"]
        return []  # a failure that went away is a fix, not a mismatch
    problems = []
    if got["tag"] != ref["tag"]:
        problems.append(f"{what}: tag {got['tag']} != reference {ref['tag']}")
    for key in ("R", "M"):
        if not rel_close(got[key], ref[key], REF_RTOL):
            problems.append(f"{what}: {key} {got[key]!r} != reference {ref[key]!r}")
    if "continuity" in ref:
        new_fails = set(got.get("continuity") or ()) - set(ref["continuity"])
        if new_fails:
            problems.append(f"{what}: continuity rows {sorted(new_fails)} fail, pass in reference")
    return problems


def _star_record(profile, outcome) -> dict:
    rec = {"tag": outcome.kind, "R": None, "M": None, "error": None}
    if outcome.boundary is not None:
        rec["R"] = outcome.boundary.r_plus
        rec["M"] = outcome.boundary.m_plus
    elif outcome.horizon_r is not None:
        rec["R"] = outcome.horizon_r
    elif outcome.end_r is not None:
        rec["R"] = outcome.end_r
    return rec


def _scaled_problems(rec: dict, alpha: float, beta: float, eos, a: float, what: str) -> list:
    """Re-solve one physical star through solve_scaled and compare."""
    star = model.solve_scaled(alpha, beta, eos)
    if star.kind != rec["tag"]:
        return [f"{what}: physical tag {rec['tag']} != scaled tag {star.kind}"]
    if rec["R"] is None or star.R_plus is None:
        return []
    if not rel_close(rec["R"] / a, star.R_plus, SCALED_RTOL):
        return [f"{what}: R/a {rec['R'] / a!r} != scaled R_plus {star.R_plus!r}"]
    return []


# -- stars ---------------------------------------------------------------------

STAR_GAMMAS = (1.4, 1.5, 1.7)
STAR_A = 1.0
EXTREME_STAR = {"gamma": 1.1, "A": 1.0, "u_c": 1e-3}  # a ~ 1.4e18 (ROADMAP item 3)
# For gamma > 3/2 (mu < 2) the density near r_+ goes as (r_+ - r)^mu, so the
# one-sided second difference of g11 has a non-integer error power that the
# report's Richardson table cannot remove; at the parent commit this row fails
# for every such star (relative error ~0.09 against tolerance 0.01).  The
# benchmark counts these stars and fails on any other row.
KNOWN_CONTINUITY_FAIL = {"g11 interior 2"}


class Workload:
    """A workload: `items` is the cycle, `setup()` builds what the ops share,
    `run(item)` returns (ops, record), `problems` checks one record and
    `cross_check` the first record of every item run, outside the timed loop.
    `calib_reps` calibration-kernel calls (calib.py) follow every op, about
    a tenth of its time.  The defaults here add no checks, notes or probes.
    """

    name = ""
    calib_reps = 2
    items: list

    def problems(self, index: int, rec: dict) -> list:
        return []

    def notes(self, first: dict) -> list:
        return []

    def probes(self) -> dict:
        return {}


class Stars(Workload):
    """Physical stars, each followed by what `tovds metric` does after a solve.

    Per gamma, one point in each cell of a 4 x 8 grid over log alpha in
    [-3, -1] and log beta in [-4, -1]; the seed places the point in the
    middle half of its cell, so every seed has nearly the same mix of
    outcomes and cost (work varies ~1% between seeds; with free placement in
    the cell it varied ~5%, as the number of costly HorizonDegenerate stars
    moved).  The cycle interleaves gammas and grid rows, so any prefix of it
    has that mix too.  96 stars take about 5 s, so each repeats ~5 times in
    a 30 s run.
    """

    name = "stars"
    n_check = 16

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.items = []
        for k in range(32):
            i_alpha, i_beta = k % 4, _bitrev3(k // 4)
            for gamma in STAR_GAMMAS:
                alpha = log_uniform(rng, 1e-3, 1e-1, i_alpha, 4, jitter=0.5)
                beta = log_uniform(rng, 1e-4, 1e-1, i_beta, 8, jitter=0.5)
                self.items.append({
                    "gamma": gamma, "alpha": alpha, "beta": beta, "u_c": alpha,
                    "Lambda": lambda_of_beta(beta, alpha, gamma, STAR_A),
                })
        self.check_items = sorted(rng.sample(range(len(self.items)), self.n_check))

    def setup(self) -> None:
        """EOS objects and their tables, built by one warm-up star per gamma."""
        self.eos = {g: EosSpec(A=STAR_A, gamma=g) for g in STAR_GAMMAS}
        for item in self.items[:len(STAR_GAMMAS)]:
            self.run(item)

    def run(self, item) -> tuple:
        """One op: solve, then patch the metric and fit the boundary exponent."""
        inp = model.ModelInput(eos=self.eos[item["gamma"]], Lambda=item["Lambda"], u_c=item["u_c"])
        try:
            profile, outcome = model.solve_star(inp)
        except TovdsError as exc:
            return 1, _error_record(exc)
        rec = _star_record(profile, outcome)
        if outcome.kind == MONOTONE_SHORT:
            patch = metric.MetricPatch.from_model(profile, outcome.boundary)
            report = metric.continuity_report(patch)
            rec["continuity"] = [f"{r.quantity} {r.side} {r.order}" for r in report.rows if not r.passed]
            analysis.boundary_exponent_fit(profile)
        return 1, rec

    def problems(self, index: int, rec: dict) -> list:
        if rec["tag"] != MONOTONE_SHORT:
            return []
        allowed = KNOWN_CONTINUITY_FAIL if self.items[index]["gamma"] > 1.5 else set()
        bad = set(rec["continuity"]) - allowed
        return [f"stars[{index}]: continuity rows {sorted(bad)} fail"] if bad else []

    def notes(self, first: dict) -> list:
        short = [rec for rec in first.values() if rec["tag"] == MONOTONE_SHORT]
        known = sum(1 for rec in short if KNOWN_CONTINUITY_FAIL & set(rec["continuity"]))
        return [f"continuity: {known} of {len(short)} MonotoneShort stars fail "
                f"{sorted(KNOWN_CONTINUITY_FAIL)} (known defect, gamma > 3/2)"]

    def cross_check(self, first: dict) -> list:
        problems = []
        for i in self.check_items:
            if i not in first or first[i]["error"]:
                continue
            item = self.items[i]
            a = length_scale(item["u_c"], item["gamma"], STAR_A)
            problems += _scaled_problems(first[i], item["alpha"], item["beta"],
                                         self.eos[item["gamma"]], a, f"stars[{i}]")
        return problems

    def probes(self) -> dict:
        p = EXTREME_STAR
        eos = EosSpec(A=p["A"], gamma=p["gamma"])
        inp = model.ModelInput(eos=eos, u_c=p["u_c"])
        try:
            rec = _star_record(*model.solve_star(inp))
        except TovdsError as exc:
            return {"extreme_scale_star": _error_record(exc)}
        rec["problems"] = _scaled_problems(rec, p["u_c"], 0.0, eos,
                                           length_scale(p["u_c"], p["gamma"], p["A"]),
                                           "extreme_scale_star")
        return {"extreme_scale_star": rec}


# -- sweep ---------------------------------------------------------------------

SWEEP_GAMMA = 1.5
SWEEP_N = 12
# Each timed call sweeps the alphas i, i+4, i+8 against the betas j, j+3,
# j+6, j+9 of the grid (i < 4, j < 3): 12 calls of 12 cells that together
# cover the grid once, each with a similar mix of cheap and costly cells.
SWEEP_A_STRIDE, SWEEP_B_STRIDE = 4, 3
SWEEP_CTRL = StepControl(rel_tol=1e-9, abs_tol=1e-12)  # regime_sweep's default


class Sweep(Workload):
    """regime_sweep at gamma = 1.5, jobs=1, over a 12 x 12 log grid, as 12
    calls on 3 x 4 strided sub-grids (SWEEP_A_STRIDE, SWEEP_B_STRIDE).

    The grid spans [lo, hi]^2 with lo in [1e-3, 1.26e-3] and hi in
    [0.79, 1] drawn from the seed.  The cycle is the 12 calls; each cell is
    an op.  A call takes about 0.3 s, short enough for the calibration
    around it to follow the machine's load (a whole-grid call takes about
    4 s).  Cell cost depends mostly on alpha, so with one grid row per call
    the per-call times fell into separate levels and their median jumped
    between two of them from run to run; strided sub-grids give every call
    a similar mix.  The whole grid is swept once per run outside the timed
    loop, as a probe: its cells must equal the calls' cells, and its
    epsilon0_estimate is checked against the reference.
    """

    name = "sweep"
    n_check = 12
    calib_reps = 10

    def __init__(self, seed: int):
        rng = random.Random(seed)
        lo = 10.0 ** (-3.0 + 0.1 * rng.random())
        hi = 10.0 ** (-0.1 * rng.random())
        self.grid = [float(x) for x in np.geomspace(lo, hi, SWEEP_N)]
        self.items = [{"gamma": SWEEP_GAMMA,
                       "alphas": list(range(i, SWEEP_N, SWEEP_A_STRIDE)),
                       "betas": list(range(j, SWEEP_N, SWEEP_B_STRIDE))}
                      for i in range(SWEEP_A_STRIDE) for j in range(SWEEP_B_STRIDE)]
        self.check_cells = sorted(rng.sample(range(SWEEP_N * SWEEP_N), self.n_check))
        self.full = None

    def setup(self) -> None:
        """EOS object and its tables, built by one warm-up solve of the first cell."""
        self.eos = EosSpec(A=1.0, gamma=SWEEP_GAMMA)
        model.solve_scaled(self.grid[0], self.grid[0], self.eos, ctrl=SWEEP_CTRL)

    def run(self, item) -> tuple:
        rec = self._sweep([self.grid[i] for i in item["alphas"]],
                          [self.grid[j] for j in item["betas"]])
        return len(rec["cells"]), rec

    def _sweep(self, alphas, betas) -> dict:
        res = analysis.regime_sweep(SWEEP_GAMMA, alphas, betas, self.eos, jobs=1)
        cells = []
        for c in res.cells:
            if c.outcome == "error":
                cells.append({"tag": None, "R": None, "M": None,
                              "error": c.error.split(":", 1)[0]})
            else:
                cells.append({"tag": c.outcome, "R": c.R_plus, "M": c.M_plus, "error": None})
        return {"cells": cells, "epsilon0": res.epsilon0_estimate}

    def problems(self, index: int, rec: dict) -> list:
        item = self.items[index]
        return _epsilon0_problems([self.grid[i] for i in item["alphas"]],
                                  [self.grid[j] for j in item["betas"]], rec, f"sweep[{index}]")

    def cross_check(self, first: dict) -> list:
        """Sweep the whole grid once; its cells must equal the calls' cells.
        Re-solve a seeded subset of cells through the scalar solve_scaled."""
        self.full = self._sweep(self.grid, self.grid)
        problems = _epsilon0_problems(self.grid, self.grid, self.full, "sweep whole grid")
        for k, rec in sorted(first.items()):
            item = self.items[k]
            whole = [self.full["cells"][i * SWEEP_N + j] for i in item["alphas"] for j in item["betas"]]
            if rec["cells"] != whole:
                problems.append(f"sweep[{k}]: cells differ from the whole-grid sweep")
        pairs = [(a, b) for a in self.grid for b in self.grid]
        for j in self.check_cells:
            alpha, beta = pairs[j]
            cell = self.full["cells"][j]
            try:
                star = model.solve_scaled(alpha, beta, self.eos, ctrl=SWEEP_CTRL)
            except TovdsError as exc:
                if cell["error"] != type(exc).__name__:
                    problems.append(f"sweep cell {j}: scalar path raises {type(exc).__name__}")
                continue
            got = {"tag": star.kind, "R": star.R_plus, "M": star.M_plus, "error": None}
            problems += compare_records(cell, got, f"sweep cell {j} vs scalar path")
        return problems

    def probes(self) -> dict:
        """The whole-grid sweep made by cross_check."""
        return {"whole_grid": self.full} if self.full is not None else {}

    def notes(self, first: dict) -> list:
        if self.full is None:
            return []
        tags = [c["tag"] or c["error"] for c in self.full["cells"]]
        counts = ", ".join(f"{t} {tags.count(t)}" for t in sorted(set(tags)))
        return [f"whole grid: {counts}; epsilon0_estimate {self.full['epsilon0']:.6g}"]


def _epsilon0_problems(alphas, betas, rec: dict, what: str) -> list:
    """epsilon0 recomputed from the cells: the largest grid value g such that
    every cell with alpha <= g and beta <= g is MonotoneShort."""
    pairs = [(a, b) for a in alphas for b in betas]
    eps0 = 0.0
    for g in sorted(set(alphas) | set(betas)):
        if all(c["tag"] == MONOTONE_SHORT for c, (a, b) in zip(rec["cells"], pairs)
               if a <= g and b <= g):
            eps0 = g
    if eps0 != rec["epsilon0"]:
        return [f"{what}: epsilon0 {rec['epsilon0']!r} != {eps0!r} recomputed from the cells"]
    return []


# -- cold ----------------------------------------------------------------------

COLD_CYCLE = 24
# positions in the cycle of the ops that use a series Omega, so that any
# prefix of the cycle has close to the cycle's mix
COLD_SERIES_AT = {3: "fermi", 7: "series", 11: "fermi", 15: "series", 19: "fermi", 23: "series"}
COLD_POLYTROPES = COLD_CYCLE - len(COLD_SERIES_AT)
COLD_EACH_SERIES = len(COLD_SERIES_AT) // 2
COLD_JITTER = 0.25  # share of its stratum a value may take; see Cold


class Cold(Workload):
    """One `tovds solve` without the file writes: config dict -> build_model_input
    -> solve_star, with a fresh EOS (and its tables) every op.

    18 of 24 ops are pure polytropes with gamma in [1.3, 1.8], alpha in
    [1e-3, 1e-2], A in [0.5, 2] and beta in [1e-4, 1e-2]; half give the
    centre as rho_c, half as u_c.  3 use the Fermi fit EOS (K in [0.5, 2])
    and 3 use OmegaSeries((1, 0.3, -0.1)) with eta_max = 2 (gamma in
    [1.4, 1.6]).  Every parameter is stratified per kind, strata paired by
    fixed permutations, with the seed placing each value in the middle
    quarter of its stratum: an op's cost depends on all of them (on gamma
    most), and with an 8-op cycle and free placement the cycle's cost varied
    by about 8% between seeds.  A pass takes about 9 s, so each op repeats 2
    to 4 times in a 30 s run; the Fermi and series ops are about 60% of the
    time.
    """

    name = "cold"
    calib_reps = 10

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.items = []
        seen = {"polytrope": 0, "fermi": 0, "series": 0}
        for pos in range(COLD_CYCLE):
            kind = COLD_SERIES_AT.get(pos, "polytrope")
            j, n = seen[kind], COLD_POLYTROPES if kind == "polytrope" else COLD_EACH_SERIES
            seen[kind] += 1

            def strat(lo, hi, mult):
                """Log-uniform in stratum (mult * j) mod n of n."""
                return log_uniform(rng, lo, hi, (mult * j) % n, n, jitter=COLD_JITTER)

            alpha = strat(1e-3, 1e-2, 5 if n > 3 else 1)
            beta = strat(1e-4, 1e-2, 11 if n > 3 else 2)
            if kind == "fermi":
                K = strat(0.5, 2.0, 1)
                gamma, A = 5.0 / 3.0, K ** (-2.0 / 3.0) / 5.0  # low-density limit
                eos_cfg = {"type": "fermi", "K": K}
            elif kind == "series":
                gamma, A = 1.4 + 0.2 * (j + 0.5 + COLD_JITTER * (rng.random() - 0.5)) / n, 1.0
                eos_cfg = {"type": "polytrope", "A": A, "gamma": gamma,
                           "omega_coeffs": SERIES, "eta_max": 2.0}
            else:
                gamma = 1.3 + 0.5 * (j + 0.5 + COLD_JITTER * (rng.random() - 0.5)) / n
                A = strat(0.5, 2.0, 7)
                eos_cfg = {"type": "polytrope", "A": A, "gamma": gamma}
            if kind == "polytrope" and j % 2 == 1:
                center = {"rho_c": polytrope_rho_of_u(alpha, gamma, A)}
            else:
                center = {"u_c": alpha}
            self.items.append({
                "kind": kind, "alpha": alpha, "beta": beta, "gamma": gamma, "A": A,
                "config": {"eos": eos_cfg, "center": center,
                           "Lambda": lambda_of_beta(beta, alpha, gamma, A)},
            })

    def setup(self) -> None:
        """Nothing is cached across ops; the warm-up op loads lazy imports."""
        self.run(self.items[0])

    def run(self, item) -> tuple:
        try:
            inp = config.build_model_input(item["config"])
            return 1, _star_record(*model.solve_star(inp))
        except TovdsError as exc:
            return 1, _error_record(exc)

    def cross_check(self, first: dict) -> list:
        """Pure polytropes against closed forms and the scaled path."""
        problems = []
        for i, rec in sorted(first.items()):
            item = self.items[i]
            if item["kind"] != "polytrope" or rec["error"]:
                continue
            center = item["config"]["center"]
            if "rho_c" in center:
                u_c = config.build_model_input(item["config"]).center_enthalpy()
                u_exact = polytrope_u_of_rho(center["rho_c"], item["gamma"], item["A"])
                if not rel_close(u_c, u_exact, CLOSED_FORM_RTOL):
                    problems.append(f"cold[{i}]: u_c {u_c!r} != closed form {u_exact!r}")
                continue
            eos = EosSpec(A=item["A"], gamma=item["gamma"])
            a = length_scale(item["alpha"], item["gamma"], item["A"])
            problems += _scaled_problems(rec, item["alpha"], item["beta"], eos, a, f"cold[{i}]")
        return problems

    def probes(self) -> dict:
        """OmegaSeries at the default eta_max (ROADMAP item 2 bug)."""
        base = {"eos": {"type": "polytrope", "A": 1.0, "gamma": 1.5, "omega_coeffs": SERIES},
                "center": {"u_c": 1e-3}}
        rec = self.run({"config": base})[1]
        if not rec["error"]:
            bounded = dict(base, eos=dict(base["eos"], eta_max=2.0))
            rec["problems"] = compare_records(rec, self.run({"config": bounded})[1],
                                              "series_default_eta_max vs eta_max = 2")
        return {"series_default_eta_max": rec}


WORKLOADS = {w.name: w for w in (Stars, Sweep, Cold)}
