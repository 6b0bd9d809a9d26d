"""Spans around the public functions of each tovds layer, recorded from outside.

Tracer.active() replaces each traced function with a wrapper wherever a
tovds module looks it up (a name imported with `from .x import f` is
patched in the importing module too) and restores the originals on exit.
Each call records a span (name, start, end, parent) in flat arrays; self
times and the per-layer metrics are derived from the spans at the end.
"""

from __future__ import annotations

import contextlib
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

import tovds
from tovds import analysis, config, eos, integrate, metric, model, odecore

# span names; the index is the stored name id
NAMES = (
    "bench.setup",
    "bench.op",
    "eos.table_build",          # first omega_rho_P_fast call on an EosSpec instance
    "eos.omega_rho_P_fast",
    "eos.omega_rho_P",
    "eos.omega_rho_P[build]",   # direct calls made while building tables
    "eos.u_of_density",
    "odecore.rhs_tovds_enthalpy",
    "odecore.rhs_scaled",
    "integrate.integrate_adaptive",
    "integrate.brentq",
    "integrate.DenseSolution.__call__",
    "model.solve_star",
    "model.solve_scaled",
    "model.boundary_quantities",
    "metric.MetricPatch.from_model",
    "metric.continuity_report",
    "analysis.boundary_exponent_fit",
    "analysis.regime_sweep",
    "config.build_model_input",
)
ID = {name: i for i, name in enumerate(NAMES)}

# module-level functions: (defining module, attribute, span name)
FUNCTIONS = (
    (odecore, "rhs_tovds_enthalpy", "odecore.rhs_tovds_enthalpy"),
    (odecore, "rhs_scaled", "odecore.rhs_scaled"),
    (integrate, "brentq", "integrate.brentq"),
    (model, "boundary_quantities", "model.boundary_quantities"),
    (model, "solve_scaled", "model.solve_scaled"),
    (metric, "continuity_report", "metric.continuity_report"),
    (analysis, "boundary_exponent_fit", "analysis.boundary_exponent_fit"),
    (analysis, "regime_sweep", "analysis.regime_sweep"),
    (config, "build_model_input", "config.build_model_input"),
)
# methods: (class, attribute, span name); omega_rho_P and omega_rho_P_fast
# are wrapped apart, because their span name depends on the call
METHODS = (
    (eos.EosSpec, "u_of_density", "eos.u_of_density"),
    (integrate.DenseSolution, "__call__", "integrate.DenseSolution.__call__"),
)

# (per-layer metric, unit, better), as in BENCHMARK.json; values from layer_totals
LAYER_METRICS = (
    ("eos.table_builds", "count", "lower"),
    ("eos.table_build_s", "s", "lower"),
    ("eos.fast_calls", "count", "lower"),
    ("eos.fast_s", "s", "lower"),
    ("eos.direct_calls", "count", "lower"),
    ("eos.direct_s", "s", "lower"),
    ("eos.u_of_density_calls", "count", "lower"),
    ("eos.u_of_density_s", "s", "lower"),
    ("odecore.rhs_calls", "count", "lower"),
    ("odecore.rhs_self_s", "s", "lower"),
    ("odecore.guard_rhs_calls", "count", "lower"),
    ("integrate.calls", "count", "lower"),
    ("integrate.steps", "count", "lower"),
    ("integrate.rhs_per_step", "1", "lower"),
    ("integrate.self_s", "s", "lower"),
    ("integrate.event_roots", "count", "lower"),
    ("integrate.event_s", "s", "lower"),
    ("integrate.dense_evals", "count", "lower"),
    ("integrate.dense_eval_s", "s", "lower"),
    ("model.solves", "count", "lower"),
    ("model.solve_s", "s", "lower"),
    ("model.post_s", "s", "lower"),
    ("model.profile_points", "count", "lower"),
    ("model.boundary_s", "s", "lower"),
    ("metric.report_s", "s", "lower"),
    ("analysis.expfit_s", "s", "lower"),
    ("analysis.sweep_self_s", "s", "lower"),
    ("config.build_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "1", "lower"),
)


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("B")
        self._stack = [-1]
        self._seen = set()       # ids of EosSpec instances whose tables exist
        self._building = 0       # depth of open table-build spans
        self.solves = {}         # span index -> (n_steps, n_rhs) of integrate_adaptive
        self.points = {}         # span index -> profile size returned by solve_star

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(ID[name])
        try:
            yield i
        finally:
            self._close(i)

    def _wrap(self, fn, name: str):
        name_id = ID[name]
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    def _wrap_fast(self, fn):
        tracer = self
        seen = self._seen
        fast_id, build_id = ID["eos.omega_rho_P_fast"], ID["eos.table_build"]

        def traced(inst, eta):
            key = id(inst)
            if key in seen:
                i = tracer._open(fast_id)
                try:
                    return fn(inst, eta)
                finally:
                    tracer._close(i)
            seen.add(key)
            weakref.finalize(inst, seen.discard, key)
            i = tracer._open(build_id)
            tracer._building += 1
            try:
                return fn(inst, eta)
            finally:
                tracer._building -= 1
                tracer._close(i)

        return traced

    def _wrap_direct(self, fn):
        tracer = self
        direct_id, in_build_id = ID["eos.omega_rho_P"], ID["eos.omega_rho_P[build]"]

        def traced(inst, eta):
            i = tracer._open(in_build_id if tracer._building else direct_id)
            try:
                return fn(inst, eta)
            finally:
                tracer._close(i)

        return traced

    def _wrap_integrate(self, fn):
        tracer = self
        name_id = ID["integrate.integrate_adaptive"]

        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            try:
                sol = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            tracer.solves[i] = (sol.n_steps, sol.n_rhs)
            return sol

        return traced

    def _wrap_solve_star(self, fn):
        tracer = self
        name_id = ID["model.solve_star"]

        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            try:
                profile, outcome = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            tracer.points[i] = profile.r.size
            return profile, outcome

        return traced

    # -- patching --------------------------------------------------------------

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        undo = []

        def patch_everywhere(owner, attr, wrapper):
            original = getattr(owner, attr)
            for mod in [tovds] + [m for k, m in sys.modules.items() if k.startswith("tovds.")]:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        undo.append((mod, key, val))
                        setattr(mod, key, wrapper)

        for owner, attr, name in FUNCTIONS:
            patch_everywhere(owner, attr, self._wrap(getattr(owner, attr), name))
        patch_everywhere(integrate, "integrate_adaptive",
                         self._wrap_integrate(integrate.integrate_adaptive))
        patch_everywhere(model, "solve_star", self._wrap_solve_star(model.solve_star))

        def patch_method(cls, attr, wrapper):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

        for cls, attr, name in METHODS:
            patch_method(cls, attr, self._wrap(cls.__dict__[attr], name))
        patch_method(eos.EosSpec, "omega_rho_P_fast", self._wrap_fast(eos.EosSpec.omega_rho_P_fast))
        patch_method(eos.EosSpec, "omega_rho_P", self._wrap_direct(eos.EosSpec.omega_rho_P))
        from_model = metric.MetricPatch.__dict__["from_model"].__func__
        patch_method(metric.MetricPatch, "from_model",
                     classmethod(self._wrap(from_model, "metric.MetricPatch.from_model")))
        try:
            yield self
        finally:
            for owner, key, val in reversed(undo):
                setattr(owner, key, val)

    # -- analysis ----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.uint8),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())

    def layer_totals(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-layer totals over the spans with index in [lo, hi).

        Self time of a span is its duration minus the durations of its
        direct children.  A range must hold whole subtrees (a set-up or a
        pass), so that every child of a span in it is in it too.
        """
        hi = len(self.name) if hi is None else hi
        a = {k: v[lo:hi] for k, v in self.arrays().items()}
        dur = a["end"] - a["start"]
        parent = a["parent"] - lo  # negative: opened outside the range
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        name = a["name"]

        def mask(*names):
            m = np.zeros(dur.size, dtype=bool)
            for n in names:
                m |= name == ID[n]
            return m

        def count(*names):
            return int(mask(*names).sum())

        def total(*names):
            return float(dur[mask(*names)].sum())

        def self_total(*names):
            return float(self_t[mask(*names)].sum())

        integ = mask("integrate.integrate_adaptive")
        solves = mask("model.solve_star", "model.solve_scaled")
        # integrations and table builds made directly by a solve
        in_solve = (integ | mask("eos.table_build")) & has_parent & solves[np.maximum(parent, 0)]
        steps = sum(self.solves.get(lo + i, (0, 0))[0] for i in np.flatnonzero(integ))
        n_rhs = sum(self.solves.get(lo + i, (0, 0))[1] for i in np.flatnonzero(integ))
        points = sum(self.points.get(lo + i, 0) for i in np.flatnonzero(mask("model.solve_star")))
        rhs_calls = count("odecore.rhs_tovds_enthalpy", "odecore.rhs_scaled")
        return {
            "eos.table_builds": count("eos.table_build"),
            "eos.table_build_s": total("eos.table_build"),
            "eos.fast_calls": count("eos.omega_rho_P_fast"),
            "eos.fast_s": self_total("eos.omega_rho_P_fast"),
            "eos.direct_calls": count("eos.omega_rho_P"),
            "eos.direct_s": total("eos.omega_rho_P"),
            "eos.u_of_density_calls": count("eos.u_of_density"),
            "eos.u_of_density_s": total("eos.u_of_density"),
            "odecore.rhs_calls": rhs_calls,
            "odecore.rhs_self_s": self_total("odecore.rhs_tovds_enthalpy", "odecore.rhs_scaled"),
            "odecore.guard_rhs_calls": rhs_calls - n_rhs,
            "integrate.calls": int(integ.sum()),
            "integrate.steps": steps,
            "integrate.n_rhs": n_rhs,
            "integrate.self_s": self_total("integrate.integrate_adaptive"),
            "integrate.event_roots": count("integrate.brentq"),
            "integrate.event_s": total("integrate.brentq"),
            "integrate.dense_evals": count("integrate.DenseSolution.__call__"),
            "integrate.dense_eval_s": total("integrate.DenseSolution.__call__"),
            "model.solves": int(solves.sum()),
            "model.solve_s": float(dur[solves].sum()),
            "model.post_s": float(dur[solves].sum() - dur[in_solve].sum()),
            "model.profile_points": points,
            "model.boundary_s": total("model.boundary_quantities"),
            "metric.report_s": total("metric.MetricPatch.from_model", "metric.continuity_report"),
            "analysis.expfit_s": total("analysis.boundary_exponent_fit"),
            "analysis.sweep_self_s": self_total("analysis.regime_sweep"),
            "config.build_s": self_total("config.build_model_input"),
            "trace.spans": hi - lo,
        }
