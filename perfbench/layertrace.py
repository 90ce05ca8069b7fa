"""Per-layer tracing of the mci package from outside the program.

`Tracer.install()` wraps the public functions of each mci module and rebinds
every alias of them across the loaded ``mci.*`` modules by object identity, so
``from .solver import solve_dual`` copies are traced as well.  Modules are
looked up in ``sys.modules`` because the package attribute ``mci.predict`` is
the function of that name, not the module.  Nothing under ``src/`` is edited;
`Tracer.uninstall()` restores every binding it changed.

Spans record self time: a call's duration minus the time of the traced calls
it makes, so the self times of all spans add up to the root span, the
``mci.cli.main`` call.  Counters record calls and elements without a span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# Traced functions: (module, attribute, layer metric of its self time).  A
# function with a metric is timed as a span; one without is only counted.
# Dotted attributes are methods, wrapped on their class.
TARGETS = (
    ("cli", "main", "experiments.self_s"),
    ("experiments", "run_fig1", "experiments.self_s"),
    ("experiments", "run_scaling", "experiments.self_s"),
    ("experiments", "run_audit", "experiments.self_s"),
    ("experiments", "persist", "experiments.persist_s"),
    ("features", "featurize", "features.featurize_s"),
    ("features", "sample_weights", "features.sample_weights_s"),
    ("features", "mean_features", "features.mean_features_s"),
    ("features", "kernel_matrix", "features.kernel_matrix_s"),
    ("solver", "solve_dual", "solver.dual_s"),
    ("solver", "solve_l1", "solver.l1_s"),
    ("solver", "dual_gradient", None),
    ("solver", "dual_objective", None),
    ("penalty", "conjugate", None),
    ("penalty", "link_s", None),
    ("penalty", "link_s_prime", None),
    ("predict", "test_error", "predict.test_error_s"),
    ("predict", "l2_distance", "predict.l2_distance_s"),
    ("predict", "Predictor.predict", "predict.predictor_predict_s"),
    ("predict", "KernelPredictor.predict", "predict.kernel_predict_s"),
    ("audit", "hermite_coefficients", "audit.hermite_s"),
    ("audit", "assumption_report", "audit.assumption_report_s"),
    ("audit", "event_audit", "audit.event_audit_s"),
)

# The layer metrics that partition a sweep's time; the other `_s` metrics are
# parts of these.
SELF_TIME_METRICS = frozenset(metric for _, _, metric in TARGETS if metric)

# Every layer metric, its unit, and the end-to-end metric and workloads it
# should move.
LAYER_METRICS = {
    "features.featurize_s": ("s", "sweep_s on scaling; less on fig1, audit"),
    "features.sample_weights_s": ("s", "sweep_s on scaling; less on fig1, audit"),
    "features.mean_features_s": ("s", "sweep_s on scaling; less on fig1, audit (event_audit)"),
    "features.mean_features_entries": ("count", "sweep_s on scaling; less on fig1, audit"),
    "features.kernel_matrix_s": ("s", "sweep_s on scaling, audit"),
    "solver.dual_s": ("s", "sweep_s on fig1, audit; a little on scaling"),
    "solver.dual_calls": ("count", "sweep_s on fig1, audit, scaling"),
    "solver.dual_iters": ("count", "sweep_s on fig1 (unconverged rows), audit; a little on scaling"),
    "solver.dual_unconverged_s": ("s", "sweep_s on fig1 only: N<n rows that cannot converge"),
    "solver.dual_converged_frac": ("fraction", "sweep_s on fig1 only: share of dual solves that converge"),
    "solver.dual_grad_evals": ("count", "sweep_s on audit; a little on scaling"),
    "solver.dual_obj_evals": ("count", "sweep_s on audit; a little on scaling"),
    "solver.l1_s": ("s", "sweep_s on fig1 only: the p=1 linear program"),
    "solver.l1_calls": ("count", "sweep_s on fig1 only"),
    "solver.l1_infeasible_s": ("s", "sweep_s on fig1 only: LPs of N<n rows, which are infeasible"),
    "penalty.map_calls": ("count", "sweep_s on audit, fig1: penalty maps per Newton step"),
    "penalty.map_elements": ("count", "sweep_s on audit, fig1: penalty maps per Newton step"),
    "predict.test_error_s": ("s", "sweep_s on scaling; less on fig1"),
    "predict.l2_distance_s": ("s", "sweep_s on scaling only"),
    "predict.predictor_predict_s": ("s", "sweep_s and peak_rss_mb on scaling; less on fig1"),
    "predict.kernel_predict_s": ("s", "sweep_s and peak_rss_mb on scaling only"),
    "predict.mc_points": ("count", "sweep_s on scaling; less on fig1: rows predicted"),
    "audit.hermite_s": ("s", "sweep_s on audit only"),
    "audit.assumption_report_s": ("s", "sweep_s on audit only"),
    "audit.event_audit_s": ("s", "sweep_s on audit only"),
    "experiments.rows": ("count", "none: fixed by the workload's grid"),
    "experiments.persist_s": ("s", "sweep_s on fig1, scaling; should stay small"),
    "experiments.self_s": ("s", "sweep_s on every workload; a sweep-engine refactor shows here"),
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Wraps mci functions, keeps spans and counts in memory."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._infeasible: type | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import mci.cli  # noqa: F401  (loads every mci.* module)

        self._infeasible = sys.modules["mci.errors"].Infeasible
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "mci" or name.startswith("mci.")]
        for module_name, attr, metric in TARGETS:
            module = sys.modules[f"mci.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._rebind(cls, meth, self._wrap(name, metric, vars(cls)[meth]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, metric, original)
            for m in loaded:
                for alias, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, alias, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _rebind(self, owner, attr, wrapped) -> None:
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, name: str, metric: str | None, fn):
        record = self._record

        if metric is None:
            def counted(*args, **kwargs):
                record(name, metric, args, kwargs, None, None, 0.0)
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        stack = self._stack
        infeasible = self._infeasible

        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            result, failed = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except infeasible as exc:
                failed = exc
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record(name, metric, args, kwargs, result, failed, elapsed - frame[0])

        spanned.__wrapped__ = fn
        return spanned

    # -- recording ----------------------------------------------------------

    def _record(self, name, metric, args, kwargs, result, failed, self_s) -> None:
        self.calls[name] += 1
        t = self.totals
        if metric is not None:
            t[metric] += self_s
        if name == "features.mean_features":
            t["features.mean_features_entries"] += (np.shape(_arg(args, kwargs, 1, "X"))[0]
                                                    * np.shape(_arg(args, kwargs, 2, "W"))[0])
        elif name == "solver.solve_dual" and result is not None:
            t["solver.dual_calls"] += 1
            t["solver.dual_iters"] += result.iters
            if result.converged:
                t["solver.dual_converged"] += 1
            else:
                t["solver.dual_unconverged_s"] += self_s
        elif name == "solver.solve_l1":
            t["solver.l1_calls"] += 1
            if failed is not None:
                t["solver.l1_infeasible_s"] += self_s
        elif name == "solver.dual_gradient":
            t["solver.dual_grad_evals"] += 1
        elif name == "solver.dual_objective":
            t["solver.dual_obj_evals"] += 1
        elif name.startswith("penalty."):
            t["penalty.map_calls"] += 1
            t["penalty.map_elements"] += np.size(_arg(args, kwargs, 1, "x"))
        elif name in ("predict.Predictor.predict", "predict.KernelPredictor.predict"):
            t["predict.mc_points"] += np.shape(_arg(args, kwargs, 1, "X_test"))[0]
        elif name.startswith("experiments.run_") and result is not None:
            t["experiments.rows"] += len(getattr(result, "rows", ()))

    def metrics(self) -> dict[str, float]:
        """Every layer metric of LAYER_METRICS, as totals since install."""
        t = self.totals
        out = {name: float(t.get(name, 0.0)) for name in LAYER_METRICS}
        calls = t.get("solver.dual_calls", 0.0)
        out["solver.dual_converged_frac"] = t.get("solver.dual_converged", 0.0) / calls if calls else 0.0
        return out
