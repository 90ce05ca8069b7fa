"""The tracer catches every listed function and leaves the outputs unchanged.

Runs a tiny config of each benchmark workload through `mci.cli.main`, once
untraced and once traced, in this process.
"""

import json
import time

import pytest

import mci.experiments as experiments
from layertrace import LAYER_METRICS, SELF_TIME_METRICS, TARGETS, Tracer
from workloads import strip_timing

TINY = {
    "fig1": {"d": 5, "n": 12, "p_list": [1.0, 1.5, 2.0], "N_list": [8, 32, 64], "seeds": [0],
             "M_test": 1000, "solver": {"max_iters": 20}},
    "scaling": {"d": 5, "n": 12, "p_list": [1.5, 2.0], "N_list": [32, 64], "seeds": [0],
                "M_test": 1000, "N_ref": 256},
    "audit": {"d": 5, "n": 12, "p_list": [1.5], "N_list": [128], "seeds": [0],
              "M_test": 1000, "N_ref": 512, "m_max": 8, "quad_order": 60},
}

COMMON = {"cli.main", "features.featurize", "features.sample_weights", "features.mean_features",
          "solver.solve_dual", "solver.dual_gradient", "solver.dual_objective",
          "penalty.conjugate", "penalty.link_s", "penalty.link_s_prime"}
USES = {
    "fig1": COMMON | {"experiments.run_fig1", "experiments.persist", "solver.solve_l1",
                      "predict.test_error", "predict.Predictor.predict"},
    "scaling": COMMON | {"experiments.run_scaling", "experiments.persist", "features.kernel_matrix",
                         "predict.test_error", "predict.l2_distance", "predict.Predictor.predict",
                         "predict.KernelPredictor.predict"},
    "audit": COMMON | {"experiments.run_audit", "features.kernel_matrix", "audit.hermite_coefficients",
                       "audit.assumption_report", "audit.event_audit"},
}


def test_every_target_is_used_by_a_workload():
    assert set().union(*USES.values()) == {f"{module}.{attr}" for module, attr, _ in TARGETS}


def _run(command, config_path, out):
    from mci.cli import main  # looked up per call: the traced binding while tracing

    return main([command, "--config", str(config_path), "--out", str(out)])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_counts_calls_and_keeps_outputs(workload, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY[workload]))
    plain_code = _run(workload, cfg, tmp_path / "plain")

    originals = {name: getattr(experiments, name) for name in ("solve_dual", "test_error", "featurize")}
    tracer = Tracer()
    tracer.install()
    try:
        assert experiments.solve_dual is not originals["solve_dual"]
        t0 = time.perf_counter()
        traced_code = _run(workload, cfg, tmp_path / "traced")
        elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(experiments, name) is fn

    assert traced_code == plain_code
    missing = sorted(name for name in USES[workload] if tracer.calls[name] < 1)
    assert not missing, f"no calls recorded for {missing}"
    assert strip_timing(tmp_path / "traced", workload) == strip_timing(tmp_path / "plain", workload)

    metrics = tracer.metrics()
    assert set(metrics) == set(LAYER_METRICS)
    self_sum = sum(metrics[m] for m in SELF_TIME_METRICS)
    assert 0.95 * elapsed <= self_sum <= elapsed
