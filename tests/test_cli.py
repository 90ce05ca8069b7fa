"""Command-line interface: subcommands, config handling, outputs, exit codes."""

import json

import numpy as np
import pytest

from mci.cli import main
from mci.experiments import CSV_COLUMNS, load


def _write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return path


def test_solve_prints_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, d=5, n=12, N_list=[64], seeds=[3])
    code = main(["solve", "--config", str(cfg), "--p", "1.5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["converged"] and out["p"] == 1.5 and out["N"] == 64
    assert out["grad_norm"] <= 1e-6


def test_solve_l1_path(tmp_path, capsys):
    cfg = _write_config(tmp_path, d=5, n=8, N_list=[64], seeds=[1])
    code = main(["solve", "--config", str(cfg), "--p", "1.0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["support"] <= 8
    assert out["residual"] <= 1e-7


def test_solve_infeasible_is_a_status(tmp_path, capsys):
    # N < n: the l1 fit ends with status "infeasible" and exit code 2.
    cfg = _write_config(tmp_path, d=5, n=16, N_list=[8], seeds=[0])
    code = main(["solve", "--config", str(cfg), "--p", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "infeasible" and not out["converged"] and out["iters"] == 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("p", ["1", "1.5"])
def test_solve_prints_strict_json(tmp_path, capsys, p):
    # N < n: no interpolant, so the primal objective is null and the residual
    # is dist(y, range Phi), read back from the dumped matrices.
    cfg = _write_config(tmp_path, d=5, n=16, N_list=[8], seeds=[0])
    out_dir = tmp_path / "dump"
    code = main(["solve", "--config", str(cfg), "--p", p, "--out", str(out_dir), "--dump-matrices"])
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 2 and out["status"] == "infeasible" and out["objective_primal"] is None
    assert json.loads((out_dir / "solve.json").read_text(), parse_constant=_reject_constant) == out
    Phi = np.loadtxt(out_dir / "Phi.csv", delimiter=",")
    y = np.loadtxt(out_dir / "y.csv", delimiter=",")
    Q, _ = np.linalg.qr(Phi)
    assert out["residual"] == pytest.approx(np.linalg.norm(y - Q @ (Q.T @ y)), rel=1e-10)


@pytest.mark.parametrize("source", ["set", "config"])
def test_solve_writes_under_output_path(tmp_path, capsys, source):
    # --set output_path and a config file's output_path work as --out does.
    out_dir = tmp_path / "solve_out"
    fields = dict(d=5, n=12, N_list=[32], seeds=[0])
    if source == "config":
        fields["output_path"] = str(out_dir)
    cfg = _write_config(tmp_path, **fields)
    argv = ["solve", "--config", str(cfg)]
    if source == "set":
        argv += ["--set", f"output_path={out_dir}"]
    code = main(argv)
    assert code == 0
    assert json.loads((out_dir / "solve.json").read_text()) == json.loads(capsys.readouterr().out)


def test_solve_zero_width_exit_code(tmp_path, capsys):
    # --N 0 is a bad width, not a request for the widest one.
    cfg = _write_config(tmp_path, d=5, n=12, N_list=[32], seeds=[0])
    code = main(["solve", "--config", str(cfg), "--N", "0"])
    assert code == 1
    assert "N=0" in capsys.readouterr().err


def test_solve_dump_matrices(tmp_path, capsys):
    cfg = _write_config(tmp_path, d=4, n=6, N_list=[32], seeds=[0])
    out_dir = tmp_path / "dump"
    code = main([
        "solve", "--config", str(cfg), "--p", "2.0",
        "--out", str(out_dir), "--dump-matrices",
    ])
    assert code == 0
    for name in ("X.csv", "y.csv", "W.csv", "Phi.csv", "a.csv", "lambda.csv", "solve.json"):
        assert (out_dir / name).exists()
    first = (out_dir / "Phi.csv").read_text().splitlines()[0]
    assert len(first.split(",")) == 32


def test_fig1_writes_rows_and_summary(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, d=5, n=12, p_list=[1.5, 2.0], N_list=[32, 64], seeds=[0, 1], M_test=1_000
    )
    out_dir = tmp_path / "fig1_out"
    code = main(["fig1", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    result = load(out_dir)
    assert len(result.rows) == 2 * 2 * 2
    header = (out_dir / "rows.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["n"] == 12  # resolved config embedded
    assert summary["aggregates"]


def test_set_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path, d=5, n=12, p_list=[2.0], N_list=[32, 64], seeds=[0], M_test=1_000)
    out_dir = tmp_path / "ov_out"
    code = main([
        "fig1", "--config", str(cfg), "--out", str(out_dir),
        "--set", "n=10", "--set", "N_list=[16,32]",
    ])
    assert code == 0
    result = load(out_dir)
    assert {r.N for r in result.rows} == {16, 32}
    assert all(r.n == 10 for r in result.rows)


def test_seed_rebases_list(tmp_path, capsys):
    cfg = _write_config(tmp_path, d=5, n=12, p_list=[2.0], N_list=[32], seeds=[0, 1], M_test=1_000)
    out_dir = tmp_path / "seed_out"
    code = main(["fig1", "--config", str(cfg), "--out", str(out_dir), "--seed", "100"])
    assert code == 0
    assert {r.seed for r in load(out_dir).rows} == {100, 101}


def test_row_failure_exit_code(tmp_path, capsys):
    # N < n rows are certified infeasible: rows still written, exit code 2.
    cfg = _write_config(tmp_path, d=5, n=16, p_list=[2.0], N_list=[8], seeds=[0], M_test=1_000)
    out_dir = tmp_path / "fail_out"
    code = main(["fig1", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    result = load(out_dir)
    assert len(result.rows) == 1 and not result.rows[0].converged


def test_audit_writes_json(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, d=5, n=12, p_list=[1.5], N_list=[128], seeds=[0], gamma=1.0,
        activation="identity", target_activation="identity",
        M_test=1_000, N_ref=512, m_max=8, quad_order=60,
    )
    out_dir = tmp_path / "audit_out"
    code = main(["audit", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    doc = json.loads((out_dir / "audit.json").read_text())
    assert "hermite" in doc and "event_budget" in doc


def test_audit_unconverged_event_budget_exit_code(tmp_path, capsys):
    # One Newton iteration cannot converge: audit.json is still written, with
    # the reason in event_budget, and the exit code is 2.
    cfg = _write_config(
        tmp_path, d=5, n=12, p_list=[1.5], N_list=[256], seeds=[0], M_test=1_000, N_ref=1024,
        m_max=8, quad_order=60, solver={"max_iters": 1},
    )
    out_dir = tmp_path / "audit_out"
    code = main(["audit", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    doc = json.loads((out_dir / "audit.json").read_text())
    assert "max_iters" in doc["event_budget"]["error"]


def test_too_few_test_points_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, d=5, n=12, p_list=[1.5], N_list=[64], seeds=[0], M_test=50)
    code = main(["fig1", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "M_test" in capsys.readouterr().err


def test_fatal_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["fig1", "--config", str(bad)])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [["solver.foo=1"], ["solver=3"], ["solver=3", "solver.max_iters=1"], ["solver.max_iters=1.5"],
     ["n=abc"], ["M_test=abc"], ["N_list=64"], ["seeds=3"], ['gamma="x"'], ['threads="2"'],
     ["seeds=[-1]"], ["target_seed=-2"], ["threads=-3"]],
)
def test_bad_solver_block_exit_code(capsys, overrides):
    sets = [arg for item in overrides for arg in ("--set", item)]
    code = main(["solve", "--set", "n=12", "--set", "d=5", "--N", "32", *sets])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_negative_seed_flag_exit_code(capsys):
    # --seed is applied after the config is built; it must pass the same checks.
    code = main(["solve", "--set", "n=12", "--set", "d=5", "--N", "32", "--seed", "-1"])
    assert code == 1
    assert "field seeds must be non-negative, not -1" in capsys.readouterr().err


def test_nonpositive_threads_flag_exit_code(capsys):
    # --threads is applied after the config is built; it must pass the same checks.
    code = main(["solve", "--set", "n=12", "--set", "d=5", "--N", "32", "--threads", "-3"])
    assert code == 1
    assert "field threads must be >= 1, not -3" in capsys.readouterr().err


def test_scaling_cli(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, d=5, n=12, p_list=[2.0], N_list=[32, 64, 128], seeds=[0],
        M_test=1_000, N_ref=256,
    )
    out_dir = tmp_path / "scaling_out"
    code = main(["scaling", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert "slopes" in summary["extras"]


def test_scaling_without_a_slope_writes_rows(tmp_path, capsys):
    # p = 1.5 converges only at N = 64 (16 and 32 are below n = 40): no slope,
    # but the rows are written and the run exits 2, not 1.
    cfg = _write_config(
        tmp_path, d=10, n=40, p_list=[1.5], N_list=[16, 32, 64], seeds=[0], M_test=200,
        N_ref=512,
    )
    out_dir = tmp_path / "out"
    code = main(["scaling", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    rows = load(out_dir).rows
    assert [(r.N, r.converged) for r in rows] == [(16, False), (32, False), (64, True)]
    slopes = json.loads((out_dir / "summary.json").read_text())["extras"]["slopes"]
    assert slopes["p=1.5"]["slope"] is None and slopes["p=1.5"]["reason"]


def test_scaling_reference_failure_exit_code(tmp_path, capsys):
    # N_ref < n: the p = 1.5 reference is infeasible, a fatal error.
    cfg = _write_config(
        tmp_path, d=5, n=12, p_list=[1.5], N_list=[32, 64], seeds=[0], M_test=1_000, N_ref=8,
    )
    code = main(["scaling", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "reference solve" in err and "infeasible" in err


def test_latent_cli(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, d=5, n=12, p_list=[2.0], N_list=[32, 64], seeds=[0], gamma=1.0,
        activation="identity", target_activation="identity", M_test=1_000, N_ref=256,
    )
    out_dir = tmp_path / "latent_out"
    code = main(["latent", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert "noise_residuals" in summary["extras"]
