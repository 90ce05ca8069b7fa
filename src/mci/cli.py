"""Command-line front end.

Subcommands: `mci solve | fig1 | scaling | latent | audit`.  A JSON config
file supplies any subset of the experiment fields; `--set key=value` overrides
individual entries (nested solver options as `solver.max_iters=100`).  Exit
codes: 0 on success, 2 when any row-level solve failed or an audit's
event-budget solve did not converge (results are still written), 1 on a fatal
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import MciError
from .experiments import (
    AUDIT,
    FIG1,
    LATENT,
    SCALING,
    SOLVE,
    ExperimentConfig,
    ExperimentResult,
    persist,
    run_audit,
    run_fig1,
    run_latent,
    run_scaling,
)
from .features import featurize, sample_data, sample_weights, save_matrix_csv
from .penalty import PenaltySpec
from .solver import fit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mci",
        description="Minimum-complexity interpolation in random-features models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        (SOLVE, "solve a single sampled instance and print a JSON summary"),
        (FIG1, "test error versus width for each penalty exponent"),
        (SCALING, "distance to the infinite-width reference versus width"),
        (LATENT, "scaling study for the noisy linear feature map"),
        (AUDIT, "assumption audits and the event budget, as one JSON document"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="rebase the seed list")
        p.add_argument("--threads", type=int, default=None, help="worker threads over seeds")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field (repeatable)",
        )
        if name == SOLVE:
            p.add_argument("--p", type=float, default=2.0, help="penalty exponent")
            p.add_argument("--N", type=int, default=None, help="width (default: largest in config)")
            p.add_argument(
                "--dump-matrices",
                action="store_true",
                help="write X, y, W, Phi, and the solution vectors as CSV",
            )
    return parser


def _load_config(args) -> ExperimentConfig:
    raw = {}
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text())
    cfg = ExperimentConfig.from_dict(raw)
    if args.overrides:
        cfg = cfg.with_overrides(args.overrides)
    # replace() reruns the config's checks on the flag values.
    flags = {}
    if args.seed is not None:
        flags["seeds"] = [args.seed + i for i in range(len(cfg.seeds))]
    if args.threads is not None:
        flags["threads"] = args.threads
    if args.out is not None:
        flags["output_path"] = str(args.out)
    return dataclasses.replace(cfg, **flags)


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seeds[0]
    N = cfg.N_list[-1] if args.N is None else args.N
    spec, ds = cfg.feature_spec(), cfg.data_spec()
    inst = sample_data(ds, cfg.n, seed)
    W = sample_weights(spec, cfg.d, N, seed)
    Phi = featurize(spec, inst.X, W, seed=seed)

    t0 = time.perf_counter()
    res = fit(Phi, inst.y, PenaltySpec.pnorm(args.p), cfg.solver)
    wall_ms = (time.perf_counter() - t0) * 1e3
    summary = {
        "p": args.p,
        "status": res.status,
        "converged": res.converged,
        "iters": res.iters,
        "objective_primal": res.objective_primal,
        "residual": res.residual,
        "support": None if res.a is None else int(np.sum(res.a != 0)),
        "objective_dual": res.objective_dual,
        "grad_norm": None if res.lambda_hat is None else res.residual,
        "wall_ms": wall_ms,
        "n": cfg.n,
        "N": N,
        "seed": seed,
    }
    # Strict JSON: a non-finite number prints as null, as a key that does not apply.
    summary = {k: None if isinstance(v, float) and not np.isfinite(v) else v
               for k, v in summary.items()}
    text = json.dumps(summary, indent=2, allow_nan=False)
    if cfg.output_path:
        out = Path(cfg.output_path)
        out.mkdir(parents=True, exist_ok=True)
        (out / "solve.json").write_text(text)
        if args.dump_matrices:
            save_matrix_csv(out / "X.csv", inst.X)
            save_matrix_csv(out / "y.csv", inst.y)
            save_matrix_csv(out / "W.csv", W)
            save_matrix_csv(out / "Phi.csv", Phi)
            if res.a is not None:
                save_matrix_csv(out / "a.csv", res.a)
            if res.lambda_hat is not None:
                save_matrix_csv(out / "lambda.csv", res.lambda_hat)
    print(text)
    return 0 if summary["converged"] else 2


def _cmd_experiment(args, experiment: str) -> int:
    cfg = _load_config(args)
    runner = {FIG1: run_fig1, SCALING: run_scaling, LATENT: run_latent}[experiment]
    result: ExperimentResult = runner(cfg)
    out = Path(cfg.output_path) if cfg.output_path else Path(f"mci_{experiment}_out")
    persist(result, out)
    print(json.dumps({"rows": len(result.rows), "out": str(out),
                      "aggregates": result.aggregates}, indent=2, default=str))
    return 2 if result.any_row_failed else 0


def _cmd_audit(args) -> int:
    cfg = _load_config(args)
    doc = run_audit(cfg)
    out = Path(cfg.output_path) if cfg.output_path else Path("mci_audit_out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "audit.json").write_text(json.dumps(doc, indent=2, default=str))
    print(json.dumps(doc, indent=2, default=str))
    return 2 if "error" in doc.get("event_budget", {}) else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == SOLVE:
            return _cmd_solve(args)
        if args.command == AUDIT:
            return _cmd_audit(args)
        return _cmd_experiment(args, args.command)
    except (MciError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
