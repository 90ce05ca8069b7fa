"""Experiment orchestration, row persistence, and aggregation.

Each experiment expands a config into rows keyed by (p, N, seed), runs the
appropriate solver per row, and aggregates means with 95% confidence
intervals over seeds.  Rows are persisted as CSV (17-significant-digit
decimals) and aggregates/config/extras as JSON; a persisted run loads back
verbatim.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import typing
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .audit import (
    SolvedModel,
    as_json_dict,
    assumption_report,
    event_audit,
    hermite_coefficients,
    hermite_condition_check,
)
from .features import (
    ARC_COSINE,
    GAUSSIAN_ISOTROPIC,
    IDENTITY,
    LATENT_LINEAR,
    MONTE_CARLO,
    RELU,
    DataSpec,
    FeatureSpec,
    Instance,
    RidgeTarget,
    featurize,
    kernel_matrix,
    sample_covariates,
    sample_data,
    sample_weights,
)
from .penalty import PenaltySpec
from .predict import Predictor, kernel_interpolant, l2_distance, test_error
from .seeding import derive_seed as derived_seed
from .solver import SolverOptions, _range_split, fit, solve_dual

FIG1 = "fig1"
SCALING = "scaling"
LATENT = "latent"
AUDIT = "audit"
SOLVE = "solve"


def _is_instance(value, hint) -> bool:
    """isinstance against a field annotation: a list[T] checks every item, int
    and float take any integral or real number (bool is neither)."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_is_instance(v, item) for v in value)
    hint = {int: numbers.Integral, float: numbers.Real}.get(hint, hint)
    return isinstance(value, hint) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """Fully-resolved experiment parameters; defaults follow the headline sweep
    (d = 30, n = 150, 20 seeds, p in {1, 1.25, 1.5, 2}, N = 2^6 .. 2^13)."""

    d: int = 30
    n: int = 150
    p_list: list[float] = field(default_factory=lambda: [1.0, 1.25, 1.5, 2.0])
    N_list: list[int] = field(default_factory=lambda: [2**k for k in range(6, 14)])
    seeds: list[int] = field(default_factory=lambda: list(range(20)))
    gamma: float = 0.0
    activation: str = RELU
    weight_dist: str = GAUSSIAN_ISOTROPIC
    target_activation: str = RELU
    target_seed: int = 0
    M_test: int = 20_000
    N_ref: int = 2**14
    m_max: int = 20
    quad_order: int = 80
    eta: float = 0.1
    C0: float = 1.0
    solver: SolverOptions = field(default_factory=SolverOptions)
    output_path: str = ""
    threads: int = 1

    def __post_init__(self):
        hints = typing.get_type_hints(ExperimentConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_instance(value, hints[f.name]):
                raise ValueError(f"config field {f.name} must be {f.type}, not {value!r}")
        if not self.p_list or not self.N_list or not self.seeds:
            raise ValueError("p_list, N_list, and seeds must be nonempty")
        for name, seeds in (("seeds", self.seeds), ("target_seed", [self.target_seed])):
            if any(seed < 0 for seed in seeds):
                raise ValueError(f"config field {name} must be non-negative, not {min(seeds)}")
        if self.threads < 1:
            raise ValueError(f"config field threads must be >= 1, not {self.threads}")
        if list(self.N_list) != sorted(self.N_list):
            raise ValueError("N_list must be sorted ascending")
        if self.M_test < 100:
            raise ValueError("M_test must be at least 100 Monte Carlo points")

    def feature_spec(self) -> FeatureSpec:
        return FeatureSpec(
            activation=self.activation,
            weight_dist=self.weight_dist,
            noise_gamma=self.gamma,
        )

    def data_spec(self) -> DataSpec:
        target = RidgeTarget.random(self.d, self.target_seed, self.target_activation)
        return DataSpec(d=self.d, target=target)

    def to_dict(self) -> dict:
        out = asdict(self)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        raw = dict(raw)
        solver = raw.get("solver", SolverOptions())
        if isinstance(solver, dict):
            unknown = set(solver) - {f.name for f in fields(SolverOptions)}
            if unknown:
                raise ValueError(f"unknown solver keys: {sorted(unknown)}")
            raw["solver"] = SolverOptions(**solver)
        elif not isinstance(solver, SolverOptions):
            raise ValueError(f"solver must be a dict of solver options, not {solver!r}")
        return cls(**raw)

    def with_overrides(self, assignments: list[str]) -> "ExperimentConfig":
        """Apply `key=value` overrides; values parse as JSON, else strings."""
        raw = self.to_dict()
        for item in assignments:
            key, _, value = item.partition("=")
            if not _:
                raise ValueError(f"override {item!r} is not of the form key=value")
            try:
                parsed = json.loads(value)
            except json.JSONDecodeError:
                parsed = value
            if key.startswith("solver."):
                if not isinstance(raw["solver"], dict):
                    raise ValueError(f"solver must be a dict of solver options, not {raw['solver']!r}")
                raw["solver"][key.split(".", 1)[1]] = parsed
            else:
                raw[key] = parsed
        return ExperimentConfig.from_dict(raw)


@dataclass
class Row:
    experiment: str
    p: float
    n: int
    N: int
    seed: int
    test_error: float
    l2_to_ref: float
    solver_iters: int
    converged: bool
    wall_ms: float


# The rows.csv schema: Row's fields, in order, each parsed by its annotation.
CSV_COLUMNS = tuple(f.name for f in fields(Row))
_ROW_TYPES = typing.get_type_hints(Row)


@dataclass
class ExperimentResult:
    rows: list[Row]
    aggregates: dict
    config: dict
    extras: dict = field(default_factory=dict)

    @property
    def any_row_failed(self) -> bool:
        return any(not r.converged for r in self.rows)


def aggregate(rows: list[Row]) -> dict:
    """Group rows by (experiment, p, n, N); mean and 1.96 sd / sqrt(k) CIs."""
    groups: dict[tuple, list[Row]] = {}
    for r in rows:
        groups.setdefault((r.experiment, r.p, r.n, r.N), []).append(r)
    out = {}
    for (exp, p, n, N), rs in sorted(groups.items()):
        te = np.array([r.test_error for r in rs])
        l2 = np.array([r.l2_to_ref for r in rs])
        k = len(rs)

        def _ci(vals: np.ndarray) -> float:
            vals = vals[np.isfinite(vals)]
            if vals.size < 2:
                return 0.0
            return float(1.96 * np.std(vals, ddof=1) / math.sqrt(vals.size))

        out[f"{exp}|p={p:g}|n={n}|N={N}"] = {
            "experiment": exp,
            "p": p,
            "n": n,
            "N": N,
            "n_seeds": k,
            "test_error_mean": float(np.nanmean(te)) if np.any(np.isfinite(te)) else math.nan,
            "test_error_ci95": _ci(te),
            "l2_to_ref_mean": float(np.nanmean(l2)) if np.any(np.isfinite(l2)) else math.nan,
            "l2_to_ref_ci95": _ci(l2),
            "all_converged": all(r.converged for r in rs),
        }
    return out


# ---------------------------------------------------------------------------
# Row solvers
# ---------------------------------------------------------------------------

def _references(cfg: ExperimentConfig, spec: FeatureSpec, inst: Instance, seed: int,
                X_test: np.ndarray) -> tuple[dict, dict, dict]:
    """Width->infinity surrogate of every p, predicted on `X_test`: a solve at
    width N_ref, or the kernel interpolant when p = 2.

    Returns ({p: values on X_test}, {p: noise term}, {p: failure reason}).
    The noise term is the population side E[z s(<phi, lam>)] of the exact-fit
    noise identity: estimated from the reference solve's own noise matrix,
    or gamma^2 K^{-1} y in closed form for p = 2.  The solved references
    share one draw W_ref, one featurization and one range split.  A
    reference fit that does not converge is left out, with its status as the
    reason.  The dense references (p > 1) are predicted in one stacked pass;
    a p = 1 reference, at most n nonzeros, is predicted on its support,
    apart from that stack.
    """
    values, noise, failed, models = {}, {}, {}, {}
    solved = [p for p in cfg.p_list if p != 2.0]
    if solved:
        ref_seed = derived_seed(seed, "reference")
        W_ref = sample_weights(spec, cfg.d, cfg.N_ref, ref_seed)
        Phi_ref, Z_ref = featurize(spec, inst.X, W_ref, seed=ref_seed, return_noise=True)
        split = _range_split(Phi_ref, inst.y)
        for p in solved:
            ref = fit(Phi_ref, inst.y, PenaltySpec.pnorm(p), cfg.solver, _split=split)
            if not ref.converged:
                failed[p] = f"reference solve ended {ref.status} (p={p}, N_ref={cfg.N_ref})"
                continue
            models[p] = ref.a
            noise[p] = np.zeros(inst.n) if Z_ref is None else Z_ref @ ref.a / cfg.N_ref
        del Phi_ref, Z_ref  # 20 MB at N_ref = 16384
    # The kernel reference comes between the fits and their prediction
    # passes: Phi_ref is freed, and the passes' 8 MB float32 chunks have not
    # yet grown the heap, so its M_test x n cross kernel adds least to peak
    # memory.  On 2 vCPUs (OpenBLAS) a default `mci scaling` seed peaks at
    # about 80 MB so, 74.7 MB with the kernel first and 86.3 MB with it
    # last; the scaling benchmark at 65.9, 68.4 and 65.9 MB.
    if 2.0 in cfg.p_list:
        oracle = kernel_matrix(spec, inst.X, method=_closed_form_method(spec),
                               seed=derived_seed(seed, "kernel"))
        ref = kernel_interpolant(oracle, inst.y)
        values[2.0], noise[2.0] = ref.predict(X_test), cfg.gamma**2 * ref.coeffs
    dense = [p for p in solved if p != 1.0]
    if any(p in models for p in dense):
        # One column per dense p of the config, zero where its fit failed, so
        # the product's shape, and with it each column's float32 rounding,
        # does not depend on which fits converged.  A single column stays a
        # vector, as one model is predicted on its own.
        A = np.zeros((cfg.N_ref, len(dense)))
        for c, p in enumerate(dense):
            if p in models:
                A[:, c] = models[p]
        a = A[:, 0] if len(dense) == 1 else A
        stacked = Predictor(W=W_ref, a=a, spec=spec).predict(X_test).reshape(len(X_test), -1)
        values.update((p, col) for p, col in zip(dense, stacked.T) if p in models)
    if 1.0 in models:
        values[1.0] = Predictor(W=W_ref, a=models[1.0], spec=spec).predict(X_test)
    return values, noise, failed


def _closed_form_method(spec: FeatureSpec) -> str:
    if spec.activation == RELU and spec.weight_dist == GAUSSIAN_ISOTROPIC:
        return ARC_COSINE
    if spec.activation == IDENTITY:
        return LATENT_LINEAR
    return MONTE_CARLO


def _map_seeds(fn, seeds: list[int], threads: int):
    """[fn(s) for s in seeds], run on `threads` threads when threads > 1.

    The first seed to raise, whatever its place in `seeds`, cancels the seeds
    still queued; its error propagates once the running seeds return.
    """
    if threads <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futures = [ex.submit(fn, s) for s in seeds]
        try:
            for f in as_completed(futures):
                f.result()
        except BaseException:
            ex.shutdown(cancel_futures=True)
            raise
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _sweep(cfg: ExperimentConfig, experiment: str) -> tuple[list[Row], dict]:
    """The per-seed engine of the fig1, scaling and latent studies.

    Per seed the test batch is drawn once, the weights are drawn once at the
    largest width and each width takes a prefix (the weight draw is
    prefix-nested), and the references (scaling and latent only) are solved
    and predicted once (see `_references`).  Nothing but the penalty depends
    on p, so each width is featurized and range-split (`_range_split`) once,
    and every p's fit takes that split.  The seed fits all of its rows first;
    one pass over the widest draw then predicts every converged model, and
    each model's value column feeds both `test_error` and `l2_distance`.
    `wall_ms` is the row's fit time; the first row of each width also carries
    that width's split, so the rows of a width still sum to all of its fit
    work.  Every fit ends in a status and the sweep continues; only rows
    whose fit converged are predicted and scored, the others carry nan
    `test_error` and `l2_to_ref`.  A reference that does not converge makes
    every row of its (seed, p) unconverged in the same way, and its reason is
    kept under `reference_failed` in the extras.
    """
    spec, ds = cfg.feature_spec(), cfg.data_spec()

    def per_seed(seed: int) -> tuple[list[Row], float, dict, dict]:
        inst = sample_data(ds, cfg.n, seed)
        test_seed = derived_seed(seed, "test")
        X_test = sample_covariates(ds, cfg.M_test, test_seed)
        y_test = ds.target(X_test)
        ref_values, ref_noise, ref_failed = {}, {}, {}
        if experiment != FIG1:
            ref_values, ref_noise, ref_failed = _references(cfg, spec, inst, seed, X_test)
        N_max = cfg.N_list[-1]
        W_max = sample_weights(spec, cfg.d, N_max, seed)
        fits, residuals = [], {}
        for N in cfg.N_list:
            Phi, Z = featurize(spec, inst.X, W_max[:N], seed=seed, return_noise=True)
            t0 = time.perf_counter()
            split = _range_split(Phi, inst.y)
            split_ms = (time.perf_counter() - t0) * 1e3
            for p in cfg.p_list:
                t0 = time.perf_counter()
                res = fit(Phi, inst.y, PenaltySpec.pnorm(p), cfg.solver, _split=split)
                wall = (time.perf_counter() - t0) * 1e3 + split_ms
                split_ms = 0.0  # charged to the width's first row only
                ok = res.converged and p not in ref_failed
                fits.append((p, N, res, ok, wall))
                if experiment == LATENT and ok and p > 1:
                    # || (1/N) Z a - E[z s(<phi, lam>)] ||_2, the exact-fit noise identity
                    residuals[(p, N)] = float(np.linalg.norm(Z @ res.a / N - ref_noise[p]))
        # A width-N model is the column (N_max / N) a of a model on W_max,
        # zero-padded below N, so one pass predicts every converged model.
        converged = [(N, res.a) for _, N, res, ok, _ in fits if ok]
        A = np.zeros((N_max, len(converged)))
        for c, (N, a) in enumerate(converged):
            A[:N, c] = (N_max / N) * a
        columns = iter(Predictor(W=W_max, a=A, spec=spec).predict(X_test).T if converged else ())
        rows = []
        for p, N, res, ok, wall in fits:
            te = dist = math.nan
            if ok:
                values = next(columns)
                te = test_error(values, ds, cfg.M_test, test_seed, X_test, y_test)
                if ref_values:
                    dist, _ = l2_distance(values, ref_values[p], ds, cfg.M_test, test_seed, X_test)
            rows.append(Row(experiment, p, cfg.n, N, seed, te, dist, res.iters, ok, wall))
        return rows, float(np.linalg.svd(inst.X, compute_uv=False)[-1]), residuals, ref_failed

    results = _map_seeds(per_seed, cfg.seeds, cfg.threads)
    rows = sorted((r for chunk, *_ in results for r in chunk), key=lambda r: (r.p, r.N, r.seed))
    noise_residuals = {}
    for p in cfg.p_list:
        for N in cfg.N_list:
            vals = [res[(p, N)] for _, _, res, _ in results if (p, N) in res]
            if vals:
                noise_residuals[f"p={p:g}|N={N}"] = vals
    sigma_min = {str(seed): smin for seed, (_, smin, _, _) in zip(cfg.seeds, results)}
    extras = {"noise_residuals": noise_residuals, "sigma_min": sigma_min}
    reference_failed = {f"seed={seed}|p={p:g}": reason
                        for seed, (*_, failed) in zip(cfg.seeds, results)
                        for p, reason in failed.items()}
    if reference_failed:
        extras["reference_failed"] = reference_failed
    return rows, extras


def run_fig1(cfg: ExperimentConfig) -> ExperimentResult:
    """Test error versus width for each penalty exponent; solver failures are
    recorded per row and the sweep continues."""
    rows, _ = _sweep(cfg, FIG1)
    return ExperimentResult(rows=rows, aggregates=aggregate(rows), config=cfg.to_dict())


def _fit_slopes(rows: list[Row]) -> dict:
    """Least-squares log-log slope of mean distance versus N, per p, over the
    widths with a finite distance (a converged row).  A p with fewer than two
    such widths gets slope None and a stated reason; the run still completes."""
    slopes = {}
    by_p: dict[float, dict[int, list[float]]] = {}
    for r in rows:
        groups = by_p.setdefault(r.p, {})
        if math.isfinite(r.l2_to_ref):
            groups.setdefault(r.N, []).append(r.l2_to_ref)
    for p, groups in by_p.items():
        Ns = sorted(groups)
        means = np.array([np.mean(groups[N]) for N in Ns])
        report = {"slope": None, "intercept": None, "N": Ns, "mean_l2": means.tolist()}
        if len(Ns) < 2:
            report["reason"] = (f"{len(Ns)} width(s) with a converged row; "
                                "a log-log slope needs at least two")
        else:
            coef = np.polyfit(np.log(Ns), np.log(means), 1)
            report.update(slope=float(coef[0]), intercept=float(coef[1]))
        slopes[f"p={p:g}"] = report
    return slopes


def run_scaling(cfg: ExperimentConfig) -> ExperimentResult:
    """Distance to the width->infinity reference as a function of N, with a
    fitted log-log slope per penalty exponent."""
    if len(cfg.N_list) < 2:
        raise ValueError("scaling study needs at least two widths (slope undefined)")
    rows, extras = _sweep(cfg, SCALING)
    extras["slopes"] = _fit_slopes(rows)
    return ExperimentResult(rows=rows, aggregates=aggregate(rows), config=cfg.to_dict(), extras=extras)


def run_latent(cfg: ExperimentConfig) -> ExperimentResult:
    """Scaling study for the noisy linear feature map phi = <x, w> + z.

    Requires the identity activation with gamma > 0 (gamma = 0 makes the
    kernel rank deficient whenever n > d).  Also reports the exact-fit noise
    residual and the sigma_min(X) gate for the trend assertion.
    """
    if cfg.activation != IDENTITY or cfg.gamma <= 0:
        raise ValueError("latent study needs activation='identity' and gamma > 0")
    if len(cfg.N_list) < 2:
        raise ValueError("latent study needs at least two widths")
    rows, extras = _sweep(cfg, LATENT)
    extras["slopes"] = _fit_slopes(rows)
    smins = np.array(list(extras["sigma_min"].values()))
    c0 = float(np.min(smins) / math.sqrt(cfg.n))
    extras["c0"] = c0
    extras["lemma_gate_ok"] = bool(cfg.n >= 2 * cfg.d / max(c0, 1e-300) ** 2)
    extras["noise_residuals"] = {
        k: {"mean": float(np.mean(v)), "values": v} for k, v in extras["noise_residuals"].items()
    }
    return ExperimentResult(rows=rows, aggregates=aggregate(rows), config=cfg.to_dict(), extras=extras)


def run_audit(cfg: ExperimentConfig) -> dict:
    """One JSON document with the Hermite profile, assumption proxies, and the
    event budget of a finite-vs-reference pair on the configured instance."""
    spec, ds = cfg.feature_spec(), cfg.data_spec()
    seed = cfg.seeds[0]
    inst = sample_data(ds, cfg.n, seed)

    profile = hermite_coefficients(cfg.activation, cfg.m_max, max(cfg.quad_order, 2 * cfg.m_max + 20))
    condition = hermite_condition_check(profile, ell=1, C0=cfg.C0)

    method = _closed_form_method(spec)
    oracle = kernel_matrix(spec, inst.X, method=method, seed=derived_seed(seed, "kernel"))
    report = assumption_report(spec, inst, oracle, n_samples=20_000, eta=cfg.eta,
                               directions=128, seed=derived_seed(seed, "directions"))

    doc = {
        "config": cfg.to_dict(),
        "hermite": as_json_dict(profile),
        "hermite_condition": as_json_dict(condition),
        "assumptions": as_json_dict(report),
    }

    p_dual = next((p for p in cfg.p_list if p > 1), None)
    if p_dual is not None:
        pen = PenaltySpec.pnorm(p_dual)
        N = cfg.N_list[-1]
        W = sample_weights(spec, cfg.d, N, seed)
        Phi = featurize(spec, inst.X, W, seed=seed)
        sol = solve_dual(Phi, inst.y, pen, cfg.solver)
        ref_seed = derived_seed(seed, "reference")
        W_ref = sample_weights(spec, cfg.d, cfg.N_ref, ref_seed)
        Phi_ref = featurize(spec, inst.X, W_ref, seed=ref_seed)
        sol_ref = solve_dual(Phi_ref, inst.y, pen, cfg.solver)
        if sol.converged and sol_ref.converged:
            budget = event_audit(
                inst, pen, spec,
                SolvedModel(W, Phi, sol),
                SolvedModel(W_ref, Phi_ref, sol_ref),
                oracle, ds, min(cfg.M_test, 8_000), derived_seed(seed, "test"),
            )
            doc["event_budget"] = as_json_dict(budget)
        else:
            doc["event_budget"] = {
                "error": f"finite solve (N={N}) ended {sol.status}; "
                f"reference solve (N_ref={cfg.N_ref}) ended {sol_ref.status}"
            }
    return doc


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def finite_or_null(value):
    """`value` with every non-finite float, at any depth, replaced by None:
    strict JSON has no NaN or Infinity, so they are written as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite_or_null(v) for v in value]
    return value


def persist(result: ExperimentResult, out_dir) -> Path:
    """Write rows.csv and summary.json (strict JSON: nan is null) under
    `out_dir`; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "rows.csv", "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in result.rows:
            fh.write(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS) + "\n")
    summary = {
        "config": result.config,
        "aggregates": result.aggregates,
        "extras": result.extras,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(finite_or_null(summary), fh, indent=2, default=str, allow_nan=False)
    return out


def _parse_row(parts: list[str]) -> Row:
    """One rows.csv line; a bool field reads "true" as True and anything else as False."""
    return Row(**{
        name: text == "true" if _ROW_TYPES[name] is bool else _ROW_TYPES[name](text)
        for name, text in zip(CSV_COLUMNS, parts)
    })


def load(path) -> ExperimentResult:
    """Load a persisted run (a directory with rows.csv, or a bare CSV file).

    The aggregates are recomputed from the rows, so a nan mean that
    summary.json holds as null loads back as nan.
    """
    path = Path(path)
    csv_path = path / "rows.csv" if path.is_dir() else path
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header.split(",") != list(CSV_COLUMNS):
            raise ValueError(f"unexpected columns: {header!r}")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(f"row has {len(parts)} fields: {line!r}")
            rows.append(_parse_row(parts))
    config: dict = {}
    extras: dict = {}
    summary_path = (path if path.is_dir() else path.parent) / "summary.json"
    if summary_path.exists():
        with open(summary_path) as fh:
            summary = json.load(fh)
        config = summary.get("config", {})
        extras = summary.get("extras", {})
    return ExperimentResult(rows=rows, aggregates=aggregate(rows), config=config, extras=extras)
