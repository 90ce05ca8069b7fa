"""Workload definitions and the checks on their outputs.

Each workload is one `mci` subcommand with a pinned config.  The benchmark's
seed picks the inputs: sweep k of a run with seed s passes `--seed 1000*s + k`,
which rebases the config's seed list.  The grids are cut down from the README
defaults so that eight or more sweeps fit in one run; what was cut is stated per
workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# Outputs recorded at the commit that introduced the benchmark, for the
# default inputs (sweep 0 of seed 0).
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A recorded number matches when |new - ref| <= REF_TOL * max(|ref|, 1).
# Every compared value is O(1) or smaller, so this is an absolute 1e-6 floor:
# about a thousand times below the Monte Carlo standard error of test_error
# and l2_to_ref at M_test = 20000 (>= 1e-3), so a changed random stream, grid,
# formula or solver optimum fails; and far above what reordered sums, another
# BLAS kernel or a warm-started solve stopped at the same gradient tolerance
# (1e-8 relative) move a converged output (<= 1e-8).
REF_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    expected_exit: int  # fig1 exits 2 because its N < n rows cannot interpolate


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1",
            command="fig1",
            # README grid (d=30, n=150, all four p) with widths cut to
            # 2^6..2^9, max_iters to 12 and M_test to 10000: one seed of the
            # full grid takes 72-82 s.  The two N < n widths still fail after a
            # full iteration budget and the others converge in a few steps, so
            # the unconverged dual solves still dominate; p=1 still runs the LP.
            config={"d": 30, "n": 150, "p_list": [1.0, 1.25, 1.5, 2.0],
                    "N_list": [64, 128, 256, 512], "seeds": [0],
                    "M_test": 10000, "threads": 1, "solver": {"max_iters": 12}},
            expected_exit=2,
        ),
        Workload(
            name="scaling",
            command="scaling",
            # Widths cut from 2^8..2^13 to 2^8..2^10 and M_test from 20000 to
            # 5000; N_ref stays at its default, so re-evaluating the reference
            # predictor for every width still dominates.
            config={"d": 30, "n": 150, "p_list": [1.5, 2.0], "N_list": [256, 512, 1024],
                    "seeds": [0], "M_test": 5000, "N_ref": 16384, "threads": 1},
            expected_exit=0,
        ),
        Workload(
            name="audit",
            command="audit",
            # Widths cut from 2^6..2^13 to 2^6..2^11 and N_ref from 16384 to
            # 4096, which halves a sweep (3.2 s to 1.6 s) so that a run holds
            # about fourteen: at the defaults the median of the eight that fit
            # spread 11-13% between runs.  Both solves still start cold.
            config={"d": 30, "n": 150, "p_list": [1.0, 1.25, 1.5, 2.0],
                    "N_list": [2**k for k in range(6, 12)], "seeds": [0],
                    "M_test": 20000, "N_ref": 4096, "threads": 1},
            expected_exit=0,
        ),
    )
}


def sweep_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


class Checks:
    """Counts checked outputs and keeps a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _close(new, ref) -> bool:
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return new == ref
    if isinstance(ref, (int, float)):
        if not isinstance(new, (int, float)) or isinstance(new, bool):
            return False
        if math.isnan(ref) or math.isnan(new):
            return math.isnan(ref) and math.isnan(new)
        if math.isinf(ref):
            return new == ref
        return abs(new - ref) <= REF_TOL * max(abs(ref), 1.0)
    if isinstance(ref, list):
        return isinstance(new, list) and len(new) == len(ref) and all(map(_close, new, ref))
    if isinstance(ref, dict):
        return isinstance(new, dict) and all(k in new and _close(new[k], v) for k, v in ref.items())
    return new == ref


def check_sweep(w: Workload, out: Path, exit_code: int, default_inputs: bool,
                checks: Checks) -> None:
    """Check one sweep's outputs; on the default inputs also against the record."""
    label = f"{w.name} {out.name}"
    checks.check(exit_code == w.expected_exit,
                 f"{label}: exit code {exit_code}, expected {w.expected_exit}")
    if w.command == "audit":
        _check_audit(label, out, default_inputs, checks)
    else:
        _check_rows(w, label, out, default_inputs, checks)


def _check_rows(w: Workload, label: str, out: Path, default_inputs: bool, checks: Checks) -> None:
    from mci import load  # the checkout's mci, which run.py puts on sys.path

    cfg = w.config
    try:
        rows = load(out).rows
    except Exception as exc:  # any failure to load is a failed output
        checks.check(False, f"{label}: mci.load failed: {exc!r}")
        return
    expected = len(cfg["p_list"]) * len(cfg["N_list"]) * len(cfg["seeds"])
    if not checks.check(len(rows) == expected, f"{label}: {len(rows)} rows, expected {expected}"):
        return
    for r in rows:
        key = f"{label}: row p={r.p:g} N={r.N} seed={r.seed}"
        if r.N < r.n:
            checks.check(not r.converged, f"{key} converged although N < n")
            continue
        ok = r.converged and math.isfinite(r.test_error)
        if w.command == "scaling":
            ok = ok and math.isfinite(r.l2_to_ref)
        checks.check(ok, f"{key} not converged with finite outputs")
    if default_inputs:
        ref_rows = load(REFERENCE_DIR / f"{w.name}_rows.csv").rows
        by_key = {(r.p, r.N, r.seed): r for r in rows}
        for ref in ref_rows:
            new = by_key.get((ref.p, ref.N, ref.seed))
            key = f"{label}: row p={ref.p:g} N={ref.N} seed={ref.seed} against the record"
            if new is None or new.converged != ref.converged:
                checks.check(False, f"{key}: missing or status changed")
            elif not ref.converged:  # an unconverged iterate carries no result
                checks.check(True, key)
            else:
                checks.check(_close(new.test_error, ref.test_error)
                             and _close(new.l2_to_ref, ref.l2_to_ref),
                             f"{key}: test_error {new.test_error!r} vs {ref.test_error!r}, "
                             f"l2_to_ref {new.l2_to_ref!r} vs {ref.l2_to_ref!r}")


AUDIT_SECTIONS = ("hermite", "hermite_condition", "assumptions", "event_budget")


def _check_audit(label: str, out: Path, default_inputs: bool, checks: Checks) -> None:
    try:
        doc = json.loads((out / "audit.json").read_text())
    except (OSError, ValueError) as exc:
        checks.check(False, f"{label}: audit.json unreadable: {exc!r}")
        return
    if not checks.check(all(s in doc for s in AUDIT_SECTIONS),
                        f"{label}: audit.json lacks one of {AUDIT_SECTIONS}"):
        return
    checks.check(doc["event_budget"].get("holds") is True, f"{label}: event_budget.holds is not true")
    if default_inputs:
        ref = json.loads((REFERENCE_DIR / "audit.json").read_text())
        for section in AUDIT_SECTIONS:
            checks.check(_close(doc[section], ref[section]),
                         f"{label}: audit.json section {section!r} differs from the record")


def strip_timing(out: Path, command: str) -> str:
    """The sweep's output with its only run-dependent fields removed:
    the wall_ms column of rows.csv, or the config (output path) of audit.json."""
    if command == "audit":
        doc = json.loads((out / "audit.json").read_text())
        doc.pop("config")
        return json.dumps(doc, sort_keys=True)
    lines = (out / "rows.csv").read_text().splitlines()
    return "\n".join(line.rsplit(",", 1)[0] for line in lines)
