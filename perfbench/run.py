"""The mci benchmark: end-to-end and per-layer metrics of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

Each sweep calls `mci.cli.main` once in a fresh Python process that imports
mci from the checkout's `src/`, with the workload's pinned config (threads=1,
BLAS at its default thread count).  Sweeps run one after another (a closed
loop of one client); none starts that the last one says would end after
`--seconds`.

A run starts with one warm-up sweep, which is checked but not measured: the
first sweep after the machine idled runs slower.  With `--trace 0` the run
then reports, over its sweeps,
    sweep_s      median wall time of the `mci.cli.main` call, persistence included
    setup_s      median time from process launch to the call (interpreter start,
                 `import mci`)
    peak_rss_mb  median `ru_maxrss` of a sweep process
and, in the results file only, `sweep_cpu_s` (median user + system CPU time of
the call).  With `--trace 1` it alternates untraced and traced sweeps on the
same inputs (two pairs at least) and reports every per-layer metric (mean per
traced sweep), the traced sweep time and the tracing overhead (median over
pairs of traced minus untraced sweep time).  Every sweep's outputs are
checked (see workloads.py); `outputs_failed_frac` is failed / attempted checks.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full record, with run metadata and
every sample, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layertrace import LAYER_METRICS, SELF_TIME_METRICS  # noqa: E402
from workloads import WORKLOADS, Checks, check_sweep, strip_timing, sweep_seed  # noqa: E402

# Self times may differ from the traced sweep time by the cost of the
# outermost wrapper and the timer reads around it.
SELF_SUM_TOL = 0.01
# A run ends within 180 s; no single process may outlive that.
PROCESS_TIMEOUT_S = 170


def _launch(root: Path, work: Path, tag: str, argv: list[str], trace: bool) -> dict:
    """One measured process."""
    result = work / f"{tag}.result.json"
    job = work / f"{tag}.job.json"
    job.write_text(json.dumps({"src": str(root / "src"), "argv": argv, "trace": trace,
                               "result": str(result)}))
    cmd = [sys.executable, "-I", str(HERE / "sweep.py"), str(job), repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text())


def _sweep(root, work, w, base, tag, trace, checks) -> tuple[dict, Path]:
    out = work / tag
    argv = [w.command, "--config", str((work / "config.json").relative_to(root)),
            "--out", str(out.relative_to(root)), "--seed", str(base)]
    rec = _launch(root, work, tag, argv, trace)
    rec["seed"] = base
    check_sweep(w, out, rec["exit_code"], base == 0, checks)
    return rec, out


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = root / ".perfbench" / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(w.config))
    checks = Checks()
    start = time.perf_counter()
    _sweep(root, work, w, sweep_seed(seed, 0), "warmup", False, checks)
    step_s = time.perf_counter() - start  # the last sweep (traced: pair of sweeps)
    plain, traced = [], []
    k = 0
    # One sweep at least (traced: two pairs, so the alternating order has a
    # partner); after that, start none that the last one says would end after
    # --seconds.
    while k < 1 + trace or time.perf_counter() - start + step_s <= seconds:
        t0 = time.perf_counter()
        base = sweep_seed(seed, k)
        if not trace:
            plain.append(_sweep(root, work, w, base, f"sweep{k}", False, checks)[0])
        else:
            # Alternate which side goes first, so a drift in speed cancels out
            # of the overhead.
            order = (False, True) if k % 2 == 0 else (True, False)
            done = {t: _sweep(root, work, w, base, f"sweep{k}" + "-traced" * t, t, checks)
                    for t in order}
            (rec, out), (rec_t, out_t) = done[False], done[True]
            plain.append(rec)
            traced.append(rec_t)
            checks.check(strip_timing(out_t, w.command) == strip_timing(out, w.command),
                         f"{name} sweep{k}: traced output differs from the untraced one")
            layer_sum = sum(rec_t["layers"][m] for m in SELF_TIME_METRICS)
            checks.check(abs(layer_sum - rec_t["sweep_s"]) <= SELF_SUM_TOL * rec_t["sweep_s"],
                         f"{name} sweep{k}: self times sum to {layer_sum:.4f} s, "
                         f"traced sweep took {rec_t['sweep_s']:.4f} s")
        step_s = time.perf_counter() - t0
        k += 1

    if trace:
        metrics = {m: (statistics.fmean(r["layers"][m] for r in traced), unit)
                   for m, (unit, _) in LAYER_METRICS.items()}
        metrics["trace.sweep_s"] = (statistics.fmean(r["sweep_s"] for r in traced), "s")
        # Each pair ran back to back on the same inputs, so its difference is
        # the least touched by the machine's drift in speed.
        metrics["trace.overhead_s"] = (statistics.median(
            t["sweep_s"] - u["sweep_s"] for u, t in zip(plain, traced)), "s")
    else:
        metrics = {
            "sweep_s": (statistics.median(r["sweep_s"] for r in plain), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "sweep_cpu_s": (statistics.median(r["sweep_cpu_s"] for r in plain), "s"),
        }
    metrics["outputs_failed_frac"] = (checks.failed / checks.attempted, "fraction")
    return {
        "workload": {"name": w.name, "command": w.command, "config": w.config},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sweep_count": k,
        "elapsed_s": time.perf_counter() - start,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "sweeps": plain,
        "traced_sweeps": traced,
    }


def _print_metrics(run: dict) -> None:
    name, trace = run["workload"]["name"], run["trace"]
    for metric, m in run["metrics"].items():
        print(f"{name:8s} trace={int(trace)} {metric:32s} {m['value']:.6g} {m['unit']}")
    for failure in run["failures"]:
        print(f"{name:8s} FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # sweep process in flight before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "mci" / "__init__.py").is_file():
        print(f"error: no mci sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(root / "src"))  # the checks load outputs with this checkout's mci
    from sysinfo import run_metadata

    meta = run_metadata(root)
    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
        label = f"BENCH_{(meta['git_revision'] or meta['source_sha256'])[:12]}"
    else:
        plan = [(args.workload, bool(args.trace))]
        label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = [run_workload(root, name, args.seed, args.seconds, trace) for name, trace in plan]
    out = root / ".perfbench" / "results" / f"{label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"metadata": meta, "layer_map": LAYER_METRICS, "runs": runs}, indent=1))
    for run in runs:
        _print_metrics(run)
    print(f"results: {out.relative_to(root)}")
    if args.workload != "all":
        run = runs[0]
        spec = json.loads((root / "BENCHMARK.json").read_text())
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        print(json.dumps({
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {m: run["metrics"][m] for m in wanted},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
