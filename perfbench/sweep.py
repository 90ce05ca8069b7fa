"""One measured process: import mci, call `mci.cli.main`, report timings.

Usage: python3 perfbench/sweep.py <job.json> <launched_at>

`launched_at` is the `time.time()` the parent read right before starting this
process.  The job file names the checkout's `src` directory, the CLI
arguments, whether to trace, and where to write the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(job_path: str, launched_at: float) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import mci.cli

    if not Path(mci.cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise SystemExit(f"mci imported from {mci.cli.__file__}, not from {job['src']}")

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    result = {"setup_s": time.time() - launched_at}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    result["exit_code"] = mci.cli.main(job["argv"])  # the traced binding when tracing
    result["sweep_s"] = time.perf_counter() - t0
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["sweep_cpu_s"] = ru.ru_utime + ru.ru_stime - ru0.ru_utime - ru0.ru_stime
    result["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["calls"] = dict(tracer.calls)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
