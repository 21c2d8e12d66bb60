"""Workload process: runs a list of ``uqcm`` command lines in-process.

Reads ``{"ops": [[argv...], ...], "seconds": s, "trace": bool}`` as JSON
on stdin, imports ``uqcm.cli`` and calls ``uqcm.cli.main(argv)`` for each
op in turn, capturing its stdout and stderr.  A fixed reference loop is
timed just before and just after each op, to gauge the machine's speed at
that moment (see ``bench/README.md``).  The first pass runs with
cold caches; warm passes follow until ``seconds`` would be exceeded (at
least one).  With ``trace`` true, one more warm pass runs under
:class:`tracer.Tracer`.  The result goes to stdout as one JSON line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

from tracer import Tracer


REFERENCE_ITERATIONS = 20_000


def reference_loop() -> float:
    """Seconds this process takes, right now, for a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def run_pass(cli, ops: list[list[str]], keep_text: bool) -> dict:
    records = []
    begin = time.perf_counter()
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        ref_before = reference_loop()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                status = None
                err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        ref_after = reference_loop()
        text = out.getvalue()
        record = {
            "status": status,
            "seconds": elapsed,
            "ref_s": (ref_before + ref_after) / 2,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "stderr": err.getvalue(),
        }
        if keep_text:
            record["stdout"] = text
        records.append(record)
    return {"wall_s": time.perf_counter() - begin, "ops": records}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    spec = json.load(sys.stdin)
    ops, seconds = spec["ops"], spec["seconds"]
    import uqcm.cli as cli

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops, keep_text=not passes))
        elapsed = time.perf_counter() - begin
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
    }
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        result["traced_pass"] = run_pass(cli, ops, keep_text=False)
        result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
