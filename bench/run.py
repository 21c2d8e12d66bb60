"""uqcm benchmark: time CLI workloads from outside the library and check every output.

Usage (from the repository root)::

    python3 bench/run.py --workload many-copies --seed 1 --seconds 36 --trace 0

The load is a closed loop: one client runs the workload's ops one after
another in a fresh process (``bench/worker.py``).  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics from one more pass run under ``bench/tracer.py``.
Every metric is printed by name with its unit above that line, and the
whole run record goes to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

from tracer import MODULES
from workloads import WORKLOADS, build_ops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCHEMA = ROOT / "src" / "uqcm" / "report_schema.json"
OUT_DIR = BENCH_DIR / "out"

ABS_DIFF_TOL = 1e-10
SETUP_SAMPLES_PER_PROCESS = 2
# Fresh workload processes per run; each gives one cold pass.
WORKLOAD_PROCESSES = 4
# Seconds the worker's reference loop takes in the machine's quiet spells,
# measured on the 2-vCPU Xeon VM (Python 3.11.7) the benchmark was written
# on.  Op times are reported at this reference speed; see bench/README.md.
REF_NOMINAL_S = 0.0012
# The closed loop is one client on one core; BLAS runs single-threaded so
# that the load on the other core does not enter the timings.
BLAS_THREADS = 1
# Every run must end within 180 s; leave room for start-up and reporting.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}

# (qualified name, quantities) of the wrapped layers that are reported.
LAYER_QUANTITIES = [
    ("combinatorics.splitting_coefficient", ("calls", "self_s")),
    ("combinatorics.splitting_coefficient_sq", ("self_s",)),
    ("combinatorics.OccupationVector", ("calls",)),
    ("combinatorics.verify_identity", ("self_s",)),
    ("symmetric.reduce_symmetric", ("calls", "self_s")),
    ("symmetric.SymDensity", ("calls", "self_s", "dim3_sum", "bytes_max")),
    ("symmetric.sym_unitary", ("self_s",)),
    ("symmetric.sym_to_full_density", ("self_s",)),
    ("symmetric.projector_full", ("self_s",)),
    ("machines.werner_output", ("calls", "self_s")),
    ("machines.fan_output", ("calls", "self_s")),
    ("machines.unified_output", ("calls", "self_s")),
    ("machines.unified_pure_output", ("calls", "self_s")),
    ("machines.werner_output_oracle", ("self_s",)),
    ("machines.unified_output_oracle", ("self_s",)),
    ("hilbert.trace_distance_matrices", ("calls", "self_s", "dim3_sum")),
    ("hilbert.FullDensity", ("calls", "self_s")),
    ("hilbert.partial_trace_state", ("calls", "self_s")),
    ("hilbert.permute_factors", ("calls", "self_s")),
    ("hilbert.random_unitary", ("calls", "self_s")),
    ("fidelity.fidelity_L_numeric", ("calls", "self_s")),
    ("fidelity.fidelity_L_closed", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
]
QUANTITY_UNITS = {"calls": "count", "self_s": "s", "dim3_sum": "count", "bytes_max": "B"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("UQCM_OUTPUT_DIR", None)
    return env


def run_child(cmd: list[str], env: dict, deadline: float, stdin: str = "") -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[:3]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{cmd[:3]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(env: dict, deadline: float, samples: int) -> list[float]:
    """Seconds to import uqcm.cli, each in a fresh process."""
    code = ("import time; t = time.perf_counter(); import uqcm.cli; "
            "print(time.perf_counter() - t)")
    return [float(run_child([sys.executable, "-c", code], env, deadline))
            for _ in range(samples)]


def check_output(argv: list[str], text: str, validator) -> str | None:
    """Why one op's stdout is wrong, or None.  Reads only the stable report fields."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    error = jsonschema.exceptions.best_match(validator.iter_errors(payload))
    if error is not None:
        return f"schema: {error.message}"
    command = argv[0]
    if command == "table":
        m_out = int(argv[argv.index("--m") + 1])
        if len(payload["rows"]) != m_out:
            return f"{len(payload['rows'])} rows for {m_out} values of L"
        worst = max(row["abs_diff"] for row in payload["rows"])
        if not worst <= ABS_DIFF_TOL:
            return f"abs_diff {worst} > {ABS_DIFF_TOL}"
    elif command == "verify":
        if payload["pass"] is not True:
            return "verify did not pass"
        if payload["mode"] != "full":
            return f"mode {payload['mode']!r}, expected 'full'"
    elif command == "identity-check":
        if payload["all_equal"] is not True:
            return "identity-check reports all_equal false"
    return None


def gate(ops: list[list[str]], passes: list[dict], validator) -> tuple[int, int, list[str]]:
    """Correctness and determinism over every op of every pass: (attempted, failed, why)."""
    first = passes[0]["ops"]
    content = [check_output(argv, rec["stdout"], validator) for argv, rec in zip(ops, first)]
    attempted, failed, reasons = 0, 0, []
    for p, run in enumerate(passes):
        for i, (argv, rec) in enumerate(zip(ops, run["ops"])):
            attempted += 1
            if rec["status"] != 0:
                why = f"exit status {rec['status']}: {rec['stderr'][-500:]}"
            elif content[i] is not None:
                why = content[i]
            elif rec["sha256"] != first[i]["sha256"]:
                why = "output differs from the first pass"
            else:
                continue
            failed += 1
            reasons.append(f"pass {p}: uqcm {' '.join(argv)}: {why}")
    return attempted, failed, reasons


def normalised(rec: dict) -> float:
    """An op's time at the reference speed: scaled by the reference loop timed beside it."""
    return rec["seconds"] * REF_NOMINAL_S / rec["ref_s"]


def per_op_median(passes: list[dict], time_of=normalised) -> list[float]:
    """Each op's median time over the given passes."""
    return [statistics.median(time_of(run["ops"][i]) for run in passes)
            for i in range(len(passes[0]["ops"]))]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with ten samples beyond it.

    With fewer than 20 samples no percentile above the median has ten
    beyond it; the largest sample is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(setup: list[float], cold: list[dict], warm: list[dict],
               peak_rss_kb: int, attempted: int, failed: int) -> tuple[dict, float]:
    """The end-to-end metrics and the percentile that op_tail_s reports."""
    cold_ops, warm_ops = per_op_median(cold), per_op_median(warm)
    percentile, tail_value = tail(warm_ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "cold_pass_s": sum(cold_ops),
        "wall_s": sum(warm_ops),
        "op_p50_s": statistics.median(warm_ops),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ops_ok_frac": 1.0 - failed / attempted,
    }
    return metrics, percentile


def per_layer(result: dict, wall_s: float) -> tuple[dict, list[str]]:
    trace = result["trace"]
    values, absent = {}, []
    for qual, quantities in LAYER_QUANTITIES:
        stats = trace["stats"].get(qual)
        if stats is None:
            absent.append(qual)
        for qty in quantities:
            values[f"{qual}.{qty}"] = stats[qty] if stats else 0
    absent += trace["missing_modules"]
    for module in MODULES:
        values[f"{module}.errors"] = trace["errors"].get(module, 0)
    values["trace.overhead_frac"] = result["traced_pass"]["wall_s"] / wall_s - 1.0
    return values, absent


def layer_unit(name: str) -> str:
    if name.endswith(".errors"):
        return "count"
    if name == "trace.overhead_frac":
        return "ratio"
    return QUANTITY_UNITS[name.rsplit(".", 1)[1]]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "uqcm" / "cli.py").is_file() or not SCHEMA.is_file():
        raise BenchError(f"no uqcm sources under {ROOT / 'src'}")
    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
    ops = build_ops(args.workload, args.seed)
    env = child_env()

    measure_setup(env, deadline, 1)  # compiles the bytecode on a fresh checkout
    worker = [sys.executable, str(BENCH_DIR / "worker.py")]
    setup, results = [], []
    for k in range(WORKLOAD_PROCESSES):
        # Set-up samples are spread over the run, so one slow stretch of
        # the machine cannot hold all of them.
        setup += measure_setup(env, deadline, SETUP_SAMPLES_PER_PROCESS)
        traced = bool(args.trace) and k == WORKLOAD_PROCESSES - 1
        spec = {"ops": ops, "seconds": args.seconds / WORKLOAD_PROCESSES, "trace": traced}
        out = run_child(worker, env, deadline, json.dumps(spec))
        results.append(json.loads(out.splitlines()[-1]))
    result = results[-1]

    cold = [r["passes"][0] for r in results]
    warm = [run for r in results for run in r["passes"][1:]]
    labelled = [("cold", run) for run in cold] + [("warm", run) for run in warm]
    if args.trace:
        labelled.append(("traced", result["traced_pass"]))
    attempted, failed, reasons = gate(ops, [run for _, run in labelled], validator)
    peak_rss_kb = max(r["peak_rss_kb"] for r in results)
    metrics, percentile = end_to_end(setup, cold, warm, peak_rss_kb, attempted, failed)
    units = dict(END_TO_END_UNITS)
    reported, absent = list(metrics), []
    if args.trace:
        layers, absent = per_layer(result, statistics.median(
            run["wall_s"] for run in result["passes"][1:]))
        metrics.update(layers)
        units.update({name: layer_unit(name) for name in layers})
        reported = list(layers)
    return {
        "workload": args.workload,
        "env": {**result["env"], "workload_seed": args.seed, "git_commit": git_commit()},
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "metrics": metrics,
        "units": units,
        "reported": reported,
        "absent": absent,
        "op_tail_percentile": percentile,
        "warm_passes": len(warm),
        "raw_wall_s": sum(per_op_median(warm, time_of=lambda rec: rec["seconds"])),
        "setup_samples_s": setup,
        "passes": [{"kind": kind, "wall_s": run["wall_s"],
                    "op_seconds": [rec["seconds"] for rec in run["ops"]],
                    "ref_s": [rec["ref_s"] for rec in run["ops"]]}
                   for kind, run in labelled],
        "ops": [" ".join(argv) for argv in ops],
        "trace": result.get("trace"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}: {record['attempted']} ops attempted, "
          f"{record['failed']} failed; run record in {out.relative_to(ROOT)}")
    print_report(record)
    metrics, units = record["metrics"], record["units"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in record["reported"]},
    }))
    return 0


def print_report(record: dict) -> None:
    """Every metric by name and unit, then where the traced pass spent its time."""
    print("env " + json.dumps(record["env"], sort_keys=True))
    for reason in record["failures"][:20]:
        print(f"FAILED {reason}")
    for name, value in record["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = (f"  (p{record['op_tail_percentile']:.1f} of {len(record['ops'])} ops,"
                    f" each its median over {record['warm_passes']} warm passes)")
        elif name == "wall_s":
            note = f"  (unscaled: {record['raw_wall_s']:.6g} s)"
        elif name.rsplit(".", 1)[0] in record["absent"]:
            note = "  (absent)"
        print(f"  {name:48s} {value:>16.6g} {record['units'][name]}{note}")
    if record["trace"]:
        traced_wall = record["passes"][-1]["wall_s"]
        top = sorted(record["trace"]["stats"].items(), key=lambda kv: -kv[1]["self_s"])
        print(f"largest self times in the traced pass ({traced_wall:.3f} s):")
        for qual, stats in top[:10]:
            print(f"  {qual:48s} {stats['self_s']:10.3f} s {stats['self_s'] / traced_wall:7.1%}")


if __name__ == "__main__":
    sys.exit(main())
