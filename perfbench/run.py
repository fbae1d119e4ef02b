"""Benchmark of the transcend-ug CLI: seeded workloads, checked outputs, layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grid|export|requests --seed N --seconds S --trace 0|1

Each workload runs in a fresh interpreter (worker.py) as one closed-loop
client: it calls ``transcend_ug.cli.run(argv)`` in process, one call after
the other, on argv lists generated from the seed. The program is imported
from ``src/`` of the checkout and sees only those argv lists.

``--trace 0`` prints the end-to-end metrics. ``setup_s`` is the median over
fresh interpreters of importing ``transcend_ug.cli`` and building the
parser, after one untimed import has cached the bytecode. The run
repeats its op list until ``--seconds`` of operation time have passed,
so every operation is timed several times, and each operation's median
time stands for its cost. ``rows_per_s`` and ``ops_per_s`` are taken
over one pass of the list at those times, and ``op_p50_ms`` and
``op_tail_ms`` over the operations of the list. A slowdown that hits
an operation in most of its repetitions (a collection pause, a rebuilt
cache, a slow path of some arguments) therefore shows. Every timing,
``setup_s`` too, is scaled by fixed reference work run right before and
after it (reference.py), which takes out most of the slowdowns that
neighbours on a shared machine cause. ``peak_rss_mb`` covers the whole
run.

``--trace 1`` prints the per-layer metrics instead. It runs the op list
once in each of two fresh interpreters: plain, and with tracing.py's
wrappers installed, and fails any operation whose output bytes differ
between the two. Per-layer numbers come from those wrappers around the
package's functions, outside the program, per operation; the program
has no tracing of its own yet.

Every output is checked: against an independent closed-form model
(oracle.py) on a seeded sample of rows for any seed, and, for the seed in
digests.json, against the recorded sha256 of every operation's output.
``failed`` counts wrong outputs and unexpected exit codes.

``python3 perfbench/run.py --record-digests`` rewrites digests.json from the
current program; do it only when an output is meant to change.

The last line of stdout is the result object; the line before it holds the
run's environment (Python version, cores, load average, seed), the tail
percentile with its sample count, and the passes over the op list. The
run exits non-zero without a result when the program or a worker cannot
run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics
DEFAULT_SEED = 1
SETUP_RUNS = 15
TIME_LIMIT_S = 170

SETUP_CODE = (
    "import sys, time\n"
    f"sys.path.append({str(HERE)!r})\n"
    "from reference import reference_ms, scaled\n"
    "reference_ms()\n"  # its first call in a process is slower; not used
    "before = reference_ms()\n"
    "t0 = time.perf_counter()\n"
    "import transcend_ug.cli\n"
    "transcend_ug.cli.build_parser()\n"
    "dt = time.perf_counter() - t0\n"
    "print(scaled(dt, before, reference_ms()))\n"
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def pinned_env() -> dict:
    """The caller's environment without settings that change what is measured.

    TRANSCEND_UG_* (such as the thread count) and PYTHON* variables are
    dropped, the package is imported from src/, and hashing is fixed.
    """
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("TRANSCEND_UG_") and not (k.startswith("PYTHON") and k != "PYTHONHOME")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list, deadline: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a child process ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(deadline: float) -> float:
    _child(["-c", SETUP_CODE], deadline)  # caches the bytecode; not timed
    return statistics.median(float(_child(["-c", SETUP_CODE], deadline)) for _ in range(SETUP_RUNS))


def run_worker(params: dict, deadline: float) -> dict:
    return json.loads(_child([str(HERE / "worker.py"), json.dumps(params)], deadline))


def end_to_end(result: dict, setup_s: float) -> tuple:
    ops = result["ops"]
    typical = sorted(statistics.median(op["ms"]) for op in ops)
    # The highest percentile with at least 10 operations beyond it; in an
    # op list of 10 or fewer, the slowest operation.
    tail_index = len(typical) - 11 if len(typical) > 10 else len(typical) - 1
    pass_s = sum(typical) / 1000
    metrics = {
        "setup_s": setup_s,
        "rows_per_s": sum(op["rows"] for op in ops) / pass_s,
        "ops_per_s": len(ops) / pass_s,
        "op_p50_ms": statistics.median(typical),
        "op_tail_ms": typical[tail_index],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    tail = {"op_tail_percentile": round(100 * (tail_index + 1) / len(typical), 2), "tail_samples": len(typical),
            "passes": min(len(op["ms"]) for op in ops)}
    return metrics, tail


def per_layer(plain: dict, traced: dict) -> dict:
    t = traced["trace"]
    ops = traced["ops"]  # one pass: one time per operation
    n = len(ops)
    rows = sum(op["rows"] for op in ops)
    spans = t["spans"]

    def span(name, field):  # field: 0 calls, 1 total ms, 2 self ms, 3 rows
        return spans.get(name, (0, 0.0, 0.0, 0))[field]

    sweep = [name for name in spans if name.startswith("sweep.")]
    evals = t["counts"].get("utility.evals", 0)
    tau_calls = t["counts"].get("identity.tau", 0)
    return {
        "cli.parser_ms": span("cli.parser", 1) / n,
        "cli.self_ms": span("cli.run", 2) / n,
        "config.resolve_ms": span("config.resolve", 1) / n,
        "cli.render_ms": span("cli.render", 1) / n,
        "cli.write_ms": span("cli.write", 1) / n,
        "cli.output_bytes": sum(op["bytes"] for op in ops) / n,
        "sweep.self_ms": sum(span(name, 2) for name in sweep) / n,
        "sweep.rows": sum(span(name, 3) for name in sweep) / n,
        "sweep.with_param_calls": t["counts"].get("sweep.with_param", 0) / n,
        "game.play_calls": span("game.play", 0) / n,
        "game.best_split_calls": span("game.best_split", 0) / n,
        "game.best_split_ms": span("game.best_split", 1) / n,
        "game.accepts_calls": span("game.accepts", 0) / n,
        "game.accepts_ms": span("game.accepts", 1) / n,
        "utility.evals": evals / n,
        "utility.evals_per_row": evals / rows if rows else 0.0,
        "payoff.lens_calls": t["counts"].get("payoff.lens", 0) / n,
        "identity.tau_calls": tau_calls / n,
        "identity.tau_calls_per_player": tau_calls / t["players"] if t["players"] else 0.0,
        "trace.overhead_ratio": sum(sum(op["ms"]) for op in ops) / sum(sum(op["ms"]) for op in plain["ops"]),
    }


def expected_digests(workload: str, seed: int):
    if not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text())
    return recorded[workload] if recorded["seed"] == seed else None


def record_digests(workdir: Path, deadline: float) -> None:
    recorded = {"seed": DEFAULT_SEED}
    for workload in workloads.WORKLOADS:
        params = {"workload": workload, "seed": DEFAULT_SEED, "seconds": 0, "trace": 0, "digests": None,
                  "passes": 1, "workdir": str(workdir)}
        result = run_worker(params, deadline)
        if result["failures"]:
            raise BenchError("refusing to record digests of failing outputs:\n" + "\n".join(result["failures"]))
        recorded[workload] = [op["digest"] for op in result["ops"]]
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")


def bench(args: argparse.Namespace, workdir: Path, deadline: float) -> tuple:
    """(result object, info) for one run."""
    params = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 0,
              "digests": expected_digests(args.workload, args.seed), "passes": None, "workdir": str(workdir)}
    info = {}
    if args.trace:
        plain = run_worker({**params, "passes": 1}, deadline)
        traced = run_worker({**params, "passes": 1, "trace": 1}, deadline)
        metrics = per_layer(plain, traced)
        group = "per_layer"
        failures = plain["failures"] + traced["failures"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        for index, (a, b) in enumerate(zip(plain["ops"], traced["ops"])):
            if a["ok"] and b["ok"] and a["digest"] != b["digest"]:
                failures.append(f"op {index}: output differs between traced and untraced runs")
                failed += 1
        info["absent"] = traced["trace"]["absent"]
    else:
        setup_s = setup_seconds(deadline)
        result = run_worker(params, deadline)
        metrics, tail = end_to_end(result, setup_s)
        group = "end_to_end"
        failures = result["failures"]
        attempted, failed = result["attempted"], result["failed"]
        info.update(tail)
    units = json.loads(SPEC.read_text())[group]
    if {m["name"] for m in units} != metrics.keys():
        raise BenchError(f"{SPEC.name} lists other {group} metrics than run.py computes")
    info["fail_ratio"] = failed / attempted
    for line in failures[:20]:
        print("FAIL", line, file=sys.stderr)
    summary = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in units},
    }
    return summary, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="rewrite digests.json and exit")
    args = parser.parse_args()
    if not args.record_digests and not args.workload:
        parser.error("--workload is required")
    if not SPEC.is_file() or not (ROOT / "src" / "transcend_ug" / "cli.py").is_file():
        print(f"run from a checkout with {SPEC.name} and src/transcend_ug", file=sys.stderr)
        return 2
    # On SIGTERM, unwind like an exception: subprocess.run kills and waits for
    # the running child, and the work dir is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    started = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.record_digests:
            record_digests(workdir, deadline)
            return 0
        summary, info = bench(args, workdir, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": {**started, **info}}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
