"""Run one workload in this fresh interpreter and print its raw records.

Started by run.py with one JSON argument:
``{"workload", "seed", "seconds", "passes", "trace", "workdir", "digests"}``.
``passes`` null means "repeat the whole op list until ``seconds`` of
operation time have passed, then finish the pass"; a number means "run
the op list exactly that many times". Each operation is an in-process
``transcend_ug.cli.run(argv)`` with stdout and stderr captured; only the
call itself is timed, and scaled by reference.py's loop, which runs
between every two calls. Checks, digests and file clean-up run between
calls too.

The first pass checks every output against the oracle; later passes
check that each output's bytes equal the first pass's. What the worker
keeps per operation does not grow with the number of passes beyond one
float of time per call, so the run's peak memory is the program's, whatever the
number of calls that fit into ``seconds``.
"""
from __future__ import annotations

import array
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads
from reference import reference_ms, scaled

WARMUP_ARGV = ["play"]


def _run_op(cli, op, err: io.StringIO) -> tuple:
    out = io.StringIO()
    err.seek(0)
    err.truncate()
    sys.stdout = out
    t0 = time.perf_counter()
    try:
        rc = cli.run(op.argv)
    finally:
        dt = time.perf_counter() - t0
        sys.stdout = sys.__stdout__
    data = b""
    if op.output and os.path.exists(op.output):
        data = Path(op.output).read_bytes()
        os.unlink(op.output)
    return rc, dt, out.getvalue(), err.getvalue(), data


def main(params: dict) -> dict:
    root = Path(__file__).resolve().parent.parent
    import transcend_ug.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"transcend_ug imported from {cli.__file__}, not from {root / 'src'}")
    blocks, files = workloads.build(params["workload"], params["seed"])
    op_list = [op for block in blocks for op in block]
    expected = params.get("digests")
    os.chdir(params["workdir"])
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")

    err = io.StringIO()
    sys.stderr = err  # cli configures logging once, on this stream
    _run_op(cli, workloads.Op("warmup", WARMUP_ARGV), err)
    tracer = None
    if params["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = [{"kind": op.kind, "ms": array.array("d"), "rows": 0, "bytes": 0, "ok": True, "digest": None}
           for op in op_list]
    failures = []
    attempted = failed = 0
    busy = 0.0
    passes = 0
    ref_before = reference_ms()
    while True:
        for index, op in enumerate(op_list):
            rc, dt, out, stderr, data = _run_op(cli, op, err)
            ref_after = reference_ms()
            if tracer:
                tracer.end_op()
            busy += dt
            rec = ops[index]
            rec["ms"].append(scaled(dt * 1000, ref_before, ref_after))
            ref_before = ref_after
            output = out.encode() + data
            digest = hashlib.sha256(output).hexdigest()
            attempted += 1
            try:
                if passes == 0:
                    rows = workloads.check(op, rc, out, stderr, data)
                    if expected is not None and expected[index] != digest:
                        raise workloads.CheckFailed("output digest differs from the recorded one")
                    rec.update(rows=rows, bytes=len(output), digest=digest)
                elif digest != rec["digest"] or rc != op.rc:
                    raise workloads.CheckFailed(f"pass {passes}: output differs from the first pass")
            except Exception as exc:  # a wrong output, or output the check cannot read
                rec["ok"] = False
                failed += 1
                if len(failures) < 50:
                    failures.append(f"op {index} ({op.kind} {' '.join(op.argv)[:160]}): {exc!r}")
        passes += 1
        if passes == params["passes"] or (not params["passes"] and busy >= params["seconds"]):
            break
    sys.stderr = sys.__stderr__
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for rec in ops:
        rec["ms"] = rec["ms"].tolist()
    result = {
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        result["trace"] = tracer.summary()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
