"""A fixed piece of pure-Python work that tracks the machine's speed, to scale timings by.

On a shared machine, neighbours slow this process by up to about 1.9x,
from milliseconds to minutes at a time, and its CPU time slows as much
as its wall time. Medians over many repetitions still leave run-to-run
spreads of 0.1-0.2. This work, run right before and right after a call,
slows by about the same factor as the call, so every timing is reported
scaled: the call's wall time times ``REF_MS`` over the reference's mean
time around it. That is the call's time in milliseconds on a machine on
which the reference takes ``REF_MS``.

The reference mixes the kinds of work the program does: float
arithmetic in a loop, building and sorting small dicts and tuples, and
regex, string and JSON handling. On 7 runs of ``requests``, scaling by
such a mix left a spread of 0.02 where scaling by an arithmetic loop
alone let single runs stray by 5%.
"""
from __future__ import annotations

import json
import re
import time

REF_MS = 0.45  # the reference's typical time on the 2-core machine the bounds were set on

_FLAG = re.compile(r"--([a-z]+)-([a-z]+)=(\S*)")
_ARGS = " ".join(f"--allocator-gamma={i * 0.01} --recipient-d={i}" for i in range(40))


def reference_ms() -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    rows = [{"a": i, "b": i * 0.5, "c": (i, i + 1)} for i in range(250)]
    rows.sort(key=lambda r: -r["b"])
    groups = {}
    for r in rows:
        groups.setdefault(r["a"] % 7, []).append(r["c"])
    words = [m.group(1) + ":" + m.group(3) for m in _FLAG.finditer(_ARGS)]
    json.loads(json.dumps(words))
    "".join(words).upper().split(":")
    return (time.perf_counter() - t0) * 1000


def scaled(t: float, ref_before: float, ref_after: float) -> float:
    """A time ``t`` (in any unit) scaled by the reference's times before and after it."""
    return t * 2 * REF_MS / (ref_before + ref_after)
