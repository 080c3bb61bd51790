"""Timing helpers: percentiles, process counters and the closed loop."""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class InsufficientSamples(Exception):
    """A percentile was asked of too few samples, or fell on a failure."""


def percentile(samples: "list[float]", q: float) -> float:
    """Nearest-rank ``q``-th percentile of *samples*.

    Refuses (:class:`InsufficientSamples`) unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie above the percentile's rank.
    A failed request is passed as ``math.inf`` — it misses every
    latency limit — so a percentile that lands on one is refused too.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"{MIN_SAMPLES_BEYOND} are needed"
        )
    value = sorted(samples)[rank - 1]
    if math.isinf(value):
        raise InsufficientSamples(f"p{q:g} falls on a failed request")
    return value


def cpu_seconds() -> float:
    """Process CPU time, every thread, user plus system."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark from the current RSS (Linux)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_rss_mb() -> float:
    """Peak resident set size since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


@dataclass
class Window:
    """What one timed window measured."""

    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    reads: int = 0
    attempted: int = 0
    failed: int = 0
    #: Per-request latency in seconds; ``math.inf`` for a failed one.
    latencies: "list[float]" = field(default_factory=list)
    #: ``key(result)`` per request, kept only when a key is given (the
    #: traced run's equality check).
    results: list = field(default_factory=list)


def closed_loop(request: Callable[[int], object], reads_per_request: int,
                seconds: float, min_requests: int,
                n_requests: "int | None" = None,
                key: "Callable | None" = None) -> Window:
    """One synchronous client: send request ``r`` only after ``r - 1``
    returned.  Runs for *seconds* and at least *min_requests* requests,
    or exactly *n_requests* when given (the traced replay)."""
    window = Window()
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    while True:
        sent = time.perf_counter()
        try:
            result = request(window.attempted)
        except Exception:  # noqa: BLE001 — a failed request is counted, not fatal
            window.failed += 1
            window.latencies.append(math.inf)
            result = None
        else:
            window.latencies.append(time.perf_counter() - sent)
            window.reads += reads_per_request
        window.attempted += 1
        if key is not None:
            window.results.append(key(result))
        if n_requests is not None:
            if window.attempted >= n_requests:
                break
        elif (time.perf_counter() - start >= seconds
              and window.attempted >= min_requests):
            break
    window.elapsed_s = time.perf_counter() - start
    window.cpu_s = cpu_seconds() - cpu_start
    return window

