"""Host fingerprint and the comparability check.

Every result names the host it was measured on and how autotune
resolved there.  A result is comparable with the committed numbers in
``perfbench/README.md`` only when both match ``reference_host.json``.
BLAS threads are recorded, never pinned: the default is what users get.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference_host.json")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def fingerprint() -> dict:
    """The host facts a timing depends on."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        **{name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def not_comparable_because(workload: str, host: dict, plan: dict,
                           reference: "dict | None" = None) -> "list[str]":
    """Every way this run's host or resolved plan differs from the
    reference host's; empty when the result is comparable."""
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    expected = {**reference["host"], **reference["plans"].get(workload, {})}
    actual = {**host, **plan}
    return [f"{key}: {actual.get(key)!r} here, {expected[key]!r} on the "
            f"reference host"
            for key in sorted(expected) if actual.get(key) != expected[key]]
