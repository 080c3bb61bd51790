"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream-subst --seed 1 --seconds 20 --trace 0

Run it from the repository root: the program under test is imported
from ``./src``.  ``--trace 0`` prints the end-to-end metrics of one
untraced run; ``--trace 1`` runs the workload untraced, then replays
the same requests with every layer's entry points wrapped in spans,
and prints the per-layer metrics.  Every metric is printed as a table
row (value, unit, sample count), then a line with the host fingerprint,
and last one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

Exit status: 0 measured; 1 a correctness gate failed, the traced run
differed from the untraced one (results or resolved plan), a
percentile lacked samples, or the program lost the calibration cache
set-ups forget; 2 no
``./src/repro`` to measure, or no Linux ``/proc/self`` to read peak RSS
from.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import threading
import time
from pathlib import Path

#: Set-ups per run, back to back before the gate; the last one is
#: measured, the others are closed at once.  ``setup_s`` is their median.
SETUP_REPEATS = 21

END_TO_END_UNITS = {
    "setup_s": "s",
    "reads_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "cpu_us_per_read": "us",
    "peak_rss_mb": "MB",
    "completed_fraction": "fraction",
    "f1": "fraction",
    "f1_edam": "fraction",
    "model_energy_pj_per_read": "pJ",
    "searches_per_read": "count",
}

PER_LAYER_UNITS = {
    "kernels.counts_s": "s",
    "kernels.pairs": "count",
    "cam.noise_s": "s",
    "cam.noise_draws": "count",
    "cam.decisions": "count",
    "cam.noise_flip_fraction": "fraction",
    "cam.sense_s": "s",
    "cam.search_self_s": "s",
    "core.match_self_s": "s",
    "core.hdac_s": "s",
    "core.hdac_passes_per_read": "1/read",
    "core.tasr_search_s": "s",
    "core.tasr_passes_per_read": "1/read",
    "core.report_fold_s": "s",
    "cost.record_s": "s",
    "cost.events": "count",
    "cost.compact_s": "s",
    "cost.compactions": "count",
    "service.dispatch_self_s": "s",
    "service.queue_wait_s": "s",
    "service.worker_busy_fraction": "fraction",
    "parallel.fanout_self_s": "s",
    "parallel.shard_busy_s": "s",
    "parallel.shard_imbalance": "ratio",
    "genome.build_dataset_s": "s",
    "distance.ground_truth_s": "s",
    "baselines.edam_sweep_s": "s",
    "eval.confusion_s": "s",
    "arch.autotune_s": "s",
    "trace.reads": "count",
    "trace.other_s": "s",
    "trace.probe_s": "s",
    "trace.overhead_fraction": "fraction",
}


class Mismatch(Exception):
    """The traced run's results differ from the untraced run's."""


def _import_program(root: Path) -> "str | None":
    """Put ``root/src`` first on the path; the reason it cannot be used."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no {src / 'repro'} to measure; run from the repository root"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


def untraced(workload, inputs, seconds: float):
    from perfbench.measure import peak_rss_mb, percentile, reset_peak_rss
    from perfbench.workloads import cold_start

    setups = []
    for repeat in range(SETUP_REPEATS):
        cold_start()
        start = time.perf_counter()
        live = workload.setup(inputs)
        setups.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            workload.close(live)
    gate = workload.gate(live, inputs)
    gc.collect()
    reset_peak_rss()
    window = workload.window(live, inputs, seconds)
    rss = peak_rss_mb()
    plan = workload.plan(live)
    workload.close(live)
    f1, f1_edam = workload.quality(inputs, gate)
    latencies = window.latencies
    metrics = {
        "setup_s": statistics.median(setups),
        "reads_per_s": window.reads / window.elapsed_s,
        "request_p50_ms": percentile(latencies, 50) * 1e3,
        "request_p90_ms": percentile(latencies, 90) * 1e3,
        "cpu_us_per_read": window.cpu_s / window.reads * 1e6,
        "peak_rss_mb": rss,
        "completed_fraction": 1.0 - window.failed / window.attempted,
        "f1": f1,
        "f1_edam": f1_edam,
        "model_energy_pj_per_read":
            gate.simulated["model_energy_pj_per_read"],
        "searches_per_read": gate.simulated["searches_per_read"],
    }
    samples = {
        "setup_s": f"{len(setups)} set-ups",
        "reads_per_s": f"{window.reads} reads",
        "request_p50_ms": f"{len(latencies)} requests",
        "request_p90_ms": f"{len(latencies)} requests",
        "cpu_us_per_read": f"{window.reads} reads",
        "completed_fraction": f"{window.attempted} requests",
    }
    return metrics, samples, window, plan


def traced(workload, inputs, seconds: float):
    from perfbench.trace import Tracer, installed, layer_metrics
    from perfbench.workloads import cold_start

    def key(result) -> "bytes | None":
        if result is None:
            return None
        text = repr(workload.result_key(result)).encode()
        return hashlib.blake2b(text, digest_size=16).digest()

    cold_start()
    live = workload.setup(inputs)
    gate = workload.gate(live, inputs)
    baseline = workload.window(live, inputs, seconds, key=key)
    baseline_plan = workload.plan(live)
    workload.close(live)

    tracer = Tracer()
    with installed(tracer):
        cold_start()
        live = workload.setup(inputs)
        traced_gate = workload.gate(live, inputs)
        spans, _ = tracer.collect()
        autotune_s = sum(s.duration for s in spans
                         if s.name == "arch.autotune")
        tracer.reset()
        window = workload.window(live, inputs, seconds,
                                 n_requests=baseline.attempted, key=key,
                                 tracer=tracer)
        spans, counts = tracer.collect()
        plan = workload.plan(live)
        pool_workers = workload.pool_workers(live)
        workload.close(live)
    if plan != baseline_plan:
        raise Mismatch(f"the traced set-up resolved {plan}, the untraced "
                       f"one {baseline_plan}")
    if traced_gate.evidence != gate.evidence:
        raise Mismatch("traced gate results or simulated metrics differ "
                       "from the untraced run's")
    if window.results != baseline.results:
        raise Mismatch("traced request results differ from the untraced "
                       "run's")
    metrics = layer_metrics(
        spans, counts, window_s=window.elapsed_s,
        client_thread=threading.get_ident(), pool_workers=pool_workers,
        overhead_fraction=window.elapsed_s / baseline.elapsed_s - 1.0,
        autotune_s=autotune_s)
    metrics["trace.reads"] = window.reads
    samples = {name: f"{window.attempted} requests" for name in metrics}
    return metrics, samples, window, plan


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _import_program(Path.cwd())
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.host import fingerprint, not_comparable_because
    from perfbench.measure import InsufficientSamples
    from perfbench.workloads import WORKLOADS, GateFailure, NoColdStart

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed)
    run, units = ((traced, PER_LAYER_UNITS) if args.trace
                  else (untraced, END_TO_END_UNITS))
    try:
        metrics, samples, window, plan = run(workload, inputs, args.seconds)
    except (GateFailure, Mismatch, InsufficientSamples, NoColdStart) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Peak RSS is read from Linux's /proc/self (clear_refs, VmHWM).
        print(f"perfbench: cannot measure peak RSS here: {exc}",
              file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>16.6g} {unit:<9} "
              f"{samples.get(name, '')}")
    host = fingerprint()
    reasons = not_comparable_because(args.workload, host, plan)
    print(json.dumps({"host": host, "plan": plan, "comparable": not reasons,
                      "not_comparable_because": reasons}))
    print(json.dumps({
        "correct": True,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
