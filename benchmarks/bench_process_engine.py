"""Bench: thread vs process shard engine on one sharded workload.

The process engine (``engine="process"`` on
:class:`repro.core.pipeline.ShardedReadMappingPipeline`) trades spawn
cost for GIL-free shard workers over shared-memory stored references.
This bench drives the *same* sharded pipeline under both engines and
at a ladder of process worker counts, and checks the whole contract,
not just the clock:

* **bit-identity** (always asserted) — every process run's report must
  equal the thread baseline exactly: per-read matched rows, decisions,
  energy and latency, at every worker count;
* **encode-once** (always asserted) — workers attach shared segments,
  they never re-encode: ``worker_encode_counts()`` must stay all zero
  and the parent must have encoded each shard exactly once;
* **scaling** (opt-in gate) — ``--min-speedup F`` fails the run unless
  process@``--workers`` beats the thread engine by ``F``x.  Off by
  default: single-CPU CI containers cannot demonstrate parallel
  speedup, only correctness.

The ``seconds`` column (and the gate) is end to end: a fresh pipeline,
one run, close.  The ``boot`` and ``steady`` columns split it, on
separate fresh pipelines: ``steady`` times a second run over the same
reads on a warm pipeline, ``boot`` is what the first run cost on top
of it (construction, worker spawn or pool start, first touch).

Usage::

    python benchmarks/bench_process_engine.py              # full sizes
    python benchmarks/bench_process_engine.py --smoke      # tiny CI run
    python benchmarks/bench_process_engine.py \
        --workers 4 --min-speedup 1.5      # the PR's acceptance gate
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from conftest import add_json_argument, write_bench_json
from repro.core.pipeline import ShardedReadMappingPipeline
from repro.genome.datasets import build_dataset


def build_workload(n_reads: int, read_length: int, n_segments: int,
                   condition: str, seed: int):
    dataset = build_dataset(condition, n_reads=n_reads,
                            read_length=read_length,
                            n_segments=n_segments, seed=seed)
    reads = np.stack([record.read.codes for record in dataset.reads])
    return dataset, reads


def timed(fn, repeats: int):
    """Best-of-``repeats`` wall time (robust against machine noise)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def boot_and_steady(make_pipeline, reads, threshold: int, repeats: int):
    """Best-of-``repeats`` ``(boot_s, steady_s)`` over fresh pipelines,
    plus the last warm run's report."""
    boot = steady = float("inf")
    report = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        with make_pipeline() as pipeline:
            pipeline.run(reads, threshold)
            first = time.perf_counter() - start
            start = time.perf_counter()
            report = pipeline.run(reads, threshold)
            again = time.perf_counter() - start
        steady = min(steady, again)
        boot = min(boot, first - again)
    return boot, steady, report


def reports_identical(a, b) -> bool:
    if (a.n_reads, a.n_mapped, a.n_unique, a.n_searches) != \
            (b.n_reads, b.n_mapped, b.n_unique, b.n_searches):
        return False
    if (a.total_energy_joules, a.total_latency_ns) != \
            (b.total_energy_joules, b.total_latency_ns):
        return False
    for left, right in zip(a.mappings, b.mappings, strict=True):
        if left.matched_rows != right.matched_rows:
            return False
        if not np.array_equal(left.outcome.decisions,
                              right.outcome.decisions):
            return False
    return True


def worker_ladder(top: int) -> "list[int]":
    ladder = [1]
    while ladder[-1] * 2 <= top:
        ladder.append(ladder[-1] * 2)
    if ladder[-1] != top:
        ladder.append(top)
    return ladder


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reads", type=int, default=400)
    parser.add_argument("--read-length", type=int, default=128)
    parser.add_argument("--segments", type=int, default=256)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--threshold", type=int, default=8)
    parser.add_argument("--condition", default="A", choices=("A", "B"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4,
                        help="top of the process worker-count ladder")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed repetitions per engine (best taken)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI hot-path checks")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless process@--workers beats the "
                             "thread engine by this factor (opt-in: "
                             "needs a multi-CPU host)")
    add_json_argument(parser)
    args = parser.parse_args(argv)

    if args.smoke:
        args.reads, args.read_length, args.segments = 32, 64, 48
        args.shards, args.workers, args.repeats = 2, 2, 1

    dataset, reads = build_workload(args.reads, args.read_length,
                                    args.segments, args.condition,
                                    args.seed)

    def thread_pipeline():
        return ShardedReadMappingPipeline(
            dataset.segments, dataset.model, n_shards=args.shards,
            seed=args.seed, engine="thread")

    def process_pipeline(n_workers: int):
        return ShardedReadMappingPipeline(
            dataset.segments, dataset.model, n_shards=args.shards,
            seed=args.seed, engine="process", max_workers=n_workers)

    def thread_run():
        with thread_pipeline() as pipeline:
            return pipeline.run(reads, args.threshold)

    def process_run(n_workers: int):
        with process_pipeline(n_workers) as pipeline:
            report = pipeline.run(reads, args.threshold)
            engine = pipeline.process_engine()
            encode_counts = engine.worker_encode_counts()
            shard_encodes = tuple(
                shard.n_encodes for shard in pipeline._stored_shards
            )
            shared_mib = engine.shared_nbytes / (1 << 20)
            return report, encode_counts, shard_encodes, shared_mib

    thread_s, baseline = timed(thread_run, args.repeats)
    thread_boot, thread_steady, warm = boot_and_steady(
        thread_pipeline, reads, args.threshold, args.repeats)

    print(f"\nbench_process_engine: {args.reads} reads x "
          f"{args.segments} segments x {args.read_length} bases, "
          f"{args.shards} shards, T={args.threshold}, "
          f"condition {args.condition}")
    print(f"{'engine':<14} {'seconds':>9} {'reads/s':>12} {'speedup':>9} "
          f"{'boot s':>8} {'steady s':>9} {'steady r/s':>11} "
          f"{'identical':>10}")
    print(f"{'thread':<14} {thread_s:>9.3f} "
          f"{args.reads / thread_s:>12.1f} {'1.0x':>9} "
          f"{thread_boot:>8.3f} {thread_steady:>9.3f} "
          f"{args.reads / thread_steady:>11.1f} {'--':>10}")

    failed = False
    timings = {"thread_s": thread_s, "thread_boot_s": thread_boot,
               "thread_steady_s": thread_steady}
    derived = {"encode_once": True,
               "bit_identical": reports_identical(baseline, warm)}
    gated_speedup = None
    for n_workers in worker_ladder(max(1, args.workers)):
        process_s, outcome = timed(
            lambda n=n_workers: process_run(n), args.repeats)
        report, encode_counts, shard_encodes, shared_mib = outcome
        boot, steady, warm = boot_and_steady(
            lambda n=n_workers: process_pipeline(n), reads,
            args.threshold, args.repeats)
        identical = (reports_identical(baseline, report)
                     and reports_identical(baseline, warm))
        encode_once = (all(count == 0 for count in encode_counts)
                       and all(count == 1 for count in shard_encodes))
        speedup = thread_s / process_s if process_s else float("inf")
        timings[f"process_{n_workers}w_s"] = process_s
        timings[f"process_{n_workers}w_boot_s"] = boot
        timings[f"process_{n_workers}w_steady_s"] = steady
        derived["bit_identical"] &= identical
        derived["encode_once"] &= encode_once
        derived[f"speedup_{n_workers}w"] = speedup
        if n_workers == args.workers:
            gated_speedup = speedup
        print(f"{f'process(x{n_workers})':<14} {process_s:>9.3f} "
              f"{args.reads / process_s:>12.1f} {speedup:>8.2f}x "
              f"{boot:>8.3f} {steady:>9.3f} {args.reads / steady:>11.1f} "
              f"{str(identical):>10}")
        if not identical:
            print(f"FAIL: process engine with {n_workers} workers is "
                  f"not bit-identical to the thread engine",
                  file=sys.stderr)
            failed = True
        if not encode_once:
            print(f"FAIL: encode-once violated with {n_workers} "
                  f"workers: worker encode counts {encode_counts}, "
                  f"shard encode counts {shard_encodes}",
                  file=sys.stderr)
            failed = True
        derived["shared_mib"] = shared_mib

    if args.min_speedup and (gated_speedup is None
                             or gated_speedup < args.min_speedup):
        print(f"FAIL: process@{args.workers} speedup "
              f"{(gated_speedup or 0.0):.2f}x < "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        failed = True
    derived["gate_passed"] = not failed

    write_bench_json(
        args.json, bench="bench_process_engine",
        config={"reads": args.reads, "read_length": args.read_length,
                "segments": args.segments, "shards": args.shards,
                "threshold": args.threshold,
                "condition": args.condition, "seed": args.seed,
                "workers": args.workers, "repeats": args.repeats,
                "smoke": args.smoke, "min_speedup": args.min_speedup},
        timings=timings, derived=derived,
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
