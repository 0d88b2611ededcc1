#!/usr/bin/env python3
"""Compare a fresh benchmark JSON (bench_to_json.py output) against
BENCH_baseline.json and fail on regressions of the named hot-path
benchmarks.

Usage: bench_compare.py BASELINE.json NEW.json [--threshold 0.15]

A benchmark regresses when its ns/op exceeds the baseline by more than
the threshold (default 15%). Only the named hot-path benchmarks gate;
everything else is reported informationally. Benchmarks missing from
either side are reported and, if gated, fail the comparison (a renamed
hot benchmark must be renamed here too).
"""
import argparse
import json
import sys

# The hot-path benchmarks that gate: the per-event fire path, the ring
# emit/drain path, the streaming drain the tracers sustain, the
# trace-store read paths, online synthesis from disk to model, the
# simulated scheduler and event queue that produce every sched_switch,
# the steady-state traced session through the simulated middleware, and
# the multi-run Table II and Fig. 4 experiments, whose per-run DAG
# merges keep statistics only.
GATED = [
    "BenchmarkEBPF_DispatchDecoded",
    "BenchmarkEBPF_ProbeDispatch",
    "BenchmarkEBPF_PerfEmitPerCPU",
    "BenchmarkBundle_StreamDrain",
    "BenchmarkAlg1_StreamModel",
    "BenchmarkStoreStreamSession",
    "BenchmarkStoreStreamSessionV1",
    "BenchmarkStoreStreamSynthesize",
    "BenchmarkStoreStreamSynthesize60",
    "BenchmarkStoreQuerySession",
    "BenchmarkStoreQuerySessionWide",
    "BenchmarkSegmentWriteV2",
    "BenchmarkMetricsSinkObserve",
    "BenchmarkSnapshotIncremental/preload=2s",
    "BenchmarkSnapshotIncremental/preload=8s",
    "BenchmarkSnapshotIncremental/preload=16s",
    "BenchmarkSched_Reschedule",
    "BenchmarkSim_EngineAtRun",
    "BenchmarkSimulation_BothSecond",
    "BenchmarkTableII_AVPStats",
    "BenchmarkFig4_Convergence",
]

# Alloc regressions on the zero-alloc paths are failures at any size:
# the fire path (dispatch), ring emission, whose arena chunks return to
# the ring on every cursor release, the streaming ring->sink drain, whose
# B/op is per-drain-constant under the zero-copy decode, and the scheduler's
# decisions and event queue, which reuse their scratch and slots.
ZERO_ALLOC = [
    "BenchmarkEBPF_DispatchDecoded",
    "BenchmarkEBPF_ProbeDispatch",
    "BenchmarkEBPF_PerfEmitPerCPU",
    "BenchmarkBundle_StreamDrain",
    "BenchmarkMetricsSinkObserve",
    "BenchmarkSched_Reschedule",
    "BenchmarkSim_EngineAtRun",
]

# No allocs/op growth on the offline read, query and synthesis paths,
# nor on the steady-state message path. Their count is not zero (segment
# files, read buffers, the model itself; one Sample per DDS write), but
# any growth over the baseline is a failure, as for ZERO_ALLOC.
NO_ALLOC_GROWTH = [
    "BenchmarkAlg1_StreamModel",
    "BenchmarkSimulation_BothSecond",
    "BenchmarkStoreStreamSession",
    "BenchmarkStoreStreamSessionV1",
    "BenchmarkStoreStreamSynthesize",
    "BenchmarkStoreStreamSynthesize60",
    "BenchmarkStoreQuerySession",
    "BenchmarkStoreQuerySessionWide",
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=0.15)
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)["benchmarks"]
    with open(args.new) as f:
        new = json.load(f)["benchmarks"]

    failures = []
    rows = []
    for name in sorted(set(base) | set(new)):
        gated = name in GATED
        b, n = base.get(name), new.get(name)
        if b is None or n is None:
            side = "baseline" if b is None else "new run"
            rows.append((name, gated, f"missing from {side}"))
            if gated:
                failures.append(f"{name}: missing from {side}")
            continue
        ratio = n["ns_per_op"] / b["ns_per_op"] if b["ns_per_op"] else float("inf")
        note = f"{b['ns_per_op']:.0f} -> {n['ns_per_op']:.0f} ns/op ({ratio - 1:+.1%})"
        rows.append((name, gated, note))
        if gated and ratio > 1 + args.threshold:
            failures.append(f"{name}: {note} exceeds {args.threshold:.0%} threshold")
        if (name in ZERO_ALLOC or name in NO_ALLOC_GROWTH) and n.get("allocs_per_op", 0) > b.get("allocs_per_op", 0):
            failures.append(
                f"{name}: allocs/op grew {b.get('allocs_per_op', 0)} -> {n.get('allocs_per_op', 0)}"
            )

    width = max(len(r[0]) for r in rows)
    for name, gated, note in rows:
        marker = "*" if gated else " "
        print(f"{marker} {name:<{width}}  {note}")
    print(f"\n(* = gated at {args.threshold:.0%} ns/op regression)")

    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        sys.exit(1)
    print("no gated regressions")


if __name__ == "__main__":
    main()
