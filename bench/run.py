"""Benchmark command for seglang: three closed-loop workloads.

    python3 bench/run.py --workload {train,replay,probe} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --smoke        # toy config, every workload and check

Run from the repository root; the program is imported from ./src, so nothing
needs installing. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of an outside-in traced run with --trace 1.
A traced run also prints its per-op layer table and writes its spans to
bench/results/. See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, "work")


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # noqa: F401  (imports seglang)
    import tracing  # noqa: F401
    return workloads, tracing


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, list[str]]:
    """One run; returns (the result object, report lines)."""
    workloads, tracing = _import_program()
    profile = workloads.SMOKE if smoke else workloads.FULL
    tracer = tracing.Tracer(profile.gap_split_rows) if trace else None
    workroot = os.path.join(WORK_DIR, f"{workload}-{profile.name}-s{seed}-"
                                      f"p{os.getpid()}")
    try:
        out = workloads.run(workload, profile, seed, seconds, workroot, tracer)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    done = out.attempted - out.failed
    lines = [f"workload {workload} ({profile.name}), seed {seed}: "
             f"{out.attempted} ops attempted, {out.failed} failed, "
             f"{len(out.op_ms)} op latencies, timed {out.timed_s:.2f} s, "
             f"{len(out.setup_s)} set-ups"]
    lines += out.notes
    lines += [f"CHECK FAILED: {m}" for m in out.failures]
    if trace:
        metrics, table = tracer.per_layer(len(out.setup_s), done, out.timed_s,
                                          out.op_ms)
        lines.append(tracing.format_table(
            table, metrics["trace.op_ms"],
            f"per-op layer table ({workload}, traced, {done} ops)"))
        os.makedirs(RESULTS_DIR, exist_ok=True)
        spans = os.path.join(RESULTS_DIR, f"spans-{workload}-{profile.name}-"
                                          f"s{seed}.jsonl")
        tracer.write(spans)
        lines.append(f"{len(tracer.spans)} spans -> {spans}")
        units = {"calls": "count", "self_ms": "ms", "rows": "rows",
                 "short": "ms", "long": "ms", "rss_delta_kb": "kB",
                 "op_ms": "ms", "op_ms_p50": "ms", "unaccounted_ms": "ms"}
        reported = {name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
                    for name, value in metrics.items()}
    else:
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.end_to_end().items()}
        for name, m in reported.items():
            lines.append(f"{name:12s} {m['value']:12.4f} {m['unit']}")
    result = {"correct": not out.failures, "attempted": out.attempted,
              "failed": out.failed, "metrics": reported}
    return result, lines


def smoke(seconds: float) -> int:
    """Every workload, untraced and traced, on the canvas-16 toy config."""
    ok = True
    for workload in ("train", "replay", "probe"):
        for trace in (False, True):
            result, lines = run_one(workload, 0, seconds, trace, smoke=True)
            print("\n".join(lines))
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if good else 'FAILED'}\n")
    print("smoke: all workloads correct" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("train", "replay", "probe"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy config (canvas 16), all workloads, seconds")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "seglang")):
        print(f"bench: no program at {os.path.join(ROOT, 'src', 'seglang')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(1.0)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, lines = run_one(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print("\n".join(lines))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{args.workload}-s{args.seed}-"
                                        f"t{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
