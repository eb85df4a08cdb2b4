"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED_AT

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide), so set-up time covers interpreter
start, package import and input construction.  MODE is one of:

- ``plain``: run every operation of the workload once, then check the
  outputs against the oracles;
- ``traced``: the same with the program's layer boundaries instrumented;
  the spans are written to ``.bench_build/perfbench/spans-WORKLOAD.json``
  when the pass ends;
- ``setup``: stop after set-up.

It prints one JSON record on stdout.
"""

import sys
import time

_import_start = time.perf_counter()
import schubert_git.cli  # noqa: E402,F401  (the whole package, as the CLI loads it)

IMPORT_S = time.perf_counter() - _import_start

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

_FAILED = object()


def _peak_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def run_pass(workload: str, seed: int, traced: bool, spawned_at: float) -> dict:
    ops = workloads.BUILDERS[workload](seed)
    tracer = tracing.Tracer() if traced else tracing.NO_TRACE
    restore = tracing.instrument(tracer) if traced else None
    outputs: list = []
    failed = 0
    errors: list[str] = []

    setup_s = time.perf_counter() - spawned_at
    start = time.perf_counter()
    with tracer.span("bench"):
        for op in ops:
            try:
                with tracer.span(op.layer):
                    out = op.call()
            except Exception as exc:  # a fault in the program: count it, keep going
                out = _FAILED
                failed += op.weight
                errors.append(f"{op.layer}: {exc!r}")
            outputs.append(out)
    wall_s = time.perf_counter() - start
    if restore is not None:
        restore()  # the checks below call the program too, untraced

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": sum(op.weight for op in ops),
        "failed": failed,
        "errors": errors,
        "peak_rss_kb": _peak_rss_kb(),
    }
    check_start = time.perf_counter()
    record["problems"] = [p for op, out in zip(ops, outputs) if out is not _FAILED for p in op.check(out)]
    record["check_s"] = time.perf_counter() - check_start
    if traced:
        for op, out in zip(ops, outputs):
            if op.count is not None and out is not _FAILED:
                op.count(tracer.counts, out)
        cli_calls = [end - begin for name, begin, end, _ in tracer.spans if name == "cli"]
        record["busy_s"] = tracer.self_times()
        record["counts"] = dict(tracer.counts)
        record["cli_call_s"] = statistics.median(cli_calls) if cli_calls else 0.0
        record["cli_import_s"] = IMPORT_S
        tracer.dump(Path(".bench_build") / "perfbench" / f"spans-{workload}.json")
    return record


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_at = argv
    if mode == "setup":
        workloads.BUILDERS[workload](int(seed))
        record = {"setup_s": time.perf_counter() - float(spawned_at)}
    else:
        record = run_pass(workload, int(seed), mode == "traced", float(spawned_at))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
