"""Benchmark entry point: runs one workload for a fixed time and prints its
metrics as the last line of standard output.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Each pass of the workload runs in a fresh interpreter (``worker.py``), so
the program's normal-form cache starts cold as it does for every command
line call.  Passes are repeated until the next one would end past
``--seconds`` (at least three are run), and every metric is the median
over the passes.  ``setup_s`` takes the median of at least nine set-up
samples, adding set-up-only processes when there are fewer passes.  With
``--trace 1`` the passes alternate between untraced and traced, and the
per-layer metrics come from the traced ones.

Exit codes: 0 when every output agrees with the oracles; 1 when a check
failed or an operation raised (the result line is still printed, with
"correct": false); 2 when the checkout holds no program to run; 3 when a
pass crashed, or the run was still going after 170 s.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
MIN_PASSES = 3
# setup_s is the median of at least this many samples; set-up-only
# processes make up the number when the passes are fewer.
SETUP_SAMPLES = 9
# A run gives up this long after it started, so it always ends within the
# three minutes a caller may wait for it.
DEADLINE_S = 170


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _run_pass(workload: str, seed: int, mode: str, env: dict, deadline: float) -> dict:
    spawned_at = time.perf_counter()
    # A new process group, so that a hung pass is stopped together with
    # the command line processes it started.
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(seed), mode, repr(spawned_at)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("the run passed its deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": _median(setups),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "ops_per_s": _median([p["ops"] / p["wall_s"] for p in passes]),
        "peak_rss_mb": _median([p["peak_rss_kb"] / 1024 for p in passes]),
    }


def per_layer(names: list[str], traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Medians over the traced passes.  A layer the workload never calls
    reads 0."""
    special = {
        "cli.import_s": _median([p["cli_import_s"] for p in traced]),
        "cli.call_s": _median([p["cli_call_s"] for p in traced]),
        "trace.overhead_s": _median([p["wall_s"] for p in traced])
        - _median([p["wall_s"] for p in untraced]),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".busy_s"):
            layer = name[: -len(".busy_s")]
            out[name] = _median([p["busy_s"].get(layer, 0.0) for p in traced])
        else:
            out[name] = statistics.median_low([p["counts"].get(name, 0) for p in traced])
    return out


def tally(passes: list[dict]) -> dict:
    """Operations attempted and failed over all passes.  An operation that
    raised has no output to check, so it makes the run incorrect too."""
    failed = sum(r["failed"] for r in passes)
    return {
        "correct": failed == 0 and not any(r["problems"] for r in passes),
        "attempted": sum(r["ops"] for r in passes),
        "failed": failed,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "schubert_git" / "__init__.py").is_file():
        print(f"error: no src/schubert_git under {root}; run from the repository root", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    passes: list[tuple[bool, dict]] = []
    setups: list[float] = []
    try:
        # Untimed: writes the bytecode caches before the first measured pass.
        _run_pass(args.workload, args.seed, "setup", env, deadline)
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            record = _run_pass(args.workload, args.seed, "traced" if traced else "plain", env, deadline)
            passes.append((traced, record))
            print(
                f"pass {len(passes)} {'traced' if traced else 'plain'}: wall {record['wall_s']:.3f} s, "
                f"setup {record['setup_s']:.3f} s, {record['ops']} ops, {record['failed']} failed",
                file=sys.stderr,
            )
            for line in record["errors"] + record["problems"]:
                print(f"  {line}", file=sys.stderr)
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        setups = [r["setup_s"] for t, r in passes if not t]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_run_pass(args.workload, args.seed, "setup", env, deadline)["setup_s"])
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {args.workload} pass {len(passes) + 1}: {exc}", file=sys.stderr)
        return 3

    untraced = [r for t, r in passes if not t]
    traced_passes = [r for t, r in passes if t]
    if args.trace:
        values = per_layer(list(units), traced_passes, untraced)
    else:
        values = end_to_end(untraced, setups)
    result = tally([r for _, r in passes])
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
