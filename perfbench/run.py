#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a Release build of the easyscale libraries plus the
benchmark binary) into .bench_build/ on first use, runs the workload, checks
the binary's result line against BENCHMARK.json (every metric of the mode
exactly once, finite, with its unit) and prints it as the last line of
standard output.  Exits non-zero, without a result line, when the build,
the run or that check fails; exits 1 after the result line when a
correctness gate of the workload failed.  See perfbench/README.md.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    # One build at a time per build tree, should two runs start together.
    with open(out.parent / "perfbench.lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", "4"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if proc.returncode != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)}")
    binary = out / "perfbench"
    if not binary.is_file():
        raise BenchError(f"build produced no binary at {binary}")
    return binary


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              check=False)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise BenchError(f"duplicate keys in result: {sorted(dup)}")
    return dict(pairs)


def validate(line, spec, trace):
    """Check one result line against BENCHMARK.json; return it parsed."""
    try:
        result = json.loads(line, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as e:
        raise BenchError(f"result line is not JSON: {e}") from e
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise BenchError("result must have exactly correct/attempted/failed/"
                         "metrics")
    if not isinstance(result["correct"], bool):
        raise BenchError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) \
                or result[key] < 0:
            raise BenchError(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("'attempted' must be at least 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise BenchError(f"metric set mismatch: missing {missing}, "
                         f"unexpected {extra}")
    for name, unit in expected.items():
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise BenchError(f"metric {name} must be {{value, unit}}")
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise BenchError(f"metric {name} is not a finite number: {value}")
        if m["unit"] != unit:
            raise BenchError(f"metric {name} has unit {m['unit']!r}, "
                             f"BENCHMARK.json says {unit!r}")
    return result


def run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{args.workload} exceeded {RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        raise BenchError(f"perfbench exited {proc.returncode} without a "
                         "result")
    result = validate(lines[-1], spec, args.trace)
    if result["correct"] != (proc.returncode == 0):
        raise BenchError("exit code disagrees with 'correct'")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        sys.exit(run(args, load_spec()))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
