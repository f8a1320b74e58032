#!/usr/bin/env python3
"""Self-test of the repo benchmark's output.

    python3 perfbench/self_test.py

Runs every workload of BENCHMARK.json at minimum length (one second),
untraced and traced, through perfbench/run.py.  Each run must exit 0 and
end with a result line that run.py's check accepts: every metric of the
mode printed exactly once, finite and with its BENCHMARK.json unit, and
no failed operation.  The traced run is made twice per workload, and the
deterministic counts (kernel calls per step, bucket count, cluster events,
simulated JCT) must repeat exactly.  Exits non-zero on the first failure.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (perfbench/run.py)

DETERMINISTIC = ("kernels.gemm.calls", "kernels.conv.calls",
                 "kernels.reduce.calls", "kernels.scatter.calls",
                 "comm.buckets", "cluster.events", "sim_jct_p50_s")


def run_once(workload, trace, seed=1):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False, cwd=HERE.parent)
    if proc.returncode != 0:
        raise bench.BenchError(f"{workload} trace={trace} exited "
                               f"{proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines[0].startswith("# context {"):
        raise bench.BenchError(f"{workload}: no context line")
    json.loads(lines[0][len("# context "):])
    result = bench.validate(lines[-1], bench.load_spec(), trace)
    if not result["correct"] or result["failed"] != 0:
        raise bench.BenchError(f"{workload} trace={trace} failed a check")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = bench.load_spec()
    try:
        for w in spec["workloads"]:
            name = w["name"]
            run_once(name, 0)
            first = run_once(name, 1)
            again = run_once(name, 1)
            for key in DETERMINISTIC:
                if first[key] != again[key]:
                    raise bench.BenchError(
                        f"{name}: {key} differs between runs "
                        f"({first[key]} vs {again[key]})")
            print(f"ok {name}")
    except bench.BenchError as e:
        print(f"FAIL {e}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
