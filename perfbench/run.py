#!/usr/bin/env python3
"""Build the rsd_perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload row512_step --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The binary is configured and built (CMake, RelWithDebInfo) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, on first use;
later runs only re-check that it is up to date. Build output goes to
stderr. The binary's report goes to stdout, and its last line is the JSON
result, which this script checks against BENCHMARK.json's metric lists
before passing it on. The exit code is the binary's: 0 only when every op
passed its checks.

--self-check runs row512_step with one pinned row digest deliberately
wrong and passes only if the binary reports that op as failed and exits
non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure (once) and build the binary; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; nothing to build", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "rsd_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(bdir, "rsd_perfbench")
    return exe if os.path.isfile(exe) else None


def run_binary(exe, args):
    """Run the binary to completion; return (returncode, stdout lines)."""
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: rsd_perfbench timed out", file=sys.stderr)
        return None, []
    return proc.returncode, out.splitlines()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Parse and validate the binary's JSON result line; None if malformed."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict):
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    names = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        print(f"perfbench: metric mismatch with BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return None
    return result


def self_check(exe, bdir):
    args = ["--workload", "row512_step", "--seed", "1", "--seconds", "1", "--trace", "0",
            "--out-dir", os.path.join(bdir, "out"), "--corrupt-digest"]
    code, lines = run_binary(exe, args)
    for line in lines[:-1]:
        print(line)
    result = check_result(lines[-1], False) if lines else None
    flagged = any("FAILED op" in l and "ring/flat" in l for l in lines)
    ok = (code not in (None, 0) and result is not None and not result["correct"]
          and result["failed"] >= 1 and flagged)
    print(f"perfbench self-check: {'PASS' if ok else 'FAIL'} "
          f"(exit {code}, wrong digest {'reported' if flagged else 'NOT reported'})")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["row512_step", "fabric_mix", "trace_to_bounds"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if not a.self_check and a.workload is None:
        p.error("--workload is required")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if a.self_check:
        return self_check(exe, bdir)

    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out-dir", os.path.join(bdir, "out")]
    code, lines = run_binary(exe, args)
    if code is None or not lines:
        return 2
    result = check_result(lines[-1], bool(a.trace))
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        print("perfbench: rsd_perfbench printed no valid result", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
