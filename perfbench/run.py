#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload batch-2m --seed 7 --seconds 30 --trace 0

Run from the root of a source tree.  The first run builds perfbench/ (and
with it the gnumap libraries under src/) in an optimised build under
.perfbench_build/ and runs the benchmark's self-test; later runs reuse the
build.  A run then

  1. prepares the seeded inputs and the expected outputs (untimed, in
     its own process, under .perfbench_work/),
  2. measures the workload in a second process, which checks every output
     it is given against the expected bytes,
  3. prints a host record line and, as its last stdout line, the result
     object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics (perfbench/LAYERS.md says what each one
measures and which end-to-end metric it should move).  peak_rss_mb is the
measuring process's peak resident set, taken from wait4().

Exit status: 0 for a correct run, 1 when an output was wrong or a check
failed, 2 when the run could not be made (no sources, build failure,
timeout).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".perfbench_build"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("batch-2m", "serve-amplicon", "router-amplicon")
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170  # prepare + measure, after any build


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cpu_times():
    """Aggregate /proc/stat jiffies: (total, steal)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted in user/nice
    return sum(values[:8]), steal


def build():
    """Configure and build the benchmark; run the self-test after a rebuild."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
               "perfbench", "perfbench_selftest"], "build")
    program = BUILD / "perfbench"
    selftest = BUILD / "perfbench_selftest"
    stamp = BUILD / "selftest.passed"
    built = f"{program.stat().st_mtime_ns} {selftest.stat().st_mtime_ns}"
    if not stamp.exists() or stamp.read_text() != built:
        run_quiet([str(selftest)], "self-test")
        stamp.write_text(built)
    return program


def run_quiet(cmd, what):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{what} failed ({' '.join(cmd)})")


def run_phase(cmd, deadline):
    """Runs one program phase; returns (exit status, stdout, rusage).

    The child is reaped with our own wait4() so its rusage (peak RSS) is
    its own, not the maximum over every child this script started.
    Its stdout is one JSON line, small enough to read after it exits.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            fail(f"{cmd[1]} phase exceeded the run budget")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read()
    proc.stdout.close()
    return proc.returncode, out, usage


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no gnumap sources under {ROOT / 'src'}; run from a full "
             "source tree")
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the source root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in wanted}

    program = build()

    load_1m = os.getloadavg()[0]
    cpu_before = cpu_times()
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--dir", str(work)]
    try:
        status, _, _ = run_phase([str(program), "prepare"] + common, deadline)
        if status != 0:
            fail(f"prepare failed with status {status}")
        status, out, usage = run_phase([str(program), "measure"] + common,
                                       deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        fail(f"measure produced no result (status {status})")
    raw = json.loads(lines[-1])

    metrics = raw["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0,
                                  "unit": "MB"}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"metric set does not match BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")

    cpu_after = cpu_times()
    steal_share = None
    if cpu_before and cpu_after and cpu_after[0] > cpu_before[0]:
        steal_share = ((cpu_after[1] - cpu_before[1]) /
                       (cpu_after[0] - cpu_before[0]))
    host = dict(raw["host"])
    host.update({"nproc": os.cpu_count(), "load_1m": load_1m,
                 "steal_share": steal_share,
                 "wall_s": time.monotonic() - started,
                 "workload": args.workload, "seed": args.seed,
                 "trace": args.trace})
    print("# host " + json.dumps(host, sort_keys=True))
    result = {"correct": bool(raw["correct"]) and status == 0,
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    sys.stdout.flush()
    if not result["correct"]:
        print(f"perfbench: {args.workload} seed {args.seed}: "
              f"{result['failed']} of {result['attempted']} operations "
              "failed their correctness check", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
