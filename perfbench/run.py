#!/usr/bin/env python3
"""End-to-end benchmark of the Choco-Q reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper_scales --seed 1 --seconds 30 --trace 0

Builds perfbench_driver and chocoq_serve from source into
.bench_build/perfbench (first run only; later runs reuse the build),
runs one workload, and prints its notes followed by one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit status is non-zero when the build fails or any correctness
check fails. See perfbench/README.md for workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper_scales", "repeat_stream", "wire_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SERVE = os.path.join(BUILD, "chocoq", "chocoq_serve")
# A hung workload fails instead of blocking its caller.
CHILD_TIMEOUT_S = 170
SERVER_STARTS = 11


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then let the build tool skip up-to-date targets."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("the chocoq sources are not next to perfbench/; nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "chocoq_serve", "-j", str(min(4, cpu_count()))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def child_env():
    env = dict(os.environ)
    # Default single-threaded kernels: the workloads measure one core per
    # solve; worker counts below provide the concurrency.
    env["CHOCOQ_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_driver(argv):
    """Run perfbench_driver; return (exit code, note lines, result dict)."""
    proc = subprocess.run([DRIVER] + argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, env=child_env())
    sys.stderr.write(proc.stderr)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    return proc.returncode, lines, result


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def start_server(workers, port_file):
    """Start chocoq_serve on an ephemeral loopback port; return the
    process, its port, and the seconds until the port was published."""
    if os.path.exists(port_file):
        os.remove(port_file)
    t0 = time.perf_counter()
    # Small cache and registry budgets: both fill and evict early in a
    # run, so peak memory does not grow with the number of jobs served.
    proc = subprocess.Popen([SERVE, "--listen", "0", "--port-file",
                             port_file, "--workers", str(workers),
                             "--cache-mb", "8", "--registry-mb", "8",
                             "--quiet"],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=child_env())
    while True:
        if proc.poll() is not None:
            raise RuntimeError("chocoq_serve exited during start-up")
        try:
            with open(port_file) as f:
                text = f.read().strip()
            if text:
                return proc, int(text), time.perf_counter() - t0
        except (OSError, ValueError):
            pass
        if time.perf_counter() - t0 > 30:
            stop(proc)
            raise RuntimeError("chocoq_serve did not publish its port")
        time.sleep(0.0005)


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def run_wire(args, nproc):
    """wire_mixed: a chocoq_serve process driven by the client driver.
    Its set-up adds the server's start-up (median of SERVER_STARTS) to the
    client's; its peak memory is the server's."""
    workers = max(1, nproc // 2)
    connections = max(1, nproc)
    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    port_file = os.path.join(run_dir, "port-%d.txt" % os.getpid())
    starts = []
    server = None
    try:
        for i in range(SERVER_STARTS):
            server, port, seconds = start_server(workers, port_file)
            starts.append(seconds)
            if i + 1 < SERVER_STARTS:
                stop(server)
                server = None
        code, notes, result = run_driver(
            ["wire_client", "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace), "--port",
             str(port), "--connections", str(connections)])
        rss = peak_rss_mb(server.pid)
    finally:
        if server is not None:
            stop(server)
        if os.path.exists(port_file):
            os.remove(port_file)
    notes.append("# wire_mixed: server workers %d, client connections %d, "
                 "server start-up %s s" % (
                     workers, connections,
                     " / ".join("%.6f" % s for s in starts)))
    if result is not None:
        metrics = result.get("metrics", {})
        if "setup_s" in metrics:
            metrics["setup_s"]["value"] += statistics.median(starts)
        if "peak_rss_mb" in metrics:
            metrics["peak_rss_mb"]["value"] = rss
    return code, notes, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        return 2
    nproc = cpu_count()
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    try:
        if args.workload == "paper_scales":
            code, notes, result = run_driver(["paper_scales"] + common)
        elif args.workload == "repeat_stream":
            code, notes, result = run_driver(
                ["repeat_stream"] + common
                + ["--workers", str(max(1, nproc // 2))])
        else:
            code, notes, result = run_wire(args, nproc)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("workload failed: %s" % e)
        return 1
    for line in notes:
        print(line)
    if result is None:
        log("the driver printed no result (exit %d)" % code)
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
