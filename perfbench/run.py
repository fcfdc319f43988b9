#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload solve-par|solve-inline|serve-mixed \
        [--seed N] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --calibrate [--seed N]

Run from the repository root. Builds the release `ri-serve` and
`ri-router` binaries and the `perfbench` measuring program into
$CARGO_TARGET_DIR (default `.bench_build`), then measures. For
`serve-mixed`, and for every traced run, it owns the serving fleet: an
`ri-router --spawn 2` fronting two single-executor `ri-serve` shards at
pool width 1. The last stdout line is the result JSON
(`correct`, `attempted`, `failed`, `metrics`); the line before it records
the host the numbers came from. Results from hosts with different stamps
must never be compared.
"""

import argparse
import ctypes
import glob
import hashlib
import http.client
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("solve-par", "solve-inline", "serve-mixed")
DEFAULT_SEED = 1
# The serving fleet is spawned this many times per run; set-up is the median.
FLEET_SETUPS = 15
FLEET_READY_TIMEOUT_S = 60.0
# Files the benchmark needs from the repository; without them it cannot build.
REPO_MARKERS = ("Cargo.toml", "Cargo.lock", "src/registry.rs",
                "crates/serve/Cargo.toml", "crates/router/Cargo.toml")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--calibrate", action="store_true")
    args = p.parse_args()
    if not args.calibrate and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0 or not 0 <= args.seed < 2**64:
        p.error("--seconds must be positive and --seed in [0, 2^64)")
    return args


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "ri-serve", "-p", "ri-router"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            fail(f"build failed: {' '.join(cmd)}")
    return {name: os.path.join(target_dir(), "release", name)
            for name in ("ri-serve", "ri-router", "perfbench")}


def source_digest():
    """A digest of every source file the build reads (the checkout this
    runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for root in ("src", "crates", "vendor", "perfbench"):
        paths += glob.glob(f"{root}/**/*", recursive=True)
    for path in sorted(p for p in paths if os.path.isfile(p)):
        if "/target/" in path:
            continue
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def host_stamp(wmax):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                           text=True).stdout.strip()
    commit = "none"
    if os.path.isdir(".git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            "rustc": rustc, "commit": commit, "source": source_digest(),
            "wmax": wmax}


def resolved_wmax():
    return len(os.sched_getaffinity(0))


class Fleet:
    """An `ri-router` with two spawned shards, in a process group of its
    own so that stopping it stops the shards too."""

    def __init__(self, bins):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["ri-router"], "--addr", "127.0.0.1:0", "--spawn", "2",
             "--serve-bin", bins["ri-serve"], "--threads-per-shard", "1",
             "--executors-per-shard", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True)
        self.addr = None
        try:
            self.addr = self._routing_addr()
            self._await_healthy()
        except Exception:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.t0

    def _routing_addr(self):
        deadline = self.t0 + FLEET_READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("routing on "):
                    return line.split()[-1]
        raise RuntimeError("ri-router never printed its address")

    def healthz(self):
        host, port = self.addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request("GET", "/healthz")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def _await_healthy(self):
        deadline = self.t0 + FLEET_READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if self.healthz().get("status") == "ok":
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.0005)
        raise RuntimeError("fleet never reported healthy")

    def pids(self):
        pids = [self.proc.pid]
        for path in glob.glob(f"/proc/{self.proc.pid}/task/*/children"):
            try:
                with open(path) as f:
                    pids += [int(p) for p in f.read().split()]
            except OSError:
                pass
        return pids

    def peak_rss_mb(self):
        total = 0.0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def stop(self):
        """Kill the router and its shards and wait until each has ended."""
        children = self.pids()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        # The shards were re-parented to this process (a child subreaper).
        for pid in children[1:]:
            while True:
                try:
                    os.waitpid(pid, 0)
                    break
                except ChildProcessError:
                    if ended(pid):
                        break
                    time.sleep(0.01)


def ended(pid):
    """Whether `pid` is gone or a zombie another process has to reap."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def become_subreaper():
    """Orphaned shards re-parent to this process, so it can reap them."""
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def run_perfbench(bins, args, wmax, router):
    cmd = [bins["perfbench"], "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--wmax", str(wmax)]
    cmd += ["--calibrate"] if args.calibrate else [
        "--workload", args.workload, "--trace", str(args.trace)]
    if router:
        cmd += ["--router", router]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"measuring program failed (exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    args = parse_args()
    missing = [m for m in REPO_MARKERS if not os.path.isfile(m)]
    if missing:
        fail(f"run from the repository root; missing {', '.join(missing)}")
    become_subreaper()
    bins = build()
    wmax = resolved_wmax()
    stamp = host_stamp(wmax)

    needs_fleet = args.calibrate or args.workload == "serve-mixed" or args.trace == 1
    fleet, setups = None, []
    try:
        for _ in range(FLEET_SETUPS if needs_fleet else 0):
            if fleet:
                fleet.stop()
                fleet = None
            fleet = Fleet(bins)
            setups.append(fleet.setup_s)
        result = run_perfbench(bins, args, wmax, fleet.addr if fleet else None)
        if args.workload == "serve-mixed" and args.trace == 0:
            metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
            metrics.update(result["metrics"])
            metrics["peak_rss_mb"] = {"value": fleet.peak_rss_mb(), "unit": "MiB"}
            result["metrics"] = metrics
    finally:
        if fleet:
            fleet.stop()
    print(json.dumps({"host": stamp, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
