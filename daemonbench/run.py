#!/usr/bin/env python3
"""Build and run the privclusterd benchmark (see daemonbench/README.md).

One run (the form BENCHMARK.json's command takes):
    python3 daemonbench/run.py --workload W --seed N --seconds S --trace 0|1
Every workload, end-to-end and per-layer, in one command:
    python3 daemonbench/run.py --all [--seed N]
Steadiness: K seeds per workload, spread of each end-to-end metric:
    python3 daemonbench/run.py --steady K [--workload W]

The daemon and the benchmark are built from source with dune first; build
output goes to stderr, so the last stdout line of a run is its JSON result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "daemonbench", "bench.exe")
CLI = os.path.join("_build", "default", "bin", "privcluster_cli.exe")
WORK = ".daemonbench"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 900

child = None


def forward(signum, _frame):
    if child is not None and child.poll() is None:
        child.send_signal(signum)
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    sys.exit(128 + signum)


def wait_child(proc, timeout):
    global child
    child = proc
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The benchmark reaps its daemons on SIGTERM.
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print(f"run.py: run exceeded {timeout} s", file=sys.stderr)
        return 124
    finally:
        child = None


def build():
    proc = subprocess.Popen(
        ["dune", "build", "--root", ".", "./daemonbench/bench.exe", "./bin/privcluster_cli.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return wait_child(proc, BUILD_TIMEOUT_S) == 0


def run(workload, seed, seconds, trace, capture):
    args = [BENCH, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--cli", CLI]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE if capture else None, text=True)
    if not capture:
        return wait_child(proc, RUN_TIMEOUT_S), None
    global child
    child = proc
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        wait_child(proc, 0)
    child = None
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def contract():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_all(seed, seconds):
    capture = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in contract()["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, result = run(name, seed, seconds, trace, capture=True)
            ok = ok and code == 0 and result is not None and result["correct"]
            capture["workloads"].setdefault(name, {})["end_to_end" if trace == 0 else "per_layer"] = result
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "capture.json")
    with open(path, "w") as f:
        json.dump(capture, f, indent=2)
    print(f"# capture written to {path}; verdict: {'all checks passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def steady(k, seconds, only):
    spec = contract()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        if only and name != only:
            continue
        values = {}
        for seed in range(1, k + 1):
            code, result = run(name, seed, seconds, 0, capture=True)
            if code != 0 or result is None or not result["correct"]:
                print(f"# {name} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        print(f"# steadiness of {name} over {k} seeds")
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(m, 0)
            flag = "OUTSIDE BOUND" if spread > bound else ("ok" if spread < bound / 3 else "within bound")
            print(f"  {name:12s} {m:24s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:6.3f} / bound {bound}  {flag}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--steady", type=int, metavar="K")
    a = p.parse_args()
    os.chdir(ROOT)
    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, forward)
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    seconds = a.seconds or contract()["run_seconds"]
    if a.all:
        return run_all(a.seed, seconds)
    if a.steady:
        return steady(a.steady, seconds, a.workload)
    if not a.workload:
        p.error("--workload is required for a single run")
    code, _ = run(a.workload, a.seed, seconds, a.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
