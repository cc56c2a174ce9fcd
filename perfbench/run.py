#!/usr/bin/env python3
"""The rc11lib benchmark: the CLI front ends timed end to end, plus a traced
per-layer run.

    python3 perfbench/run.py --workload store_fan --seed 1 --seconds 28 --trace 0

Run from the repository root.  The first run configures and builds the
tools and rc11-layers in Release mode into .bench_build/ (perfbench/
CMakeLists.txt); later runs only check that build is up to date.

--trace 0 times the workload's tool at --threads 1 and --threads 4 and its
set-up probe, round after round, until --seconds have passed, and reports
the end-to-end metrics (times as the fastest repeat).  --trace 1 runs rc11-layers for --seconds
and one --threads 4 run of the tool, and reports the per-layer metrics.
Every run's verdict and counters are checked against perfbench/expected.json
(see README.md); the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --record   # rewrite expected.json from t1 runs
"""

import argparse
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "runs"
EXPECTED = HERE / "expected.json"
PROGRAMS = "perfbench/programs/"

# Each workload: the tool, its flags, its programs, and the rc11-layers
# front end that mirrors it.  Programs are passed relative to the root, so
# the recorded --json summaries name them the same way on every checkout.
WORKLOADS = {
    "store_fan": ("rc11-run", [], ["store_fan.rc11"], ["run"]),
    "ticket_sym": ("rc11-run", ["--symmetry", "--por"], ["ticket_sym.rc11"],
                   ["run", "--symmetry", "--por"]),
    "ticket_outline": ("rc11-verify", ["--trace"], ["ticket_outline.rc11"],
                       ["verify", "--trace"]),
    "seqlock_refine": ("rc11-refine", [],
                       ["seqlock_abstract.rc11", "seqlock_concrete.rc11"],
                       ["refine"]),
}

# Counters that do not depend on the schedule: at --threads 4 only these,
# and the verdict, must match the recorded --threads 1 summary.
STABLE = {"states", "transitions", "finals", "blocked", "outcomes",
          "violations", "obligations_checked", "candidate_pairs",
          "surviving_pairs", "product_nodes"}
VERDICT = {"truncated", "stop", "valid", "inconclusive", "failures",
           "refines", "holds"}
# Counters that vary run to run at --threads 4; reported as layer metrics.
T4_COUNTERS = ["peak_frontier", "visited_bytes", "por_chained",
               "symmetry_hits", "sleep_set_skips"]

# A set-up probe stops after the first state, so its run is inconclusive
# (exit 3); rc11-refine reports a capped run as DOES NOT REFINE (exit 2).
PROBE_EXITS = {2, 3}
PROBES_PER_ROUND = 8
PROCESS_LIMIT_S = 100


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no rc11 sources (src/CMakeLists.txt is missing)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "rc11-run", "rc11-verify", "rc11-refine", "rc11-layers"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    OUT.mkdir(exist_ok=True)


def spawn(cmd):
    """Runs cmd from the root; returns (exit code, wall seconds, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    killer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
    killer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def tool_cmd(name, extra):
    tool, flags, programs, _ = WORKLOADS[name]
    return ([str(BUILD / "tools" / tool)] + flags + extra +
            [PROGRAMS + p for p in programs])


def run_tool(name, threads):
    """One checked run; returns (exit, wall, rss, summary or None)."""
    out = OUT / f"{name}-t{threads}.json"
    out.unlink(missing_ok=True)
    code, wall, rss = spawn(tool_cmd(
        name, ["--threads", str(threads), "--json", str(out.relative_to(ROOT))]))
    summary = json.loads(out.read_text()) if out.is_file() else None
    return code, wall, rss, summary


def flatten(obj, prefix=""):
    flat = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def stable_part(summary):
    return {k: v for k, v in flatten(summary).items()
            if k.rsplit(".", 1)[-1] in STABLE | VERDICT}


def states_of(summary):
    if "stats" in summary:
        return summary["stats"]["states"]
    sim = summary["simulation"]
    return sim["abstract_states"] + sim["concrete_states"]


def check(expected, threads, code, summary):
    """True iff a run matches the record: the whole summary at --threads 1,
    the verdict and schedule-independent counters at --threads 4."""
    if code != expected["exit"] or summary is None:
        return False
    if threads == 1:
        return summary == expected["summary"]
    return stable_part(summary) == stable_part(expected["summary"])


def end_to_end(name, seconds, seed, expected):
    rng = random.Random(seed)
    walls = {1: [], 4: []}
    rss, setup = [], []
    attempted = failed = 0

    def tool_run(threads):
        nonlocal attempted, failed
        code, wall, peak, summary = run_tool(name, threads)
        attempted += 1
        if not check(expected, threads, code, summary):
            failed += 1
            print(f"perfbench: {name} --threads {threads} run does not match "
                  f"the record (exit {code})", file=sys.stderr)
        return wall, peak

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ops = [1, 4] + ["probe"] * PROBES_PER_ROUND
        rng.shuffle(ops)
        for op in ops:
            # Stop between operations once every series has a sample.
            if (time.perf_counter() - start >= seconds and walls[1] and
                    walls[4] and setup):
                break
            if op == "probe":
                code, wall, _ = spawn(tool_cmd(name, ["--max-states", "1"]))
                attempted += 1
                if code not in PROBE_EXITS:
                    failed += 1
                setup.append(wall)
                continue
            wall, peak = tool_run(op)
            walls[op].append(wall)
            if op == 1:
                rss.append(peak)
    for threads, series in walls.items():
        print(f"{name} --threads {threads}: {len(series)} runs, median "
              f"{statistics.median(series):.4f} s, min {min(series):.4f} s")
    # Times are the fastest repeat: the noise of a shared host only ever
    # adds time, and the minimum is the estimate that repeats best.
    wall_s = min(walls[1])
    return attempted, failed, {
        "wall_s": wall_s,
        "states_per_s": states_of(expected["summary"]) / wall_s,
        "wall_s_t4": min(walls[4]),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }


def per_layer(name, seconds, expected):
    attempted, failed = 2, 0
    cmd = [str(BUILD / "rc11-layers"), "--seconds", str(seconds)]
    cmd += WORKLOADS[name][3] + [PROGRAMS + p for p in WORKLOADS[name][2]]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + PROCESS_LIMIT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"rc11-layers printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])
    metrics = report["metrics"]
    if (proc.returncode != 0 or not report["self_check"] or
            metrics["mirror.states"] != states_of(expected["summary"])):
        failed += 1
        print("perfbench: rc11-layers self-check failed", file=sys.stderr)
    code, _, _, summary = run_tool(name, 4)
    if not check(expected, 4, code, summary):
        failed += 1
    stats = (summary or {}).get("stats", {})
    for key in T4_COUNTERS:
        metrics["t4." + key] = stats.get(key, 0)
    return attempted, failed, metrics


def record():
    build()
    runs = {}
    for name in WORKLOADS:
        code, _, _, summary = run_tool(name, 1)
        runs[name] = {"exit": code, "summary": summary}
        print(f"{name}: exit {code}, {states_of(summary)} states")
    EXPECTED.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the runs within a round; the workloads are "
                         "exhaustive and deterministic, so no input depends "
                         "on it")
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json and exit")
    args = ap.parse_args()
    if args.record:
        record()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if not EXPECTED.is_file():
        fail(f"{EXPECTED} is missing")
    expected = json.loads(EXPECTED.read_text())[args.workload]
    build()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        attempted, failed, values = per_layer(args.workload, args.seconds,
                                              expected)
    else:
        attempted, failed, values = end_to_end(args.workload, args.seconds,
                                               args.seed, expected)
    metrics = {}
    for m in spec[kind]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {values[m['name']]:.6g} "
              f"{m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
