#!/usr/bin/env python3
"""The repository benchmark of nvmcache; perfbench/NOTES.md describes its
workloads, metrics and findings.

    python3 perfbench/run.py --workload server-suite|daemon-compare
                             --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the program from source into
.bench_build/ (Release), runs the workload for about S seconds, checks
every output against perfbench/pins.json, prints each metric by name and
unit, and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics of a
separate traced run with --trace 1. It exits 1 without that line when
it cannot build or run the program, and 1 after it when an output was
wrong.
"""

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import bench_lib
import daemon

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
BUILD = ".bench_build"
WORK = os.path.join(BUILD, "perfbench")
CLI = os.path.join(BUILD, "tools", "nvmcache")
LAYERS = os.path.join(BUILD, "perfbench_layers")

JOBS = 4
MIN_REPS = 3            # study launches / daemon sessions per run, at least
SETUP_LAUNCHES = 5      # set-up-only launches per round
CHILD_TIMEOUT_S = 100
WARM_PER_COLD = 3       # server-suite warm requests per cold request
WORKLOADS = ("server-suite", "daemon-compare")

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"), ("requests_per_s", "1/s"),
    ("cold_p50_ms", "ms"), ("cold_p90_ms", "ms"), ("warm_p90_ms", "ms"),
)
# Printed with the end-to-end metrics but not reported: the daemon's warm
# median sits where warm requests start to queue behind cold ones, and
# its spread across seeds (0.14-0.36) exceeds any bound the benchmark
# may set. The traced run reports it as service.warm_rtt_ms_p50.
SHOWN_ONLY = (("warm_p50_ms", "ms"),)
PER_LAYER = (
    ("workload.record_s", "s"), ("workload.record_maccess_per_s", "Macc/s"),
    ("workload.packed_bytes_per_access", "B/access"),
    ("workload.traces", "count"),
    ("sim.private_record_s", "s"), ("sim.replay_single_s", "s"),
    ("sim.replay_multi_s", "s"), ("sim.replay_maccess_per_s", "Macc/s"),
    ("sim.runs", "count"), ("sim.cycles", "cycles"),
    ("sim.llc_demand_misses", "count"), ("sim.llc_writebacks", "count"),
    ("prism.characterize_s", "s"),
    ("prism.characterize_maccess_per_s", "Macc/s"),
    ("correlate.fit_s", "s"),
    ("core.pool_busy_frac", "fraction"), ("core.simulations", "count"),
    ("core.memo_hits", "count"), ("core.trace_builds", "count"),
    ("core.unattributed_frac", "fraction"), ("core.traced_total_s", "s"),
    ("store.load_ms_p50", "ms"), ("store.put_ms_p50", "ms"),
    ("store.run_record_bytes", "B"), ("store.trace_record_bytes", "B"),
    ("store.hits", "count"), ("store.writes", "count"),
    ("service.queue_wait_ms_p50", "ms"), ("service.queue_wait_ms_p90", "ms"),
    ("service.run_ms_warm_p50", "ms"), ("service.run_ms_cold_p50", "ms"),
    ("service.transport_ms_p50", "ms"), ("service.warm_rtt_ms_p50", "ms"),
    ("service.coalesced_frac", "fraction"), ("service.rejected", "count"),
)


class Failure(Exception):
    """One attempt (a study launch or a daemon request) went wrong."""


def note(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------


def build():
    """Configure (once) and build the CLI and perfbench_layers."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "nvmcache_cli",
                  "perfbench_layers", "--parallel", str(JOBS)])
    with open(log_path, "ab") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path, "rb") as f:
                    tail = f.read()[-3000:].decode(errors="replace")
                note(tail)
                raise SystemExit("perfbench: build failed (%s)" % log_path)


# --- child processes -------------------------------------------------------


def launch(cmd, log_name, on_line=None):
    """Run one program child to completion under a timeout. on_line sees
    each stdout line as it arrives. Returns the last stdout line."""
    with open(os.path.join(WORK, log_name), "ab") as log:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=log,
                                env=bench_lib.clean_env())
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = ""
    try:
        for raw in proc.stdout:
            last = raw.decode().rstrip("\n")
            if on_line:
                on_line(last)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code, _ = bench_lib.reap(proc, CHILD_TIMEOUT_S)
    if code != 0:
        raise Failure("%s exited with code %d" % (" ".join(cmd[:3]), code))
    return last


def launch_study(*extra):
    """One server-suite study process; returns (set-up seconds, its final
    JSON line). Set-up runs from launch to the child's "ready" line."""
    t0 = time.perf_counter()
    ready = []

    def on_line(line):
        if not ready and line == "ready":
            ready.append(time.perf_counter() - t0)

    last = launch([LAYERS, "study", "--jobs", str(JOBS), *extra],
                  "study.log", on_line)
    if not ready:
        raise Failure("study never reported ready")
    return ready[0], last


def check_report(path, pin):
    with open(path, "rb") as f:
        if not bench_lib.digest_matches(f.read(), pin):
            raise Failure("report %s does not match its pinned digest" % path)


# --- server-suite ----------------------------------------------------------


def run_study(seconds, pins):
    """Untraced, in rounds until the run time is used. A round is a few
    set-up-only launches and one cold request: the study in a fresh
    process (no store), which then serves the warm requests, the same
    study again from its warm runner."""
    samples = {k: [] for k in ("setup", "wall", "cpu", "rss", "rate",
                               "cold", "warm")}
    attempted = failed = rounds = 0
    start = time.monotonic()
    while rounds < MIN_REPS or time.monotonic() - start < seconds:
        rounds += 1
        for _ in range(SETUP_LAUNCHES):
            samples["setup"].append(launch_study("--setup-only")[0])
        attempted += 1 + WARM_PER_COLD
        report = os.path.join(WORK, "report-%d.json" % rounds)
        try:
            setup, last = launch_study("--report", report,
                                       "--warm", str(WARM_PER_COLD))
            check_report(report, pins["server-suite"])
            out = json.loads(last)
        except (Failure, ValueError) as e:
            failed += 1 + WARM_PER_COLD
            note("round %d failed: %s" % (rounds, e))
            continue
        samples["setup"].append(setup)
        samples["wall"].append(out["wall_s"])
        samples["cpu"].append(out["cpu_s"])
        samples["rss"].append(out["peak_rss_mb"])
        samples["rate"].append(out["grid_runs"] / out["wall_s"])
        samples["cold"].append((setup + out["wall_s"]) * 1e3)
        samples["warm"].extend(out["warm_ms"])
    if not samples["wall"]:
        raise SystemExit("perfbench: no study request succeeded")
    m = bench_lib.median
    # A run holds 4-5 cold and 12-15 warm requests, too few for a 90th
    # percentile with ten samples beyond it, so the p90 slots report the
    # medians; the sample counts are printed with the metrics.
    cold, warm = m(samples["cold"]), m(samples["warm"])
    metrics = {
        "wall_s": m(samples["wall"]), "cpu_s": m(samples["cpu"]),
        "peak_rss_mb": m(samples["rss"]), "setup_s": m(samples["setup"]),
        "requests_per_s": m(samples["rate"]),
        "cold_p50_ms": cold, "cold_p90_ms": cold,
        "warm_p50_ms": warm, "warm_p90_ms": warm,
    }
    counts = {"setup_s": len(samples["setup"]),
              "cold": len(samples["cold"]), "warm": len(samples["warm"])}
    return metrics, counts, attempted, failed


def run_study_trace(pins):
    """Traced: the study once (reference, pinned), then its work redone
    serially with a span around every layer call (perfbench_layers)."""
    report = os.path.join(WORK, "report-traced.json")
    spans = os.path.join(WORK, "spans-server-suite.json")
    last = launch([LAYERS, "trace", "--jobs", str(JOBS),
                   "--report", report, "--spans", spans], "trace.log")
    check_report(report, pins["server-suite"])
    out = json.loads(last)
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    metrics.update(out["metrics"])
    metrics["core.traced_total_s"] = out["traced_total_s"]
    for name in ("sim.cycles", "sim.llc_demand_misses", "sim.llc_writebacks"):
        if metrics[name] != out["reference"][name]:
            raise Failure("%s differs from the untraced study" % name)
    print("traced total %.3f s (serial) vs untraced study cpu_s %.3f s, "
          "wall %.3f s; spans in %s" % (out["traced_total_s"],
                                        out["untraced_cpu_s"],
                                        out["untraced_wall_s"], spans))
    return metrics, out["reference"]["runs"], 0


# --- daemon-compare --------------------------------------------------------


def daemon_sequences(seed):
    """Session k of a run replays the sequence seeded "<seed>/<k>": each
    session a different order, the same ones on every run with this
    seed. Yields (sequence, its cold/warm classes)."""
    grid = json.loads(subprocess.run(
        [LAYERS, "grid"], check=True, stdout=subprocess.PIPE,
        env=bench_lib.clean_env()).stdout)
    for k in itertools.count():
        seq = bench_lib.make_sequence("%d/%d" % (seed, k),
                                      grid["workloads"], grid["models"])
        yield seq, bench_lib.classify(seq)


def check_replies(session, seq, classes, pins, first):
    """Check every reply of a session and sort its raw samples by class.
    first maps each key to its first result text (byte identity)."""
    out = {"rtt": {"cold": [], "warm": []}, "replies": [], "failed": 0}
    for i, record in enumerate(session["records"]):
        key = "%s/%s" % seq[i]
        try:
            if record is None or record[2] is None:
                raise Failure("request %d got no reply" % i)
            t0, t1, line = record
            reply = json.loads(line)
            if reply.get("ok") is not True or reply.get("id") != "r%d" % i:
                raise Failure("request %d failed: %s" % (i, line[:200]))
            result = bench_lib.raw_members(line)["result"]
            if not bench_lib.digest_matches(result, pins["compare"].get(key)):
                raise Failure("%s: result does not match its pin" % key)
            if first.setdefault(key, result) != result:
                raise Failure("%s: repeated result differs" % key)
        except (Failure, ValueError, KeyError) as e:
            out["failed"] += 1
            note(str(e))
            continue
        out["rtt"][classes[i]].append((t1 - t0) * 1e3)
        out["replies"].append((classes[i], t1 - t0, reply, t0, t1))
    return out


def run_daemon(seed, seconds, pins):
    """Untraced, in rounds until the run time is used. A round is a few
    set-up-only daemon starts and one seeded session, each on a fresh
    daemon, store and socket. A daemon that hangs or leaves a process
    behind fails its session, and the run stops there."""
    sequences = daemon_sequences(seed)
    sessions, setups, rtt = [], [], {"cold": [], "warm": []}
    attempted = failed = 0
    first = {}
    start = time.monotonic()
    while not failed and (len(sessions) < MIN_REPS
                          or time.monotonic() - start < seconds):
        for _ in range(SETUP_LAUNCHES):
            attempted += 1
            rundir = os.path.join(WORK, "setup%d" % len(setups))
            try:
                setups.append(daemon.run_session(CLI, rundir, [])["setup_s"])
            except (daemon.SessionError, TimeoutError, OSError) as e:
                failed += 1
                note("set-up session failed: %s" % e)
                break
            shutil.rmtree(rundir, ignore_errors=True)
        seq, classes = next(sequences)
        attempted += len(seq)
        rundir = os.path.join(WORK, "d%d" % len(sessions))
        try:
            s = daemon.run_session(CLI, rundir, seq)
        except (daemon.SessionError, TimeoutError, OSError) as e:
            failed += len(seq)
            note("session failed: %s" % e)
            break
        shutil.rmtree(rundir, ignore_errors=True)
        checked = check_replies(s, seq, classes, pins, first)
        failed += checked["failed"]
        for c in rtt:
            rtt[c].extend(checked["rtt"][c])
        s["completed"] = len(checked["replies"])
        sessions.append(s)
        setups.append(s["setup_s"])
    if not sessions or not rtt["cold"] or not rtt["warm"]:
        raise SystemExit("perfbench: no daemon session succeeded")
    m = bench_lib.median
    p = bench_lib.percentile
    metrics = {
        "wall_s": m([s["wall_s"] for s in sessions]),
        "cpu_s": m([s["cpu_s"] for s in sessions]),
        "peak_rss_mb": m([s["peak_rss_mb"] for s in sessions]),
        "setup_s": m(setups),
        "requests_per_s": (sum(s["completed"] for s in sessions)
                           / sum(s["wall_s"] for s in sessions)),
        "cold_p50_ms": p(rtt["cold"], 50), "cold_p90_ms": p(rtt["cold"], 90),
        "warm_p50_ms": p(rtt["warm"], 50), "warm_p90_ms": p(rtt["warm"], 90),
    }
    counts = {"sessions": len(sessions), "setup_s": len(setups),
              "cold": len(rtt["cold"]), "warm": len(rtt["warm"]),
              "distinct results": len(first)}
    print("session digest %s (%d distinct results, each pinned)"
          % (bench_lib.digest("\n".join(
              "%s %s" % (k, bench_lib.digest(v))
              for k, v in sorted(first.items()))), len(first)))
    return metrics, counts, attempted, failed


def daemon_counter(metrics, name):
    """Sum of one counter over the front and worker daemons."""
    return float(sum(m.get(name, 0) for m in metrics))


def run_daemon_trace(seed, pins):
    """Traced: one seeded session with a span per request, the daemons'
    counters, then store loads and puts of every run record it wrote."""
    seq, classes = next(daemon_sequences(seed))
    s = daemon.run_session(CLI, os.path.join(WORK, "d-traced"), seq,
                           query_metrics=True)
    checked = check_replies(s, seq, classes, pins, {})
    replies = checked["replies"]
    if not replies:
        raise Failure("no request of the traced session succeeded")

    pairs = os.path.join(WORK, "pairs.json")
    distinct = list(dict.fromkeys(seq))
    with open(pairs, "w") as f:
        json.dump({"scale": float(daemon.SCALE), "mode": daemon.MODE,
                   "pairs": distinct}, f)
    t0 = time.perf_counter()
    last = launch([LAYERS, "store", "--store", s["store"],
                   "--scratch", os.path.join(WORK, "scratch-store"),
                   "--pairs", pairs], "store.log")
    store_wall = time.perf_counter() - t0
    st = json.loads(last)

    p = bench_lib.percentile
    ms = 1e3
    not_coalesced = [r for _, _, r, _, _ in replies if not r["coalesced"]]
    run_by_class = {c: [r["runSeconds"] * ms for k, _, r, _, _ in replies
                        if k == c] for c in ("cold", "warm")}
    # Request spans overlap across the two connections: count their union.
    covered, reach = 0.0, None
    for _, _, _, a, b in sorted(replies, key=lambda x: x[3]):
        if reach is None or a > reach:
            covered += b - a
            reach = b
        elif b > reach:
            covered += b - reach
            reach = b
    store_spans = sum(st["load_ms"] + st["put_ms"] + st["reload_ms"]) / ms
    traced_wall = s["wall_s"] + store_wall
    records = st["records"]
    nbytes = st["payload_bytes"]
    trace_records = records.get("trace", 0) + records.get("ptrace", 0)
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    simulations = daemon_counter(s["metrics"], "runner.memo.simulations")
    builds = daemon_counter(s["metrics"], "runner.traceStore.builds")
    metrics.update({
        "workload.traces": builds,
        "sim.runs": simulations,
        "core.pool_busy_frac": s["cpu_s"] / (s["wall_s"] * JOBS),
        "core.simulations": simulations,
        "core.memo_hits": daemon_counter(s["metrics"], "runner.memo.hits"),
        "core.trace_builds": builds,
        "core.unattributed_frac": 1.0 - (covered + store_spans) / traced_wall,
        "core.traced_total_s": covered + store_spans,
        "store.load_ms_p50": p(st["load_ms"], 50),
        "store.put_ms_p50": p(st["put_ms"], 50),
        "store.run_record_bytes": nbytes.get("run", 0) / records["run"],
        "store.trace_record_bytes": (nbytes.get("trace", 0)
                                     + nbytes.get("ptrace", 0))
        / max(trace_records, 1),
        "store.hits": daemon_counter(s["metrics"], "store.hits"),
        "store.writes": daemon_counter(s["metrics"], "store.writes"),
        "service.queue_wait_ms_p50": p(
            [(r["queueSeconds"] - r["runSeconds"]) * ms
             for r in not_coalesced], 50),
        "service.queue_wait_ms_p90": p(
            [(r["queueSeconds"] - r["runSeconds"]) * ms
             for r in not_coalesced], 90),
        "service.run_ms_warm_p50": p(run_by_class["warm"], 50),
        "service.run_ms_cold_p50": p(run_by_class["cold"], 50),
        "service.transport_ms_p50": p(
            [(rtt - r["queueSeconds"]) * ms for _, rtt, r, _, _ in replies],
            50),
        "service.warm_rtt_ms_p50": p(checked["rtt"]["warm"], 50),
        "service.coalesced_frac": 1.0 - len(not_coalesced) / len(replies),
        # A refused request fails the check, so count refusals where
        # the daemons count them.
        "service.rejected": sum(
            daemon_counter(s["metrics"], name)
            for name in ("service.rejectedQueueFull",
                         "service.rejectedDraining",
                         "service.deadlineExpired")),
    })
    print("traced session: %d requests (%d cold), %d run records reloaded; "
          "traced total %.3f s vs session cpu_s %.3f s" % (
              len(replies), len(run_by_class["cold"]), len(st["load_ms"]),
              covered + store_spans, s["cpu_s"]))
    return metrics, len(seq), checked["failed"]


# --- main ------------------------------------------------------------------


def show(metrics, units, counts):
    for name, unit in units:
        print("%-36s %16.6f %s" % (name, metrics[name], unit))
    if counts:
        print("samples: " + ", ".join("%s %d" % kv for kv in counts.items()))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    with open(PINS) as f:
        pins = json.load(f)

    study = args.workload == "server-suite"
    try:
        if args.trace:
            metrics, attempted, failed = (
                run_study_trace(pins) if study
                else run_daemon_trace(args.seed, pins))
            units, shown, counts = PER_LAYER, PER_LAYER, {}
        else:
            metrics, counts, attempted, failed = (
                run_study(args.seconds, pins) if study
                else run_daemon(args.seed, args.seconds, pins))
            units, shown = END_TO_END, END_TO_END + SHOWN_ONLY
    except (Failure, daemon.SessionError, TimeoutError) as e:
        raise SystemExit("perfbench: %s" % e)

    show(metrics, shown, counts)
    print("error_rate %.6f (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
