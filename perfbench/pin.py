#!/usr/bin/env python3
"""Regenerate perfbench/pins.json, the digests run.py checks outputs
against. Run from the repository root, on a commit whose outputs are
known good (tests/test_golden.cc passes), and only when the simulator's
outputs change on purpose:

    python3 perfbench/pin.py

It pins the server-suite report and the `compare` result of every
(Table V workload, NVM model) pair the daemon can be asked for."""

import json
import os
import shutil
import subprocess

import bench_lib
import daemon
import run


def main():
    run.build()
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    report = os.path.join(run.WORK, "pin-server-suite.json")
    run.launch_study("--report", report)
    with open(report, "rb") as f:
        pins = {"server-suite": bench_lib.digest(f.read())}

    grid = json.loads(subprocess.run(
        [run.LAYERS, "grid"], check=True, stdout=subprocess.PIPE).stdout)
    seq = [(w, m) for w in grid["workloads"] for m in grid["models"]]
    session = daemon.run_session(run.CLI, os.path.join(run.WORK, "d-pin"),
                                 seq)
    pins["compare"] = {}
    for (workload, tech), record in zip(seq, session["records"]):
        reply = json.loads(record[2])
        if reply.get("ok") is not True:
            raise SystemExit("%s/%s failed: %s" % (workload, tech, record[2]))
        result = bench_lib.raw_members(record[2])["result"]
        pins["compare"]["%s/%s" % (workload, tech)] = bench_lib.digest(result)
    with open(run.PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s: the server-suite report, %d compare results"
          % (run.PINS, len(pins["compare"])))


if __name__ == "__main__":
    main()
