"""Helpers of the repository benchmark: statistics over the harness's own
raw samples, report digests, the seeded daemon-compare request sequence,
and child-process bookkeeping (resource usage, timeouts)."""

import bisect
import hashlib
import itertools
import json
import math
import os
import random
import signal
import time

# --- statistics ------------------------------------------------------------


def percentile(samples, q):
    """The q-th percentile (0..100) of raw samples, interpolating linearly
    between the two closest ranks (numpy's default)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples):
    return percentile(samples, 50)


# --- digests ---------------------------------------------------------------


def digest(data):
    """sha256 hex digest of bytes or str."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def digest_matches(data, expected):
    return digest(data) == expected


def raw_members(text):
    """Top-level members of a JSON object line as their raw source text,
    so a digest covers the bytes the program sent."""
    dec = json.JSONDecoder()
    ws = " \t\r\n"
    i = len(text) - len(text.lstrip(ws))
    if text[i:i + 1] != "{":
        raise ValueError("not a JSON object")
    out = {}
    i += 1
    while True:
        while text[i] in ws:
            i += 1
        if text[i] == "}":
            return out
        key, i = dec.raw_decode(text, i)
        while text[i] in ws:
            i += 1
        if text[i] != ":":
            raise ValueError("expected ':' at %d" % i)
        i += 1
        while text[i] in ws:
            i += 1
        _, end = dec.raw_decode(text, i)
        out[key] = text[i:end]
        i = end
        while text[i] in ws:
            i += 1
        if text[i] == ",":
            i += 1


# --- the daemon-compare request sequence -----------------------------------

COLD_PER_WORKLOAD = 6   # first-time pairs per workload: 20 x 6 = 120
REQUESTS_PER_COLD = 3   # a third of the requests are first-time
ZIPF_EXPONENT = 0.9


def make_sequence(seed, workloads, models):
    """The seeded request sequence of (workload, model) pairs.

    Every workload gets COLD_PER_WORKLOAD first-time pairs, its models
    drawn by the seed, so every seed asks for the same amount of cold
    work. A third of the requests are first-time ones, spread by the
    seed; every other request repeats a pair already asked for, drawn
    with Zipf-like popularity over a seeded ranking of those pairs."""
    rng = random.Random(seed)
    cold = [(w, m) for w in workloads
            for m in rng.sample(list(models), COLD_PER_WORKLOAD)]
    rng.shuffle(cold)
    rank = {pair: rng.random() for pair in cold}
    total = len(cold) * REQUESTS_PER_COLD
    seen, seq = [], []
    for i in range(total):
        cold_left = len(cold) - len(seen)
        if not seen or rng.random() < cold_left / (total - i):
            pair = cold[len(seen)]
            bisect.insort(seen, (rank[pair], pair))
        else:
            cum = itertools.accumulate(
                1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(len(seen)))
            pair = rng.choices(seen, cum_weights=list(cum))[0][1]
        seq.append(pair)
    return seq


def classify(seq):
    """'cold' where a key appears for the first time in the sequence,
    'warm' for every repeat."""
    seen, out = set(), []
    for key in seq:
        out.append("warm" if key in seen else "cold")
        seen.add(key)
    return out


# --- child processes -------------------------------------------------------


def clean_env():
    """The environment for the program under test: no NVMCACHE_* knobs
    (jobs, shards, store) leak in from the caller."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("NVMCACHE_")}


def usage_of(ru):
    """(CPU seconds, peak RSS in MB) of a wait4 rusage. wait4 reports the
    child together with every descendant it reaped, and the peak RSS of
    the largest of them."""
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def reap(proc, timeout):
    """Wait up to timeout seconds for a Popen child to exit and return
    (exit code, rusage); kill it and raise TimeoutError when it hangs."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, ru
        if time.monotonic() >= deadline:
            kill_and_reap(proc)
            raise TimeoutError("pid %d still running after %.0f s"
                               % (proc.pid, timeout))
        time.sleep(0.005)


def kill_and_reap(proc):
    if proc.returncode is not None:
        return
    try:
        proc.kill()
    except ProcessLookupError:
        pass
    _, status, _ = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)


def child_pids(pid):
    """Live children of pid, from /proc."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def alive(pid):
    """True while pid exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def kill_pids(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
