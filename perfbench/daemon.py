"""One daemon-compare session: `nvmcache serve --workers 2 --exec-threads 2`
on a fresh store and socket, driven over its socket protocol by a closed
loop of two connections, then shut down with {"op":"shutdown"}."""

import json
import os
import socket
import subprocess
import threading
import time

import bench_lib

READY_TIMEOUT_S = 30.0
REPLY_TIMEOUT_S = 30.0
EXIT_TIMEOUT_S = 30.0
WORKERS = 2
CONNECTIONS = 2
SCALE = "0.1"
MODE = "fixed-capacity"


class SessionError(Exception):
    """The daemon failed a hygiene check: it did not come up, hung, or
    left a process behind."""


class Connection:
    """One client connection: a request line out, a reply line back."""

    def __init__(self, path, timeout=REPLY_TIMEOUT_S):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def ask(self, request):
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        line = self.reader.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError("daemon closed the connection")
        return line[:-1].decode()

    def close(self):
        self.reader.close()
        self.sock.close()


def ask(path, request, timeout=REPLY_TIMEOUT_S):
    conn = Connection(path, timeout)
    try:
        return json.loads(conn.ask(request))
    finally:
        conn.close()


def compare_request(index, pair):
    workload, tech = pair
    return {"op": "run", "id": "r%d" % index, "study": "compare",
            "params": {"workload": workload, "tech": tech, "mode": MODE,
                       "scale": SCALE}}


def _wait_ready(proc, sockets):
    """Ready means the front and every worker answer a ping."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    pending = list(sockets)
    while pending:
        if proc.poll() is not None:
            raise SessionError("daemon exited during start-up (code %d)"
                               % proc.returncode)
        if time.monotonic() >= deadline:
            raise SessionError("not ready after %.0f s: %s"
                               % (READY_TIMEOUT_S, ", ".join(pending)))
        try:
            if ask(pending[0], {"op": "ping"}, timeout=5.0).get("ok"):
                pending.pop(0)
                continue
        except OSError:
            pass
        time.sleep(0.0002)


def _closed_loop(path, seq):
    """CONNECTIONS callers take the next request of seq in turn, each
    waiting for its reply before sending again. Returns one
    (sent, received, reply line or None) per request."""
    records = [None] * len(seq)
    cursor = iter(range(len(seq)))
    lock = threading.Lock()

    def caller():
        conn = None
        try:
            conn = Connection(path)
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                t0 = time.perf_counter()
                try:
                    line = conn.ask(compare_request(i, seq[i]))
                except OSError:
                    records[i] = (t0, time.perf_counter(), None)
                    return
                records[i] = (t0, time.perf_counter(), line)
        except OSError:
            return
        finally:
            if conn:
                conn.close()

    threads = [threading.Thread(target=caller) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


def _stop_all(proc, workers):
    if proc.returncode is None:
        workers = set(workers) | set(bench_lib.child_pids(proc.pid))
    bench_lib.kill_pids(workers)
    bench_lib.kill_and_reap(proc)
    deadline = time.monotonic() + EXIT_TIMEOUT_S
    while any(bench_lib.alive(p) for p in workers):
        if time.monotonic() >= deadline:
            break
        time.sleep(0.01)


def run_session(cli, rundir, seq, query_metrics=False):
    """Run seq against a fresh daemon in rundir (a relative path keeps the
    socket names short). Returns a dict of raw samples; raises
    SessionError when the daemon breaks a hygiene rule."""
    os.makedirs(rundir)
    sock = os.path.join(rundir, "s")
    sockets = [sock] + ["%s.w%d" % (sock, i) for i in range(WORKERS)]
    log = open(os.path.join(rundir, "serve.log"), "wb")
    t_launch = time.perf_counter()
    proc = subprocess.Popen(
        [cli, "serve", "--socket", sock, "--workers", str(WORKERS),
         "--exec-threads", "2", "--store-dir",
         os.path.join(rundir, "store")],
        stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        env=bench_lib.clean_env())
    log.close()
    workers = []
    try:
        _wait_ready(proc, sockets)
        setup_s = time.perf_counter() - t_launch
        workers = bench_lib.child_pids(proc.pid)
        if len(workers) != WORKERS:
            raise SessionError("expected %d worker processes, found %d"
                               % (WORKERS, len(workers)))
        records = _closed_loop(sock, seq)
        metrics = None
        if query_metrics:
            metrics = [ask(p, {"op": "metrics"})["metrics"]
                       for p in sockets]
        if not ask(sock, {"op": "shutdown"}).get("ok"):
            raise SessionError("shutdown was not acknowledged")
        code, ru = bench_lib.reap(proc, EXIT_TIMEOUT_S)
        if code != 0:
            raise SessionError("daemon exited with code %d" % code)
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        while any(bench_lib.alive(p) for p in workers):
            if time.monotonic() >= deadline:
                raise SessionError("worker process left behind: %s" % [
                    p for p in workers if bench_lib.alive(p)])
            time.sleep(0.01)
    except BaseException:
        _stop_all(proc, workers)
        raise
    cpu_s, rss_mb = bench_lib.usage_of(ru)
    done = [r for r in records if r is not None]
    return {
        "setup_s": setup_s,
        "wall_s": (max(r[1] for r in done) - min(r[0] for r in done)
                   if done else 0.0),
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "records": records,
        "metrics": metrics,
        "store": os.path.join(rundir, "store"),
    }
