/**
 * @file
 * Persistent batch evaluation daemon (`nvmcache serve`).
 *
 * EvalServer listens on a Unix socket, speaks the newline-delimited
 * JSON protocol (service/protocol.hh), and executes studies through
 * the uniform Study API on worker threads. Its defining property is
 * that the expensive engine state outlives requests: one RunnerPool
 * holds a long-lived ExperimentRunner per view of the persistent
 * store (fault settings are per-run inputs, so one runner serves them
 * all), and memo caches, RecordedTrace/PrivateTrace stores, and
 * estimator results are shared across every client — a repeated
 * study request replays entirely from warm stores and returns in
 * milliseconds.
 *
 * Request lifecycle:
 *  - admission control: a bounded FIFO job queue; a request arriving
 *    when the queue is full is rejected immediately with a reason and
 *    a "retryAfterMs" load-shedding hint sized from the observed mean
 *    run time (never silently dropped, never unboundedly buffered);
 *  - deadlines: a run request carrying "deadlineMs" that is still
 *    queued when the deadline expires is rejected ("rejected":true)
 *    instead of executing stale work; an execution whose waiters all
 *    expired is skipped entirely;
 *  - coalescing: a run request identical (by StudyRequest
 *    canonicalKey) to one queued or executing attaches to that
 *    execution instead of occupying a queue slot; every attached
 *    waiter gets its own response, flagged "coalesced":true;
 *  - graceful drain: SIGTERM or a {"op":"shutdown"} request stops
 *    accepting new work, finishes everything queued, flushes all
 *    responses, then exits.
 *
 * Crash recovery: with a persistent store configured, every admitted
 * run is journaled to <journalPath> (default
 * <storeDir>/inflight.v1.json) and removed on completion. A daemon
 * restarted over the same journal re-enqueues the interrupted
 * executions ("service.resumed") — their waiters are gone, but the
 * store-warming work completes, so the original client's retry is a
 * disk hit.
 *
 * Multi-worker serving (`--workers N`): serveMain spawns N worker
 * daemons (fork + exec of the CLI binary) sharing one persistent
 * ResultStore under a WorkerSupervisor that heartbeats, respawns, and
 * quarantines them (service/workers.hh). The front daemon decomposes
 * each study into its shardRequests(), primes the store through the
 * workers via a WorkerFleet, and then runs the study locally against
 * the warmed store — so merged reports are byte-identical to
 * single-process output even while workers are being killed and
 * respawned underneath.
 *
 * The health verb reports a three-state machine: "ok", "degraded"
 * (workers down or quarantined, or the queue at capacity), or
 * "draining" (shutdown in progress). `nvmcache health --probe` turns
 * that into an exit code for scripts.
 *
 * Per-request latency, queue depth, coalesce and rejection counts
 * flow through the process MetricsRegistry under "service.*".
 */

#ifndef NVMCACHE_SERVICE_SERVER_HH
#define NVMCACHE_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/study_registry.hh"
#include "service/protocol.hh"
#include "service/workers.hh"

namespace nvmcache {

class ChaosInjector;

struct ServeConfig
{
    std::string socketPath;
    /** Queued (not yet executing) run requests beyond which new ones
        are rejected with "queue full". */
    unsigned queueDepth = 16;
    /** Concurrent study executions (threads inside this process).
        With workers, serveMain gives each worker the same count and
        the front keeps that many connections to each. */
    unsigned execThreads = 2;
    /**
     * Worker *processes* to spawn (`--workers N`). Each worker is a
     * full daemon on socketPath + ".w<i>" sharing the persistent
     * ResultStore; the front decomposes every run request's study
     * into sub-requests (Study::shardRequests), primes the store
     * through the workers, then executes locally against the warmed
     * store. Requires a configured store (serveMain refuses
     * otherwise); 0 = single-process serving.
     */
    unsigned workers = 0;
    /**
     * Worker daemon sockets the front dispatches to. serveMain fills
     * this when spawning; tests inject already-running daemons here
     * directly (then `workers` is not consulted).
     */
    std::vector<std::string> workerSockets;
    /** Experiment-engine jobs per study (0 = engine default). */
    unsigned jobs = 0;
    /** Supervision interval and heartbeat receive timeout for the
        worker supervisor (`--heartbeat-ms`). */
    unsigned heartbeatMs = 500;
    /** Fleet-side per-shard response deadline (`--job-timeout-ms`);
        a worker that misses it has the shard resubmitted to a
        sibling. < 0 waits forever. */
    int jobTimeoutMs = -1;
    /**
     * Chaos spec (`--chaos-spec`, service/chaos.hh syntax). When
     * nonempty, serveMain arms a ChaosInjector against this daemon's
     * own workers, store, and connections. Empty = no chaos.
     */
    std::string chaosSpec;
    /** Journal interrupted runs for crash recovery. serveMain derives
        journalPath from the store when unset; --no-resume (used for
        the spawned workers, whose shards the front re-primes anyway)
        disables it. */
    bool resume = true;
    /** Inflight-run journal path; "" with resume=true lets serveMain
        derive it, "" with resume=false disables journaling. */
    std::string journalPath;
    /**
     * Optional external stop flag (set from a signal handler — a
     * lock-free atomic store is async-signal-safe); polled by the
     * accept loop so SIGTERM initiates the same graceful drain as a
     * shutdown request.
     */
    const std::atomic<int> *externalStop = nullptr;
    /** Enable trace collection for the daemon's lifetime. */
    bool trace = false;
    /** When non-empty: enable tracing and write the collected trace
        here after the drain completes. */
    std::string traceOut;
};

class EvalServer
{
  public:
    explicit EvalServer(ServeConfig cfg);
    ~EvalServer();

    EvalServer(const EvalServer &) = delete;
    EvalServer &operator=(const EvalServer &) = delete;

    /** Bind + listen + load the resume journal + spawn threads.
        Throws on socket failure. */
    void start();

    /**
     * Block until the server has fully drained and every thread is
     * joined. Returns only after requestStop() (or a shutdown
     * request / external stop flag) triggered the drain.
     */
    void wait();

    /** Initiate graceful drain (idempotent, callable from any thread). */
    void requestStop();

    /** True from start() until wait() finishes tearing down. */
    bool running() const { return running_.load(); }

    /** The long-lived engine state shared by all requests. */
    RunnerPool &runners() { return pool_; }

    /** Dispatch fleet (null without workerSockets); the supervisor's
        health sink targets it. Valid after start(). */
    WorkerFleet *fleet() { return fleet_.get(); }

    /** Wire the worker supervisor in for health reporting. The
        pointer must outlive wait(). */
    void attachSupervisor(WorkerSupervisor *supervisor);

    /** Wire the chaos injector in for health reporting. The pointer
        must outlive wait(). */
    void attachChaos(ChaosInjector *chaos);

    /**
     * Chaos hook: hard-shutdown the (pick mod live)-th client
     * connection. The reader sees EOF, the client sees a dropped
     * connection and must retry. False when no connection is live.
     */
    bool dropConnection(std::uint64_t pick);

  private:
    struct Conn
    {
        int fd = -1;
        std::mutex writeMu;
        std::thread reader;
    };

    /** One pending response target of an execution. */
    struct Waiter
    {
        std::shared_ptr<Conn> conn;
        std::string id;
        std::chrono::steady_clock::time_point enqueued;
        bool coalesced = false;
        /** Absolute expiry derived from the request's "deadlineMs";
            enforced when the execution is dequeued. */
        std::chrono::steady_clock::time_point deadline;
        bool hasDeadline = false;
    };

    /** One coalesced study execution (>= 1 waiters). */
    struct Execution
    {
        StudyRequest request;
        std::string key;
        std::unique_ptr<Study> study; ///< parsed, ready to run
        std::vector<Waiter> waiters;  ///< guarded by queueMu_
        std::size_t queueDepthAtEnqueue = 0;
        /** Server-side trace id; echoed as "t<N>" to every waiter. */
        std::uint64_t traceId = 0;
        /** Recovered from the journal: no waiters, runs anyway. */
        bool resumed = false;
    };

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);
    void workerLoop();
    void handleLine(const std::shared_ptr<Conn> &conn,
                    const std::string &line);
    void handleRun(const std::shared_ptr<Conn> &conn,
                   const ServiceRequest &req);
    void runExecution(const std::shared_ptr<Execution> &exec);
    void respond(const std::shared_ptr<Conn> &conn,
                 const JsonValue &response);
    /** Reject waiters whose deadline passed while queued; true when
        the execution still has work to do. Called with queueMu_ NOT
        held. */
    bool pruneExpiredWaiters(const std::shared_ptr<Execution> &exec);
    /** "ok" / "degraded" / "draining" (see file comment). */
    std::string healthState();
    /** Load-shedding hint for queue-full rejections (ms). */
    double retryAfterHintMs(std::size_t depth);
    /** Rewrite the inflight journal from inflight_. Caller holds
        queueMu_. No-op without a journal path. */
    void journalRewrite();
    /** Re-enqueue journaled executions (start(), pre-thread). */
    void journalLoad();

    ServeConfig cfg_;
    int listenFd_ = -1;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> running_{false};
    std::chrono::steady_clock::time_point startTime_;

    RunnerPool pool_;
    /** Dispatch lanes to worker daemons (null without workerSockets). */
    std::unique_ptr<WorkerFleet> fleet_;
    WorkerSupervisor *supervisor_ = nullptr; ///< not owned
    ChaosInjector *chaos_ = nullptr;         ///< not owned

    std::mutex queueMu_;
    std::condition_variable queueCv_;
    std::deque<std::shared_ptr<Execution>> queue_;
    /** canonicalKey -> queued-or-executing execution. */
    std::map<std::string, std::shared_ptr<Execution>> inflight_;

    std::mutex connsMu_;
    std::vector<std::shared_ptr<Conn>> conns_;

    std::thread acceptThread_;
    std::vector<std::thread> workers_;
};

/**
 * The `nvmcache serve` entry. With cfg.workers > 0 it builds a
 * WorkerSupervisor that spawns each worker daemon by fork + exec of
 * this binary (`serve --socket <socketPath>.w<i> ...` against the
 * shared persistent store), heartbeats them every cfg.heartbeatMs,
 * respawns the dead with backoff, and quarantines crash-loopers —
 * wiring worker health into the front's dispatch fleet. A nonempty
 * cfg.chaosSpec arms a deterministic ChaosInjector against the
 * workers, the store, and live connections. Then: install
 * SIGTERM/SIGINT handlers, run an EvalServer until a signal or
 * shutdown request drains it, stop chaos and supervision, and return
 * the process exit code (2 when cfg.workers > 0 without a configured
 * ResultStore — the workers would have nowhere to publish results).
 *
 * Tests override the spawned binary with the NVMCACHE_CLI environment
 * variable; the default is /proc/self/exe.
 */
int serveMain(ServeConfig cfg);

} // namespace nvmcache

#endif // NVMCACHE_SERVICE_SERVER_HH
