/**
 * @file
 * Multi-worker dispatch and supervision for the evaluation daemon's
 * front process.
 *
 * When `nvmcache serve --workers N` spawns N worker daemons, the front
 * process holds one WorkerFleet over their Unix sockets. A run
 * request's study is decomposed into independent sub-requests
 * (Study::shardRequests) and primeAll() spreads them across the
 * workers; each worker executes its share and persists every result
 * into the shared on-disk ResultStore. The front then runs the full
 * study locally against the warmed store — every run is a disk hit —
 * so the merged report is structurally byte-identical to
 * single-process output at any (workers, jobs).
 *
 * Dispatch discipline:
 *  - primeAll() is concurrent: each call owns a completion latch that
 *    every one of its jobs carries and settles exactly once, so the
 *    front's exec threads prime side by side and each call counts
 *    only its own failures;
 *  - workload affinity: a call's sub-requests split into contiguous
 *    blocks over the healthy lanes, starting at lane
 *    fnv1a64(first sub-request's "workload") mod healthy lanes (its
 *    canonical key when it has no workload). A workload's recorded
 *    trace, private trace and SRAM baseline thus stay in one worker's
 *    memory across requests, and one-shard compares of different
 *    workloads spread over the fleet;
 *  - per-worker slots: each lane runs slotsPerWorker dispatcher
 *    threads, each with its own connection, so two shards sent to one
 *    worker run side by side on its exec threads and its exactly-once
 *    trace store shares the build between them;
 *  - one bounded FIFO per worker (queueCap); primeAll() blocks when a
 *    worker's queue is full instead of buffering unboundedly;
 *  - a failed dispatch (worker unreachable, connection dropped, a
 *    jobTimeoutMs deadline miss, or an admission-control rejection)
 *    resubmits the job to the next sibling; resubmission pushes
 *    unbounded so two full queues can never deadlock each other. A
 *    job is abandoned — counted as a permanent failure, the study
 *    still runs locally — only after every worker declined it;
 *  - lazy connections: a slot's socket is dialed on first use and
 *    redialed (with retry) after any failure, so workers may come up
 *    after the fleet;
 *  - lane health: the supervisor marks a lane unhealthy while its
 *    worker is down or quarantined. primeAll() assigns blocks only
 *    over healthy lanes, and a dispatcher holding jobs for a lane
 *    that just went unhealthy declines them without dialing, so the
 *    dead worker's queue share redistributes to its siblings.
 *
 * WorkerSupervisor owns the worker *processes*. It spawns each one by
 * fork + exec of a caller-supplied command line (re-invoking the CLI
 * binary — safe to do after the front is multithreaded, unlike a bare
 * fork), then watches them on a supervision thread:
 *  - exits are reaped with waitpid(WNOHANG) every interval;
 *  - liveness is probed with a ping over a fresh connection under a
 *    receive timeout, which catches the SIGSTOP case a pure connect
 *    test misses (a stopped daemon's kernel still accepts);
 *  - a worker that misses missedLimit consecutive heartbeats is
 *    SIGKILLed and treated as dead;
 *  - dead workers respawn with exponential backoff between
 *    consecutive quick crashes; quarantineRestarts restarts inside
 *    quarantineWindowMs trip the circuit breaker — the worker is
 *    quarantined (no further respawns) and its fleet lane is marked
 *    permanently unhealthy.
 *
 * Restarts count under "service.worker.restarts", quarantined lanes
 * under the "service.worker.quarantined" gauge; every spawn and death
 * is trace-marked. Per-worker dispatch/completion/failure counters
 * and the "service.worker.w<i>.inflight" gauge (shards executing on
 * worker i right now) flow through the MetricsRegistry under
 * "service.worker.*", and every remote execution is bracketed by a
 * "service.worker.run" span.
 */

#ifndef NVMCACHE_SERVICE_WORKERS_HH
#define NVMCACHE_SERVICE_WORKERS_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "core/study_registry.hh"

namespace nvmcache {

class ServiceClient;

struct WorkerFleetConfig
{
    /** Worker daemon socket paths; one dispatch lane per entry. */
    std::vector<std::string> sockets;
    /** Dispatcher threads per lane, each with its own connection.
        Match the workers' exec threads so each can run a shard. */
    unsigned slotsPerWorker = 1;
    /** Bounded queue depth per worker (backpressure threshold). */
    std::size_t queueCap = 4;
    /** Dial attempts per connection, 100 ms apart, before the job
        fails over to a sibling. */
    unsigned connectRetries = 50;
    /** Per-job response deadline on the worker connection; a worker
        that misses it has the job abandoned and resubmitted to a
        sibling. < 0 waits forever (legacy behavior). */
    int jobTimeoutMs = -1;
};

class WorkerFleet
{
  public:
    explicit WorkerFleet(WorkerFleetConfig cfg);
    ~WorkerFleet();

    WorkerFleet(const WorkerFleet &) = delete;
    WorkerFleet &operator=(const WorkerFleet &) = delete;

    /**
     * Dispatch @p requests across the fleet and block until every one
     * has completed on some worker or been declined by all of them.
     * Duplicate requests (by canonicalKey) are dispatched once, in
     * contiguous blocks starting at the lane of the first request's
     * workload (see the file comment). Returns the number of this
     * call's permanent failures — callers treat the primed store as
     * best-effort, so a nonzero count degrades to local simulation,
     * never to a wrong result. Thread-safe: concurrent calls share the
     * lanes and each waits only on its own latch.
     */
    std::size_t primeAll(const std::vector<StudyRequest> &requests);

    /**
     * Mark worker @p index up (true) or down/quarantined (false).
     * Unhealthy lanes get no fresh block assignments and decline the
     * jobs already queued on them (failover redistributes the share).
     * Thread-safe; typically driven by a WorkerSupervisor.
     */
    void setWorkerHealthy(std::size_t index, bool healthy);

    /** Lanes currently marked healthy. */
    std::size_t healthyCount() const;

    std::size_t size() const { return lanes_.size(); }

  private:
    /** Completion latch of one primeAll() call. */
    struct Latch
    {
        std::mutex mu;
        std::condition_variable cv;
        std::size_t pending = 0;  ///< jobs not yet settled; guarded by mu
        std::size_t failures = 0; ///< guarded by mu
    };

    struct Job
    {
        StudyRequest request;
        std::shared_ptr<Latch> latch;
        unsigned attempts = 0; ///< workers that have declined it
    };

    struct Lane
    {
        std::size_t index = 0;
        std::string socket;
        std::atomic<bool> healthy{true};
        std::mutex mu;
        std::condition_variable cv; ///< queue not-full / not-empty
        std::deque<Job> queue;      ///< guarded by mu
        std::vector<std::thread> dispatchers; ///< slotsPerWorker
    };

    /** One slot: pops @p lane's jobs and runs them over its own
        connection. */
    void dispatchLoop(Lane &lane);
    /** Run one job on @p lane's worker over @p client (dialed on
        demand, reset on failure); false = decline (failover). */
    bool runOn(Lane &lane, std::unique_ptr<ServiceClient> &client,
               const Job &job);
    /** Pass a declined job to the next sibling, or settle it as a
        permanent failure once every worker has declined it. */
    void failOver(const Lane &lane, Job job);
    void push(Lane &lane, Job job, bool bounded);
    static void settle(const Job &job, bool failed);

    WorkerFleetConfig cfg_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    /** Atomic: the destructor sets it holding one lane's mu at a
        time, while another lane's cv predicate may read it under its
        own mu — there is no common lock. Wakeups are still correct:
        the store happens before the notify under each lane's mu. */
    std::atomic<bool> stopping_{false};
};

// --- process supervision ----------------------------------------------

struct WorkerSupervisorConfig
{
    /** One worker per socket; index i serves sockets[i]. */
    std::vector<std::string> sockets;
    /**
     * argv of worker @p index — typically the CLI binary re-invoked
     * as `serve --socket <sockets[index]> ...`. Spawning is fork +
     * exec (never bare fork), so it is safe once the front daemon is
     * multithreaded. Must be nonempty.
     */
    std::function<std::vector<std::string>(std::size_t index)> command;
    /** Supervision interval: exits reaped and heartbeats probed this
        often; also the heartbeat receive timeout. */
    unsigned heartbeatMs = 500;
    /** Consecutive missed heartbeats before SIGKILL + respawn. */
    unsigned missedLimit = 3;
    /** Respawn backoff after the 2nd+ consecutive quick crash:
        min(base << (n - 2), max). The first respawn is immediate, so
        a one-off death restores capacity within one interval. */
    unsigned backoffBaseMs = 100;
    unsigned backoffMaxMs = 5000;
    /** Circuit breaker: this many restarts within quarantineWindowMs
        quarantines the worker (no further respawns). 0 disables. */
    unsigned quarantineRestarts = 5;
    unsigned quarantineWindowMs = 10000;
};

class WorkerSupervisor
{
  public:
    explicit WorkerSupervisor(WorkerSupervisorConfig cfg);
    ~WorkerSupervisor();

    WorkerSupervisor(const WorkerSupervisor &) = delete;
    WorkerSupervisor &operator=(const WorkerSupervisor &) = delete;

    /** Spawn every worker and start the supervision thread. */
    void start();

    /** SIGTERM all workers, reap them, stop supervising. Idempotent;
        the destructor calls it. */
    void stop();

    /**
     * Health callback, fired off the supervision thread: (index,
     * false) when a worker is detected dead or quarantined, (index,
     * true) once its replacement is running. Wire it to
     * WorkerFleet::setWorkerHealthy. Set before start().
     */
    void setHealthSink(std::function<void(std::size_t, bool)> sink);

    /** Workers currently running (spawned and not known-dead). */
    std::size_t aliveWorkers() const;

    /** Workers tripped into quarantine. */
    std::size_t quarantinedWorkers() const;

    /** Restarts performed since start(). */
    std::size_t restarts() const;

    /** Every worker alive and none quarantined. */
    bool atFullCapacity() const;

    /**
     * Chaos hook: send @p sig to the (pick mod alive)-th live worker.
     * False when no worker is alive to target.
     */
    bool signalWorker(std::uint64_t pick, int sig);

    std::size_t size() const { return slots_.size(); }

  private:
    struct Slot
    {
        std::size_t index = 0;
        std::string socket;
        pid_t pid = -1;
        bool alive = false;
        bool quarantined = false;
        unsigned missedHeartbeats = 0;
        /** Quick-crash streak driving the respawn backoff. */
        unsigned consecutiveCrashes = 0;
        std::chrono::steady_clock::time_point spawnedAt;
        std::chrono::steady_clock::time_point respawnNotBefore;
        /** Restart times inside the rolling quarantine window. */
        std::deque<std::chrono::steady_clock::time_point> restartTimes;
    };

    void superviseLoop();
    /** One supervision pass: reap, probe, kill hung, respawn dead. */
    void superviseOnce();
    void spawn(Slot &slot);
    void onDeath(Slot &slot, const char *cause);
    bool pingWorker(const std::string &socket) const;
    void notifyHealth(std::size_t index, bool healthy);

    WorkerSupervisorConfig cfg_;
    std::function<void(std::size_t, bool)> healthSink_;
    std::vector<Slot> slots_; ///< guarded by mu_
    std::size_t restarts_ = 0;

    mutable std::mutex mu_;
    std::condition_variable cv_; ///< wakes the supervisor on stop
    bool stopping_ = false;
    bool started_ = false;
    std::thread thread_;
};

} // namespace nvmcache

#endif // NVMCACHE_SERVICE_WORKERS_HH
