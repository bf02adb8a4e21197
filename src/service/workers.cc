#include "service/workers.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_set>
#include <utility>

#include "service/client.hh"
#include "store/result_store.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/trace_events.hh"

namespace nvmcache {

namespace {

std::string
laneMetric(std::size_t index, const char *leaf)
{
    return "service.worker.w" + std::to_string(index) + "." + leaf;
}

} // namespace

WorkerFleet::WorkerFleet(WorkerFleetConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.queueCap == 0)
        cfg_.queueCap = 1;
    if (cfg_.slotsPerWorker == 0)
        cfg_.slotsPerWorker = 1;
    lanes_.reserve(cfg_.sockets.size());
    for (std::size_t i = 0; i < cfg_.sockets.size(); ++i) {
        auto lane = std::make_unique<Lane>();
        lane->index = i;
        lane->socket = cfg_.sockets[i];
        lanes_.push_back(std::move(lane));
    }
    for (auto &lane : lanes_) {
        Lane *l = lane.get();
        for (unsigned s = 0; s < cfg_.slotsPerWorker; ++s)
            l->dispatchers.emplace_back([this, l] { dispatchLoop(*l); });
    }
}

WorkerFleet::~WorkerFleet()
{
    for (auto &lane : lanes_) {
        {
            std::lock_guard<std::mutex> lk(lane->mu);
            stopping_ = true;
        }
        lane->cv.notify_all();
    }
    for (auto &lane : lanes_)
        for (std::thread &t : lane->dispatchers)
            if (t.joinable())
                t.join();
}

void
WorkerFleet::setWorkerHealthy(std::size_t index, bool healthy)
{
    if (index >= lanes_.size())
        return;
    Lane &lane = *lanes_[index];
    const bool was =
        lane.healthy.exchange(healthy, std::memory_order_relaxed);
    if (was == healthy)
        return;
    // A lane that just went unhealthy may hold queued jobs; wake its
    // dispatchers so they fail over to the siblings now instead of on
    // the next push.
    lane.cv.notify_all();
    MetricsRegistry::global()
        .gauge(laneMetric(index, "healthy"))
        .set(healthy ? 1 : 0);
}

std::size_t
WorkerFleet::healthyCount() const
{
    std::size_t n = 0;
    for (const auto &lane : lanes_)
        n += lane->healthy.load(std::memory_order_relaxed) ? 1 : 0;
    return n;
}

std::size_t
WorkerFleet::primeAll(const std::vector<StudyRequest> &requests)
{
    if (lanes_.empty() || requests.empty())
        return 0;

    // Identical sub-requests would coalesce server-side anyway; dedup
    // here keeps the dispatch counters meaningful.
    std::vector<const StudyRequest *> unique;
    {
        std::unordered_set<std::string> seen;
        for (const StudyRequest &req : requests)
            if (seen.insert(req.canonicalKey()).second)
                unique.push_back(&req);
    }

    auto latch = std::make_shared<Latch>();
    latch->pending = unique.size();

    Phase phase("service.worker.prime", "service",
                TraceContext::current().path + "/prime");
    // Contiguous block assignment: shard grids enumerate the sweep
    // workload-major, so a contiguous range keeps every sub-request
    // that shares a recorded trace on one worker — the trace is built
    // and stored once instead of once per worker (round-robin made
    // each worker rebuild every workload's trace). The first block
    // goes to the lane its workload hashes to, so requests for one
    // workload keep landing on the worker that already holds its
    // traces, and one-shard requests for different workloads spread
    // over the fleet. Pushes interleave column-wise across lanes so
    // the bounded queues fill in parallel instead of stalling on the
    // first lane's cap. Blocks go only to healthy lanes; when the
    // supervisor has every lane down we fall back to all of them and
    // let failover sort out the survivors.
    std::vector<Lane *> targets;
    for (auto &lane : lanes_)
        if (lane->healthy.load(std::memory_order_relaxed))
            targets.push_back(lane.get());
    if (targets.empty())
        for (auto &lane : lanes_)
            targets.push_back(lane.get());
    const std::size_t laneCount = targets.size();
    const StudyRequest &first = *unique.front();
    const auto workload = first.params.find("workload");
    const std::size_t startLane =
        fnv1a64(workload != first.params.end() ? workload->second
                                               : first.canonicalKey()) %
        laneCount;
    std::vector<std::vector<const StudyRequest *>> blocks(laneCount);
    for (std::size_t i = 0; i < unique.size(); ++i)
        blocks[i * laneCount / unique.size()].push_back(unique[i]);
    for (std::size_t off = 0;; ++off) {
        bool any = false;
        for (std::size_t b = 0; b < laneCount; ++b) {
            if (off >= blocks[b].size())
                continue;
            any = true;
            Job job;
            job.request = *blocks[b][off];
            job.latch = latch;
            push(*targets[(startLane + b) % laneCount], std::move(job),
                 /*bounded=*/true);
        }
        if (!any)
            break;
    }

    std::size_t failed;
    {
        std::unique_lock<std::mutex> lk(latch->mu);
        latch->cv.wait(lk, [&latch] { return latch->pending == 0; });
        failed = latch->failures;
    }
    if (failed > 0)
        warn("worker fleet: ", failed,
             " sub-request(s) failed on every worker; the study "
             "simulates them locally");
    return failed;
}

void
WorkerFleet::push(Lane &lane, Job job, bool bounded)
{
    {
        std::unique_lock<std::mutex> lk(lane.mu);
        if (bounded)
            // Backpressure: the producer waits for a slot instead of
            // buffering the whole grid. Resubmissions bypass the bound
            // — a dispatcher blocking on a full sibling queue while
            // that sibling blocks on ours would deadlock the fleet.
            // An unhealthy lane also stops blocking producers: its
            // dispatchers are busy declining, so slots free up anyway.
            lane.cv.wait(lk, [this, &lane] {
                return stopping_ ||
                       lane.queue.size() < cfg_.queueCap ||
                       !lane.healthy.load(std::memory_order_relaxed);
            });
        if (stopping_) {
            lk.unlock();
            settle(job, /*failed=*/true);
            return;
        }
        lane.queue.push_back(std::move(job));
    }
    lane.cv.notify_all();
}

void
WorkerFleet::dispatchLoop(Lane &lane)
{
    std::unique_ptr<ServiceClient> client; // this slot's connection
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(lane.mu);
            lane.cv.wait(lk, [this, &lane] {
                return stopping_ || !lane.queue.empty();
            });
            if (lane.queue.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            job = std::move(lane.queue.front());
            lane.queue.pop_front();
        }
        lane.cv.notify_all(); // a producer may be waiting on the bound

        MetricsRegistry &metrics = MetricsRegistry::global();
        // A quarantined/dead lane declines without dialing: its queue
        // share drains to the siblings at memory speed instead of
        // burning a connect-retry cycle per job.
        if (!lane.healthy.load(std::memory_order_relaxed)) {
            metrics.counter(laneMetric(lane.index, "declined")).inc();
            metrics.counter("service.worker.declined").inc();
            failOver(lane, std::move(job));
            continue;
        }
        metrics.counter(laneMetric(lane.index, "dispatched")).inc();
        metrics.counter("service.worker.dispatched").inc();
        Gauge &inflight = metrics.gauge(laneMetric(lane.index, "inflight"));
        inflight.add(1);
        const bool ok = runOn(lane, client, job);
        inflight.add(-1);
        if (ok) {
            metrics.counter(laneMetric(lane.index, "completed")).inc();
            metrics.counter("service.worker.completed").inc();
            settle(job, /*failed=*/false);
            continue;
        }
        // This worker declined (unreachable, past its deadline, or
        // rejecting): fail the job over to the next sibling until
        // every worker has had it.
        metrics.counter(laneMetric(lane.index, "failed")).inc();
        metrics.counter("service.worker.failed").inc();
        failOver(lane, std::move(job));
    }
}

void
WorkerFleet::failOver(const Lane &lane, Job job)
{
    job.attempts += 1;
    if (job.attempts >= lanes_.size()) {
        settle(job, /*failed=*/true);
        return;
    }
    MetricsRegistry::global().counter("service.worker.resubmitted").inc();
    push(*lanes_[(lane.index + 1) % lanes_.size()], std::move(job),
         /*bounded=*/false);
}

bool
WorkerFleet::runOn(Lane &lane, std::unique_ptr<ServiceClient> &client,
                   const Job &job)
{
    const std::string key = job.request.canonicalKey();
    Phase phase("service.worker.run", "service",
                "worker/w" + std::to_string(lane.index) + "/" +
                    traceHashId(key));
    try {
        if (!client) {
            // The worker may still be binding its socket; dial with
            // patience on first contact.
            ClientConfig ccfg;
            ccfg.timeoutMs = cfg_.jobTimeoutMs;
            for (unsigned attempt = 0;; ++attempt) {
                try {
                    client = std::make_unique<ServiceClient>(lane.socket,
                                                             ccfg);
                    break;
                } catch (const std::exception &) {
                    if (attempt + 1 >= cfg_.connectRetries)
                        throw;
                    if (!lane.healthy.load(std::memory_order_relaxed))
                        throw; // supervisor says down — stop dialing
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(100));
                }
            }
        }
        const JsonValue response = client->run(job.request);
        if (response.boolOr("ok", false))
            return true;
        // A rejection (queue full, draining) is retryable elsewhere; a
        // study-level error is deterministic and would fail on every
        // sibling too, but resubmitting is still harmless — the local
        // run reports the authoritative error either way.
        return false;
    } catch (const std::exception &) {
        // Connection-level failure or deadline miss: drop the client
        // so the next job (or this one, on a sibling) redials. After
        // a timeout the connection is mid-frame anyway — the late
        // response would desynchronize every reply after it.
        client.reset();
        return false;
    }
}

void
WorkerFleet::settle(const Job &job, bool failed)
{
    Latch &latch = *job.latch;
    {
        std::lock_guard<std::mutex> lk(latch.mu);
        if (failed)
            latch.failures += 1;
        latch.pending -= 1;
    }
    latch.cv.notify_all();
}

// --- process supervision ----------------------------------------------

WorkerSupervisor::WorkerSupervisor(WorkerSupervisorConfig cfg)
    : cfg_(std::move(cfg))
{
    if (!cfg_.command)
        throw std::runtime_error(
            "WorkerSupervisor needs a spawn command");
    if (cfg_.heartbeatMs == 0)
        cfg_.heartbeatMs = 1;
    if (cfg_.missedLimit == 0)
        cfg_.missedLimit = 1;
    slots_.resize(cfg_.sockets.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        slots_[i].index = i;
        slots_[i].socket = cfg_.sockets[i];
    }
}

WorkerSupervisor::~WorkerSupervisor()
{
    stop();
}

void
WorkerSupervisor::start()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (started_)
        return;
    started_ = true;
    const auto now = std::chrono::steady_clock::now();
    for (Slot &slot : slots_) {
        spawn(slot);
        slot.spawnedAt = now;
    }
    thread_ = std::thread([this] { superviseLoop(); });
}

void
WorkerSupervisor::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!started_ || stopping_)
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();

    // Graceful worker shutdown: TERM, a bounded grace period of
    // WNOHANG reaps, then KILL the stragglers.
    std::lock_guard<std::mutex> lk(mu_);
    for (Slot &slot : slots_)
        if (slot.alive && slot.pid > 0)
            ::kill(slot.pid, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    for (Slot &slot : slots_) {
        if (!slot.alive || slot.pid <= 0)
            continue;
        int status = 0;
        for (;;) {
            const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
            if (r == slot.pid || (r < 0 && errno != EINTR))
                break;
            if (std::chrono::steady_clock::now() >= deadline) {
                ::kill(slot.pid, SIGKILL);
                while (::waitpid(slot.pid, &status, 0) < 0 &&
                       errno == EINTR) {
                }
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        slot.alive = false;
        slot.pid = -1;
    }
}

void
WorkerSupervisor::setHealthSink(
    std::function<void(std::size_t, bool)> sink)
{
    std::lock_guard<std::mutex> lk(mu_);
    healthSink_ = std::move(sink);
}

std::size_t
WorkerSupervisor::aliveWorkers() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.alive ? 1 : 0;
    return n;
}

std::size_t
WorkerSupervisor::quarantinedWorkers() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.quarantined ? 1 : 0;
    return n;
}

std::size_t
WorkerSupervisor::restarts() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return restarts_;
}

bool
WorkerSupervisor::atFullCapacity() const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const Slot &slot : slots_)
        if (!slot.alive || slot.quarantined)
            return false;
    return !slots_.empty() || cfg_.sockets.empty();
}

bool
WorkerSupervisor::signalWorker(std::uint64_t pick, int sig)
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Slot *> alive;
    for (Slot &slot : slots_)
        if (slot.alive && slot.pid > 0)
            alive.push_back(&slot);
    if (alive.empty())
        return false;
    Slot &victim = *alive[pick % alive.size()];
    return ::kill(victim.pid, sig) == 0;
}

void
WorkerSupervisor::superviseLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait_for(lk,
                         std::chrono::milliseconds(cfg_.heartbeatMs),
                         [this] { return stopping_; });
            if (stopping_)
                return;
        }
        superviseOnce();
    }
}

void
WorkerSupervisor::superviseOnce()
{
    // Phase 1 (locked): reap exited children.
    std::vector<std::pair<std::size_t, std::string>> toProbe;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (Slot &slot : slots_) {
            if (!slot.alive || slot.quarantined)
                continue;
            int status = 0;
            const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
            if (r == slot.pid)
                onDeath(slot, "exited");
            else
                toProbe.emplace_back(slot.index, slot.socket);
        }
    }

    // Phase 2 (unlocked): heartbeat-probe the survivors. Each probe
    // may block up to heartbeatMs, so the lock stays free for health
    // queries and chaos signals while we wait.
    std::vector<std::pair<std::size_t, bool>> probed;
    probed.reserve(toProbe.size());
    for (const auto &[index, socket] : toProbe)
        probed.emplace_back(index, pingWorker(socket));

    // Phase 3 (locked): apply probe results, kill hung workers,
    // respawn the dead, trip the circuit breaker.
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[index, ok] : probed) {
        Slot &slot = slots_[index];
        if (!slot.alive)
            continue; // reaped between phases by signalWorker death
        if (ok) {
            slot.missedHeartbeats = 0;
            continue;
        }
        slot.missedHeartbeats += 1;
        if (slot.missedHeartbeats < cfg_.missedLimit)
            continue;
        // Unresponsive (SIGSTOPped, wedged, or mid-crash): a stopped
        // process still accepts connects via the kernel backlog, so
        // the timed-out ping is the only reliable hang signal. KILL
        // cannot be caught or ignored — the reap below is prompt.
        ::kill(slot.pid, SIGKILL);
        int status = 0;
        while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
        }
        onDeath(slot, "unresponsive");
    }
    for (Slot &slot : slots_) {
        if (slot.alive || slot.quarantined || stopping_)
            continue;
        if (now < slot.respawnNotBefore)
            continue;
        // Circuit breaker: too many restarts inside the rolling
        // window means the worker dies faster than it serves —
        // quarantine it and let the fleet redistribute its share
        // instead of burning CPU on a crash loop.
        const auto windowStart =
            now - std::chrono::milliseconds(cfg_.quarantineWindowMs);
        while (!slot.restartTimes.empty() &&
               slot.restartTimes.front() < windowStart)
            slot.restartTimes.pop_front();
        if (cfg_.quarantineRestarts > 0 &&
            slot.restartTimes.size() >= cfg_.quarantineRestarts) {
            slot.quarantined = true;
            warn("worker w", slot.index, ": quarantined after ",
                 slot.restartTimes.size(), " restarts in ",
                 cfg_.quarantineWindowMs, " ms");
            MetricsRegistry::global()
                .gauge("service.worker.quarantined")
                .set(double(
                    std::count_if(slots_.begin(), slots_.end(),
                                  [](const Slot &s) {
                                      return s.quarantined;
                                  })));
            traceInstant("service.worker.quarantine", "service",
                         "worker/w" + std::to_string(slot.index));
            notifyHealth(slot.index, false);
            continue;
        }
        spawn(slot);
        if (slot.alive) {
            slot.restartTimes.push_back(now);
            restarts_ += 1;
            MetricsRegistry::global()
                .counter("service.worker.restarts")
                .inc();
            inform("worker w", slot.index, ": respawned (pid ",
                   slot.pid, ", restart #", restarts_, ")");
            // Healthy immediately: the fleet dials lazily with
            // patience, so marking up before the socket binds only
            // re-enables assignment, it cannot lose a job.
            notifyHealth(slot.index, true);
        }
    }
}

void
WorkerSupervisor::spawn(Slot &slot)
{
    const std::vector<std::string> argv = cfg_.command(slot.index);
    if (argv.empty()) {
        slot.alive = false;
        return;
    }
    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    cargv.push_back(nullptr);

    // fork + exec, never bare fork: the front daemon is multithreaded
    // by the time a respawn happens, and only exec resets the child to
    // a sane single-threaded world (a bare fork would inherit mutexes
    // whose owner threads do not exist in the child).
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execv(cargv[0], cargv.data());
        _exit(127); // exec failed; the supervisor reaps and retries
    }
    if (pid < 0) {
        warn("worker w", slot.index, ": fork failed: ",
             std::strerror(errno));
        slot.alive = false;
        return;
    }
    slot.pid = pid;
    slot.alive = true;
    slot.missedHeartbeats = 0;
    slot.spawnedAt = std::chrono::steady_clock::now();
    traceInstant("service.worker.spawn", "service",
                 "worker/w" + std::to_string(slot.index) + "/spawn");
}

void
WorkerSupervisor::onDeath(Slot &slot, const char *cause)
{
    const auto now = std::chrono::steady_clock::now();
    const bool quickCrash =
        now - slot.spawnedAt <
        std::chrono::milliseconds(cfg_.quarantineWindowMs);
    slot.consecutiveCrashes =
        quickCrash ? slot.consecutiveCrashes + 1 : 1;
    // First (or isolated) death respawns on the next pass — full
    // capacity back within one supervision interval. Streaks back off
    // exponentially so a crash loop cannot monopolize the machine
    // before the circuit breaker trips.
    unsigned delayMs = 0;
    if (slot.consecutiveCrashes >= 2) {
        const unsigned shift =
            std::min(slot.consecutiveCrashes - 2, 16u);
        delayMs = std::min(cfg_.backoffBaseMs << shift,
                           cfg_.backoffMaxMs);
    }
    slot.respawnNotBefore = now + std::chrono::milliseconds(delayMs);
    slot.alive = false;
    slot.pid = -1;
    slot.missedHeartbeats = 0;
    warn("worker w", slot.index, ": ", cause,
         delayMs ? "; respawn backoff " + std::to_string(delayMs) +
                       " ms"
                 : "; respawning");
    MetricsRegistry::global().counter("service.worker.deaths").inc();
    traceInstant("service.worker.death", "service",
                 "worker/w" + std::to_string(slot.index) + "/" +
                     cause);
    notifyHealth(slot.index, false);
}

bool
WorkerSupervisor::pingWorker(const std::string &socket) const
{
    try {
        ClientConfig ccfg;
        ccfg.timeoutMs = int(cfg_.heartbeatMs);
        ServiceClient client(socket, ccfg);
        return client.ping();
    } catch (const std::exception &) {
        return false;
    }
}

void
WorkerSupervisor::notifyHealth(std::size_t index, bool healthy)
{
    if (healthSink_)
        healthSink_(index, healthy);
}

} // namespace nvmcache
