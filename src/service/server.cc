#include "service/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

#include "service/chaos.hh"
#include "service/client.hh"
#include "store/result_store.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/trace_events.hh"

namespace nvmcache {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

int
bindUnixSocket(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    // A previous daemon instance that died hard leaves the node behind;
    // a live instance would still fail bind with EADDRINUSE after this.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("bind " + path + ": " +
                                 std::strerror(err));
    }
    if (::listen(fd, 64) < 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(path.c_str());
        throw std::runtime_error("listen " + path + ": " +
                                 std::strerror(err));
    }
    return fd;
}

} // namespace

EvalServer::EvalServer(ServeConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.execThreads == 0)
        cfg_.execThreads = 1;
}

EvalServer::~EvalServer()
{
    if (running_.load()) {
        requestStop();
        wait();
    }
}

void
EvalServer::start()
{
    listenFd_ = bindUnixSocket(cfg_.socketPath);
    running_.store(true);
    startTime_ = std::chrono::steady_clock::now();
    if (cfg_.trace || !cfg_.traceOut.empty())
        setTracingEnabled(true);
    MetricsRegistry::global().gauge("service.queueDepth").set(0.0);
    MetricsRegistry::global().gauge("service.uptimeSeconds").set(0.0);
    if (!cfg_.workerSockets.empty()) {
        WorkerFleetConfig wf;
        wf.sockets = cfg_.workerSockets;
        // serveMain starts every worker with this front's
        // --exec-threads: one slot per worker exec thread.
        wf.slotsPerWorker = cfg_.execThreads;
        wf.jobTimeoutMs = cfg_.jobTimeoutMs;
        fleet_ = std::make_unique<WorkerFleet>(std::move(wf));
    }
    // Recover interrupted work before any thread can race the queue.
    journalLoad();
    for (unsigned i = 0; i < cfg_.execThreads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
EvalServer::attachSupervisor(WorkerSupervisor *supervisor)
{
    supervisor_ = supervisor;
}

void
EvalServer::attachChaos(ChaosInjector *chaos)
{
    chaos_ = chaos;
}

void
EvalServer::requestStop()
{
    stopping_.store(true);
    queueCv_.notify_all();
}

void
EvalServer::wait()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Accept loop is down; workers drain whatever is queued, then exit.
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    // No execution can dispatch to the fleet anymore; joining its
    // dispatchers here keeps teardown ordered before the sockets go.
    fleet_.reset();
    // All responses are flushed. Kick reader threads off their blocking
    // read()s and join them.
    {
        std::lock_guard<std::mutex> lk(connsMu_);
        for (const auto &conn : conns_)
            if (conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (;;) {
        std::shared_ptr<Conn> conn;
        {
            std::lock_guard<std::mutex> lk(connsMu_);
            if (conns_.empty())
                break;
            conn = conns_.back();
            conns_.pop_back();
        }
        if (conn->reader.joinable())
            conn->reader.join();
        if (conn->fd >= 0)
            ::close(conn->fd);
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(cfg_.socketPath.c_str());
    running_.store(false);
}

bool
EvalServer::dropConnection(std::uint64_t pick)
{
    std::lock_guard<std::mutex> lk(connsMu_);
    std::vector<Conn *> live;
    for (const auto &conn : conns_)
        if (conn->fd >= 0)
            live.push_back(conn.get());
    if (live.empty())
        return false;
    // SHUT_RDWR, not close: the reader thread still owns the fd and
    // will see EOF, run its teardown, and leave the fd for wait().
    ::shutdown(live[pick % live.size()]->fd, SHUT_RDWR);
    MetricsRegistry::global()
        .counter("service.connectionsDropped")
        .inc();
    return true;
}

void
EvalServer::acceptLoop()
{
    while (!stopping_.load()) {
        if (cfg_.externalStop && *cfg_.externalStop) {
            requestStop();
            break;
        }
        pollfd pfd{listenFd_, POLLIN, 0};
        const int n = ::poll(&pfd, 1, 200);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            break;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lk(connsMu_);
            conns_.push_back(conn);
        }
        MetricsRegistry::global().counter("service.connections").inc();
        conn->reader = std::thread([this, conn] { readerLoop(conn); });
    }
    // No new work can arrive; let workers finish the queue and exit.
    queueCv_.notify_all();
}

void
EvalServer::readerLoop(std::shared_ptr<Conn> conn)
{
    LineReader reader(conn->fd);
    std::string line;
    while (reader.readLine(line)) {
        if (line.empty())
            continue;
        handleLine(conn, line);
    }
}

std::string
EvalServer::healthState()
{
    if (stopping_.load())
        return "draining";
    std::size_t depth;
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        depth = queue_.size();
    }
    if (depth >= cfg_.queueDepth)
        return "degraded";
    if (supervisor_ && !supervisor_->atFullCapacity())
        return "degraded";
    if (fleet_ && fleet_->healthyCount() < fleet_->size())
        return "degraded";
    return "ok";
}

double
EvalServer::retryAfterHintMs(std::size_t depth)
{
    // How long until a queue slot frees up: the queue ahead of the
    // client divided by our drain rate, using the observed mean run
    // time (a fresh daemon guesses 100 ms). Clamped so one pathological
    // run can't tell clients to go away for an hour.
    const StatValue runStat = MetricsRegistry::global()
                                  .distribution("service.runSeconds")
                                  .value();
    const double meanMs = runStat.dist.count > 0
                              ? runStat.dist.mean * 1000.0
                              : 100.0;
    const double hint =
        meanMs * double(depth + 1) / double(cfg_.execThreads);
    return std::clamp(hint, 50.0, 10000.0);
}

void
EvalServer::handleLine(const std::shared_ptr<Conn> &conn,
                       const std::string &line)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    ServiceRequest req;
    try {
        req = parseServiceRequest(line);
    } catch (const std::exception &e) {
        metrics.counter("service.requests.invalid").inc();
        respond(conn, errorResponse("", e.what()));
        return;
    }

    // Per-verb request counters; anything outside the protocol's verb
    // set lands in one "unknown" bucket so a misbehaving client can't
    // mint unbounded metric paths.
    static const char *const kOps[] = {"ping",   "studies",
                                       "workloads", "metrics",
                                       "stats",  "health", "trace",
                                       "shutdown", "run"};
    bool known = false;
    for (const char *op : kOps)
        known = known || req.op == op;
    metrics
        .counter("service.requests." +
                 (known ? req.op : std::string("unknown")))
        .inc();

    if (req.op == "ping") {
        JsonValue v = JsonValue::makeObject();
        v.set("id", JsonValue::makeString(req.id));
        v.set("ok", JsonValue::makeBool(true));
        v.set("op", JsonValue::makeString("ping"));
        respond(conn, v);
    } else if (req.op == "studies") {
        JsonValue v = JsonValue::makeObject();
        v.set("id", JsonValue::makeString(req.id));
        v.set("ok", JsonValue::makeBool(true));
        v.set("studies", studiesToJson());
        respond(conn, v);
    } else if (req.op == "workloads") {
        JsonValue v = JsonValue::makeObject();
        v.set("id", JsonValue::makeString(req.id));
        v.set("ok", JsonValue::makeBool(true));
        v.set("workloads", workloadsToJson());
        respond(conn, v);
    } else if (req.op == "metrics") {
        JsonValue v = JsonValue::makeObject();
        v.set("id", JsonValue::makeString(req.id));
        v.set("ok", JsonValue::makeBool(true));
        v.set("metrics",
              snapshotToJson(MetricsRegistry::global().snapshot()));
        respond(conn, v);
    } else if (req.op == "stats") {
        // Prometheus text exposition of the full registry, carried as
        // one JSON string so the line framing holds; a scrape adapter
        // just unwraps "stats".
        metrics.gauge("service.uptimeSeconds")
            .set(secondsSince(startTime_));
        JsonValue v = JsonValue::makeObject();
        v.set("id", JsonValue::makeString(req.id));
        v.set("ok", JsonValue::makeBool(true));
        v.set("contentType", JsonValue::makeString(
                                 "text/plain; version=0.0.4"));
        v.set("stats", JsonValue::makeString(
                           metrics.snapshot().toPrometheus()));
        respond(conn, v);
    } else if (req.op == "health") {
        metrics.gauge("service.uptimeSeconds")
            .set(secondsSince(startTime_));
        std::size_t depth;
        {
            std::lock_guard<std::mutex> lk(queueMu_);
            depth = queue_.size();
        }
        JsonValue h = JsonValue::makeObject();
        h.set("state", JsonValue::makeString(healthState()));
        h.set("uptimeSeconds",
              JsonValue::makeNumber(secondsSince(startTime_)));
        h.set("queueDepth", JsonValue::makeNumber(double(depth)));
        h.set("queueCapacity",
              JsonValue::makeNumber(double(cfg_.queueDepth)));
        h.set("workers",
              JsonValue::makeNumber(double(cfg_.workerSockets.size())));
        h.set("execThreads",
              JsonValue::makeNumber(double(cfg_.execThreads)));
        h.set("runnerPoolSize",
              JsonValue::makeNumber(double(pool_.size())));
        h.set("draining", JsonValue::makeBool(stopping_.load()));
        h.set("tracing", JsonValue::makeBool(tracingEnabled()));
        if (fleet_)
            h.set("workersHealthy",
                  JsonValue::makeNumber(double(fleet_->healthyCount())));
        if (supervisor_) {
            h.set("workersAlive",
                  JsonValue::makeNumber(
                      double(supervisor_->aliveWorkers())));
            h.set("workersQuarantined",
                  JsonValue::makeNumber(
                      double(supervisor_->quarantinedWorkers())));
            h.set("workerRestarts",
                  JsonValue::makeNumber(
                      double(supervisor_->restarts())));
        }
        if (chaos_) {
            h.set("chaosInjected",
                  JsonValue::makeNumber(double(chaos_->injected())));
            JsonValue log = JsonValue::makeArray();
            for (const std::string &entry : chaos_->log())
                log.push(JsonValue::makeString(entry));
            h.set("chaosLog", std::move(log));
        }
        h.set("requests", snapshotToJson(metrics.snapshot(),
                                         "service.requests."));
        JsonValue v = JsonValue::makeObject();
        v.set("id", JsonValue::makeString(req.id));
        v.set("ok", JsonValue::makeBool(true));
        v.set("health", std::move(h));
        respond(conn, v);
    } else if (req.op == "trace") {
        JsonValue v = JsonValue::makeObject();
        v.set("id", JsonValue::makeString(req.id));
        v.set("ok", JsonValue::makeBool(true));
        v.set("tracing", JsonValue::makeBool(tracingEnabled()));
        v.set("trace", traceEventsToJson(req.traceId));
        respond(conn, v);
    } else if (req.op == "shutdown") {
        JsonValue v = JsonValue::makeObject();
        v.set("id", JsonValue::makeString(req.id));
        v.set("ok", JsonValue::makeBool(true));
        v.set("op", JsonValue::makeString("shutdown"));
        respond(conn, v);
        requestStop();
    } else if (req.op == "run") {
        handleRun(conn, req);
    } else {
        respond(conn,
                errorResponse(req.id, "unknown op '" + req.op + "'"));
    }
}

void
EvalServer::handleRun(const std::shared_ptr<Conn> &conn,
                      const ServiceRequest &req)
{
    // Create and parse up front so malformed requests fail immediately
    // instead of occupying a queue slot.
    std::unique_ptr<Study> study;
    try {
        study = StudyRegistry::global().create(req.study.kind);
        study->parse(req.study.params);
    } catch (const std::exception &e) {
        respond(conn, errorResponse(req.id, e.what()));
        return;
    }

    Waiter waiter;
    waiter.conn = conn;
    waiter.id = req.id;
    waiter.enqueued = std::chrono::steady_clock::now();
    if (req.deadlineMs > 0) {
        waiter.hasDeadline = true;
        waiter.deadline =
            waiter.enqueued +
            std::chrono::milliseconds(std::int64_t(req.deadlineMs));
    }

    MetricsRegistry &metrics = MetricsRegistry::global();
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        const std::string key = req.study.canonicalKey();
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            // Identical request already queued or executing: share its
            // execution rather than occupying a queue slot.
            waiter.coalesced = true;
            it->second->waiters.push_back(std::move(waiter));
            metrics.counter("service.coalesced").inc();
            return;
        }
        if (stopping_.load()) {
            respond(conn, errorResponse(req.id, "server is draining",
                                        /*rejected=*/true));
            metrics.counter("service.rejectedDraining").inc();
            return;
        }
        if (queue_.size() >= cfg_.queueDepth) {
            respond(conn,
                    errorResponse(req.id,
                                  "queue full (depth " +
                                      std::to_string(cfg_.queueDepth) +
                                      ")",
                                  /*rejected=*/true,
                                  retryAfterHintMs(queue_.size())));
            metrics.counter("service.rejectedQueueFull").inc();
            return;
        }
        auto exec = std::make_shared<Execution>();
        exec->request = req.study;
        exec->key = key;
        exec->study = std::move(study);
        exec->queueDepthAtEnqueue = queue_.size();
        exec->traceId = newTraceId();
        exec->waiters.push_back(std::move(waiter));
        inflight_.emplace(key, exec);
        queue_.push_back(std::move(exec));
        metrics.counter("service.enqueued").inc();
        metrics.gauge("service.queueDepth").set(double(queue_.size()));
        journalRewrite();
    }
    queueCv_.notify_one();
}

bool
EvalServer::pruneExpiredWaiters(const std::shared_ptr<Execution> &exec)
{
    const auto now = std::chrono::steady_clock::now();
    std::vector<Waiter> expired;
    bool runnable;
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        auto split = std::stable_partition(
            exec->waiters.begin(), exec->waiters.end(),
            [now](const Waiter &w) {
                return !w.hasDeadline || now < w.deadline;
            });
        expired.assign(std::make_move_iterator(split),
                       std::make_move_iterator(exec->waiters.end()));
        exec->waiters.erase(split, exec->waiters.end());
        runnable = !exec->waiters.empty() || exec->resumed;
        if (!runnable) {
            // Nobody left to answer: drop the execution before it
            // burns a run — a coalescing peer arriving later starts
            // fresh.
            inflight_.erase(exec->key);
            journalRewrite();
        }
    }
    // Counters first, responses second: a client that reacts to its
    // rejection by querying metrics must already see both.
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.counter("service.deadlineExpired").inc(expired.size());
    if (!runnable)
        metrics.counter("service.deadlineSkipped").inc();
    for (const Waiter &w : expired) {
        respond(w.conn,
                errorResponse(
                    w.id,
                    "deadlineMs expired after " +
                        std::to_string(secondsSince(w.enqueued)) +
                        " s in queue",
                    /*rejected=*/true));
    }
    return runnable;
}

void
EvalServer::workerLoop()
{
    for (;;) {
        std::shared_ptr<Execution> exec;
        {
            std::unique_lock<std::mutex> lk(queueMu_);
            queueCv_.wait(lk, [this] {
                return !queue_.empty() ||
                       (stopping_.load() && queue_.empty());
            });
            // Drain semantics: exit only once the queue is empty.
            if (queue_.empty())
                return;
            exec = std::move(queue_.front());
            queue_.pop_front();
            MetricsRegistry::global()
                .gauge("service.queueDepth")
                .set(double(queue_.size()));
        }
        // Deadlines are enforced at dequeue: work whose every waiter
        // gave up while queued is stale — reject it instead of
        // running it.
        if (!pruneExpiredWaiters(exec))
            continue;
        runExecution(exec);
    }
}

void
EvalServer::runExecution(const std::shared_ptr<Execution> &exec)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    const auto runStart = std::chrono::steady_clock::now();

    const std::string traceTag =
        "t" + std::to_string(exec->traceId);

    JsonValue response = JsonValue::makeObject();
    bool ok = true;
    try {
        // Every span of this execution carries the request's trace id,
        // so {"op":"trace","traceId":"t<N>"} recovers just this run.
        TraceScope scope(
            TraceContext{"req/" + traceTag, exec->traceId});
        TraceSpan span("service.run", "service",
                       TraceContext::current().path);
        StudyRunOptions opts;
        opts.jobs = cfg_.jobs;
        opts.pool = &pool_;
        if (fleet_) {
            // Warm the shared persistent store through the worker
            // daemons first; the local run below then replays from
            // disk. Priming is best-effort — any shard the fleet
            // could not place simply simulates locally.
            const std::vector<StudyRequest> shards =
                exec->study->shardRequests();
            if (!shards.empty())
                fleet_->primeAll(shards);
        }
        const StatsSnapshot before = metrics.snapshot();
        const StudyReport report = runStudy(*exec->study, opts);
        const StatsSnapshot delta = metrics.snapshot().diff(before);
        response.set("ok", JsonValue::makeBool(true));
        response.set("study", JsonValue::makeString(exec->request.kind));
        response.set("metrics", snapshotToJson(delta, "runner."));
        response.set("result", report.result);
    } catch (const std::exception &e) {
        ok = false;
        response.set("ok", JsonValue::makeBool(false));
        response.set("error", JsonValue::makeString(e.what()));
    }
    response.set("traceId", JsonValue::makeString(traceTag));
    const double runSeconds = secondsSince(runStart);
    metrics.distribution("service.runSeconds").add(runSeconds);
    metrics.counter(ok ? "service.completed" : "service.failed").inc();
    response.set("runSeconds", JsonValue::makeNumber(runSeconds));
    response.set("queueDepth",
                 JsonValue::makeNumber(
                     double(exec->queueDepthAtEnqueue)));

    // Detach from the coalescing map *before* responding so a new
    // identical request starts a fresh execution instead of attaching
    // to one whose waiters are already being flushed. The journal
    // entry goes with it: the work is done, a crash after this point
    // loses nothing.
    std::vector<Waiter> waiters;
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        inflight_.erase(exec->key);
        journalRewrite();
        waiters = std::move(exec->waiters);
    }
    for (const Waiter &w : waiters) {
        JsonValue v = response;
        v.set("id", JsonValue::makeString(w.id));
        v.set("coalesced", JsonValue::makeBool(w.coalesced));
        const double queueSeconds = secondsSince(w.enqueued);
        v.set("queueSeconds", JsonValue::makeNumber(queueSeconds));
        metrics.distribution("service.queueSeconds").add(queueSeconds);
        respond(w.conn, v);
    }
}

void
EvalServer::journalRewrite()
{
    if (cfg_.journalPath.empty())
        return;
    JsonValue doc = JsonValue::makeObject();
    doc.set("version", JsonValue::makeNumber(1));
    JsonValue entries = JsonValue::makeArray();
    for (const auto &[key, exec] : inflight_)
        entries.push(exec->request.toJson());
    doc.set("inflight", std::move(entries));
    // Temp-and-rename, same discipline as the store: a crash mid-write
    // leaves the previous journal intact, never a torn one.
    const std::string tmp = cfg_.journalPath + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            warn("serve: cannot write journal ", tmp,
                 "; crash recovery disabled");
            cfg_.journalPath.clear();
            return;
        }
        out << doc.dump() << "\n";
    }
    std::error_code ec;
    std::filesystem::rename(tmp, cfg_.journalPath, ec);
    if (ec)
        warn("serve: journal rename failed: ", ec.message());
}

void
EvalServer::journalLoad()
{
    if (cfg_.journalPath.empty())
        return;
    std::ifstream in(cfg_.journalPath);
    if (!in)
        return; // first boot, or clean shutdown removed nothing to do
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (text.find_first_not_of(" \t\r\n") == std::string::npos)
        return;
    JsonValue doc;
    try {
        doc = JsonValue::parse(text);
    } catch (const std::exception &e) {
        warn("serve: ignoring unreadable journal ", cfg_.journalPath,
             ": ", e.what());
        return;
    }
    const JsonValue *entries = doc.find("inflight");
    if (!entries || !entries->isArray())
        return;
    MetricsRegistry &metrics = MetricsRegistry::global();
    std::size_t resumed = 0;
    std::lock_guard<std::mutex> lk(queueMu_);
    for (const JsonValue &entry : entries->items) {
        try {
            StudyRequest request = StudyRequest::fromJson(entry);
            const std::string key = request.canonicalKey();
            if (inflight_.count(key))
                continue;
            auto exec = std::make_shared<Execution>();
            exec->study =
                StudyRegistry::global().create(request.kind);
            exec->study->parse(request.params);
            exec->request = std::move(request);
            exec->key = key;
            exec->traceId = newTraceId();
            exec->resumed = true; // no waiters; runs for the store
            inflight_.emplace(key, exec);
            queue_.push_back(std::move(exec));
            resumed += 1;
        } catch (const std::exception &e) {
            warn("serve: skipping journaled run: ", e.what());
        }
    }
    if (resumed > 0) {
        metrics.counter("service.resumed").inc(resumed);
        metrics.gauge("service.queueDepth").set(double(queue_.size()));
        inform("serve: resumed ", resumed,
               " interrupted run(s) from ", cfg_.journalPath);
    }
    journalRewrite();
}

void
EvalServer::respond(const std::shared_ptr<Conn> &conn,
                    const JsonValue &response)
{
    std::lock_guard<std::mutex> lk(conn->writeMu);
    writeLine(conn->fd, response.dump());
}

namespace {

/** Lock-free atomic: stores from the handler are async-signal-safe
    and visible to the accept loop without a data race. */
std::atomic<int> g_serveStop{0};
extern "C" void
serveStopHandler(int)
{
    g_serveStop.store(1, std::memory_order_relaxed);
}

/**
 * Binary to exec for spawned workers: NVMCACHE_CLI when set (tests
 * point it at the built CLI), else this very executable.
 */
std::string
workerExePath()
{
    if (const char *cli = std::getenv("NVMCACHE_CLI"))
        if (*cli)
            return cli;
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        throw std::runtime_error(
            "cannot resolve /proc/self/exe for worker spawning (set "
            "NVMCACHE_CLI)");
    buf[n] = '\0';
    return buf;
}

} // namespace

int
serveMain(ServeConfig cfg)
{
    std::unique_ptr<WorkerSupervisor> supervisor;
    if (cfg.workers > 0 && cfg.workerSockets.empty()) {
        if (!ResultStore::global()) {
            warn("serve: --workers requires a persistent store "
                 "(--store-dir or NVMCACHE_STORE) — the workers "
                 "would have nowhere to publish results");
            return 2;
        }
        for (unsigned i = 0; i < cfg.workers; ++i)
            cfg.workerSockets.push_back(cfg.socketPath + ".w" +
                                        std::to_string(i));
        // Workers are spawned (and respawned, after crashes) by fork +
        // exec of the CLI binary: exec resets the child to a clean
        // single-threaded process, so the supervisor can safely spawn
        // long after this daemon has threads.
        WorkerSupervisorConfig sup;
        sup.sockets = cfg.workerSockets;
        sup.heartbeatMs = cfg.heartbeatMs;
        const std::string exe = workerExePath();
        const std::string storeDir = ResultStore::global()->dir();
        const std::vector<std::string> sockets = cfg.workerSockets;
        const unsigned jobs = cfg.jobs;
        const unsigned queueDepth = cfg.queueDepth;
        const unsigned execThreads = cfg.execThreads;
        sup.command = [=](std::size_t index) {
            std::vector<std::string> argv = {
                exe,          "serve",
                "--socket",   sockets[index],
                "--store-dir", storeDir,
                "--queue-depth", std::to_string(queueDepth),
                "--exec-threads", std::to_string(execThreads),
                // The front re-primes every interrupted study itself;
                // a worker journaling its sub-requests would fight
                // the front over the shared journal file.
                "--no-resume",
            };
            if (jobs > 0) {
                argv.push_back("--jobs");
                argv.push_back(std::to_string(jobs));
            }
            return argv;
        };
        supervisor = std::make_unique<WorkerSupervisor>(sup);
    }
    if (cfg.resume && cfg.journalPath.empty() && ResultStore::global())
        cfg.journalPath =
            ResultStore::global()->dir() + "/inflight.v1.json";
    if (!cfg.resume)
        cfg.journalPath.clear();

    g_serveStop = 0;
    cfg.externalStop = &g_serveStop;

    struct sigaction sa{};
    sa.sa_handler = serveStopHandler;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    EvalServer server(cfg);
    server.start();

    if (supervisor) {
        supervisor->setHealthSink(
            [&server](std::size_t index, bool healthy) {
                if (WorkerFleet *fleet = server.fleet())
                    fleet->setWorkerHealthy(index, healthy);
            });
        server.attachSupervisor(supervisor.get());
        supervisor->start();
    }

    std::unique_ptr<ChaosInjector> chaos;
    if (!cfg.chaosSpec.empty()) {
        const ChaosSpec spec = parseChaosSpec(cfg.chaosSpec);
        ChaosTargets targets;
        if (supervisor) {
            WorkerSupervisor *sup = supervisor.get();
            targets.signalWorker = [sup](std::uint64_t pick, int sig) {
                return sup->signalWorker(pick, sig);
            };
        }
        if (ResultStore::global())
            targets.damageRecord = [](std::uint64_t pick,
                                      bool truncate) {
                return !damageStoreRecord(*ResultStore::global(), pick,
                                          truncate)
                            .empty();
            };
        targets.dropConnection = [&server](std::uint64_t pick) {
            return server.dropConnection(pick);
        };
        chaos = std::make_unique<ChaosInjector>(spec,
                                                std::move(targets));
        server.attachChaos(chaos.get());
        inform("serve: chaos armed (", spec.totalEvents(),
               " event(s), seed ", spec.seed, ")");
        chaos->start();
    }

    server.wait();

    if (chaos)
        chaos->stop();
    if (supervisor)
        supervisor->stop();

    if (!cfg.traceOut.empty())
        writeTraceFile(cfg.traceOut);
    return 0;
}

} // namespace nvmcache
