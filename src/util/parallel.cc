#include "util/parallel.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/logging.hh"

namespace nvmcache {

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("NVMCACHE_JOBS")) {
        char *end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && n >= 1)
            return unsigned(n);
        warn("NVMCACHE_JOBS='", env,
             "' is not a positive integer; ignoring");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::string
describeException(std::exception_ptr e)
{
    try {
        std::rethrow_exception(e);
    } catch (const std::exception &ex) {
        return ex.what();
    } catch (...) {
        return "(non-standard exception)";
    }
}

void
throwJobFailures(const std::vector<std::exception_ptr> &failed,
                 std::size_t totalJobs)
{
    if (failed.empty())
        return;
    if (failed.size() == 1)
        std::rethrow_exception(failed.front());

    // Several jobs failed: one exception carrying every diagnostic
    // (capped so a mass failure stays readable).
    constexpr std::size_t kMaxMessages = 4;
    std::string msg = "parallelMap: " + std::to_string(failed.size()) +
                      " of " + std::to_string(totalJobs) +
                      " jobs failed:";
    const std::size_t shown =
        std::min(failed.size(), kMaxMessages);
    for (std::size_t i = 0; i < shown; ++i)
        msg += "\n  [" + std::to_string(i + 1) + "] " +
               describeException(failed[i]);
    if (failed.size() > shown)
        msg += "\n  ... and " +
               std::to_string(failed.size() - shown) + " more";
    throw std::runtime_error(msg);
}

ThreadPool::ThreadPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultJobs();
    workers_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::enqueue(std::function<void()> thunk)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            panic("ThreadPool: submit after shutdown");
        queue_.push_back(std::move(thunk));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this]() {
                return stopping_ || head_ < queue_.size();
            });
            if (head_ >= queue_.size()) // stopping, queue drained
                return;
            task = std::move(queue_[head_++]);
            if (head_ == queue_.size()) {
                queue_.clear();
                head_ = 0;
            }
        }
        task(); // packaged_task captures any exception in its future
    }
}

} // namespace nvmcache
