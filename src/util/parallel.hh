/**
 * @file
 * Parallel execution engine for the experiment layer.
 *
 * A fixed-size thread pool with a shared task queue plus a
 * futures-based parallelMap() that fans a job vector out across the
 * pool and reassembles the results in input order, so callers get
 * deterministic, order-stable output regardless of which worker
 * finishes first. Exceptions thrown by a job are captured in its
 * future and rethrown from parallelMap() on the calling thread.
 *
 * Concurrency is selected once per process by defaultJobs()
 * (the NVMCACHE_JOBS environment variable, falling back to
 * std::thread::hardware_concurrency()) and can be overridden per
 * call; jobs <= 1 runs every task inline on the calling thread with
 * no pool at all, which keeps the serial path zero-overhead and
 * trivially deterministic.
 */

#ifndef NVMCACHE_UTIL_PARALLEL_HH
#define NVMCACHE_UTIL_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/trace_events.hh"

namespace nvmcache {

/**
 * Concurrency to use when the caller does not specify one:
 * NVMCACHE_JOBS if set to a positive integer, otherwise
 * std::thread::hardware_concurrency(), never less than 1.
 */
unsigned defaultJobs();

/** what() of @p e, or a placeholder for non-std exceptions. */
std::string describeException(std::exception_ptr e);

/**
 * Terminal failure handling shared by parallelMap instantiations:
 * rethrow a lone failure unchanged, aggregate several into one
 * runtime_error carrying the count and the first few messages.
 * @p failed holds the failures in input order; no-op when empty.
 */
void throwJobFailures(const std::vector<std::exception_ptr> &failed,
                      std::size_t totalJobs);

/**
 * Fixed pool of worker threads draining one shared task queue.
 *
 * Work items are type-erased thunks; submit() wraps any callable in a
 * packaged task and returns the matching future. The pool joins its
 * workers on destruction after finishing all queued tasks.
 */
class ThreadPool
{
  public:
    /** @param jobs  worker count; 0 means defaultJobs(). */
    explicit ThreadPool(unsigned jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned jobs() const { return unsigned(workers_.size()); }

    /** Queue one callable; the future reports its result/exception. */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using R = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> fut = task->get_future();
        enqueue([task]() { (*task)(); });
        return fut;
    }

  private:
    void enqueue(std::function<void()> thunk);
    void workerLoop();

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::function<void()>> queue_; ///< FIFO via head index
    std::size_t head_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Apply @p fn to every element of @p items, running up to @p jobs
 * applications concurrently, and return the results in input order.
 *
 * Failures surface after all jobs finish: a single failed job
 * rethrows its original exception unchanged; multiple failures throw
 * one std::runtime_error aggregating the failure count and the first
 * few messages (in input order), so no job's diagnostic is silently
 * dropped. jobs <= 1 executes inline with no threads, so the first
 * failure propagates immediately.
 */
template <typename T, typename Fn>
auto
parallelMap(unsigned jobs, const std::vector<T> &items, Fn fn)
    -> std::vector<std::invoke_result_t<Fn, const T &>>
{
    using R = std::invoke_result_t<Fn, const T &>;
    std::vector<R> results;
    results.reserve(items.size());

    // Jobs run under the caller's trace context on both paths below:
    // TraceTaskScope installs the identical per-index child context
    // inline and on the pool, so a trace's semantic content does not
    // depend on the job count.
    const TraceContext traceParent = TraceContext::current();

    if (jobs <= 1 || items.size() <= 1) {
        for (std::size_t i = 0; i < items.size(); ++i) {
            TraceTaskScope task(traceParent, i);
            results.push_back(fn(items[i]));
        }
        return results;
    }

    std::vector<std::exception_ptr> failed;
    {
        ThreadPool pool(std::min<std::size_t>(jobs, items.size()));
        std::vector<std::future<R>> futures;
        futures.reserve(items.size());
        for (std::size_t i = 0; i < items.size(); ++i)
            futures.push_back(
                pool.submit([&fn, &item = items[i], traceParent, i]() {
                    TraceTaskScope task(traceParent, i);
                    return fn(item);
                }));
        // Drain every future (in order) even if one throws, so the
        // pool never destructs with tasks still touching caller
        // state; every failure is collected and reported together.
        for (std::future<R> &fut : futures) {
            try {
                results.push_back(fut.get());
            } catch (...) {
                failed.push_back(std::current_exception());
            }
        }
        // The pool joins its workers here, before any captured
        // exception is inspected: a worker releases its task state
        // (and with it a shared exception-message buffer) after the
        // future becomes ready, so reading messages while workers
        // still run would race with that teardown.
    }
    throwJobFailures(failed, items.size());
    return results;
}

/** parallelMap() at the process-default concurrency. */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T> &items, Fn fn)
    -> std::vector<std::invoke_result_t<Fn, const T &>>
{
    return parallelMap(defaultJobs(), items, fn);
}

} // namespace nvmcache

#endif // NVMCACHE_UTIL_PARALLEL_HH
