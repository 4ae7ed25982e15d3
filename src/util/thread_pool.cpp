#include "util/thread_pool.h"

#include <algorithm>

#include "util/logging.h"

namespace nps {
namespace util {

unsigned
ThreadPool::hardwareThreads()
{
    // Clamped: the cap guards against bad explicit counts, not against
    // a host that reports more hardware threads than it.
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : std::min(n, kMaxThreads);
}

ThreadPool::ThreadPool(unsigned threads)
    : size_(threads == 0 ? hardwareThreads() : threads)
{
    if (threads > kMaxThreads)
        fatal("ThreadPool: %u threads requested, at most %u allowed",
              threads, kMaxThreads);
    // The calling thread is worker 0; spawn only the extras.
    workers_.reserve(size_ - 1);
    for (unsigned i = 1; i < size_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::runShards(unsigned long generation, unsigned index)
{
    // Claim shards one at a time, preferring the shard matching this
    // worker's index and scanning upward (wrapping) from there: with the
    // engine's shards == threads layout every worker re-claims the same
    // shard on every dispatch, keeping each shard's working set on one
    // core, and an idle worker still steals from a stalled peer. The
    // generation check keeps a straggler that wakes after its job has
    // drained from touching a later job's counters (or a dangling job
    // function).
    for (;;) {
        const std::function<void(size_t)> *job;
        size_t shard;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (generation_ != generation)
                return;
            size_t n = job_shards_;
            size_t found = n;
            for (size_t off = 0; off < n; ++off) {
                size_t s = (index + off) % n;
                if (!claimed_[s]) {
                    found = s;
                    break;
                }
            }
            if (found == n)
                return;
            claimed_[found] = 1;
            job = job_;
            shard = found;
        }
        (*job)(shard);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--pending_shards_ == 0) {
                done_cv_.notify_all();
                return;
            }
        }
    }
}

void
ThreadPool::workerLoop(unsigned index)
{
    unsigned long seen = 0;
    for (;;) {
        unsigned long generation;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation = generation_;
        }
        runShards(generation, index);
    }
}

void
ThreadPool::parallelFor(size_t shards,
                        const std::function<void(size_t)> &fn)
{
    if (shards == 0)
        return;
    if (size_ == 1 || shards == 1) {
        for (size_t s = 0; s < shards; ++s)
            fn(s);
        return;
    }
    unsigned long generation;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (job_ != nullptr)
            fatal("ThreadPool::parallelFor: re-entered");
        job_ = &fn;
        job_shards_ = shards;
        pending_shards_ = shards;
        claimed_.assign(shards, 0);
        generation = ++generation_;
    }
    start_cv_.notify_all();
    runShards(generation, 0);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return pending_shards_ == 0; });
        job_ = nullptr;
    }
}

} // namespace util
} // namespace nps
