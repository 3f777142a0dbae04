/**
 * @file
 * A work-stealing thread pool for embarrassingly parallel host work.
 *
 * Each worker owns a deque: it pushes/pops its own work LIFO (cache
 * warmth) and steals FIFO from a victim when empty (oldest task, the
 * classic Chase-Lev discipline, here with per-deque locks — the tasks
 * this pool runs are whole simulator sweep points, so per-task
 * synchronisation cost is noise). Tasks submitted from outside are
 * dealt round-robin across the deques.
 *
 * The pool makes no ordering promises; callers that need deterministic
 * output (SweepRunner) write results into pre-assigned slots.
 */

#ifndef CEREAL_RUNNER_THREAD_POOL_HH
#define CEREAL_RUNNER_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cereal {
namespace runner {

class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** Spawn @p num_threads workers (0 -> hardwareThreads()). */
    explicit ThreadPool(unsigned num_threads);

    /** Drains remaining work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task; runnable immediately. */
    void submit(Task task);

    /** Block until every submitted task has finished executing. */
    void wait();

    unsigned numThreads() const { return static_cast<unsigned>(workers_.size()); }

    static unsigned hardwareThreads();

  private:
    /** One worker's lock-protected deque. */
    struct WorkQueue
    {
        std::mutex mutex;
        std::deque<Task> tasks;
    };

    void workerLoop(unsigned self);
    bool tryPop(unsigned self, Task &out);
    bool trySteal(unsigned self, Task &out);

    std::vector<std::unique_ptr<WorkQueue>> queues_;
    std::vector<std::thread> workers_;

    /** Wakes idle workers; also guards stop_ transitions. */
    std::mutex sleepMutex_;
    std::condition_variable sleepCv_;

    /** Signals wait() when inflight_ hits zero. */
    std::condition_variable idleCv_;

    std::atomic<std::uint64_t> inflight_{0};
    std::atomic<unsigned> nextQueue_{0};
    std::atomic<bool> stop_{false};
};

} // namespace runner
} // namespace cereal

#endif // CEREAL_RUNNER_THREAD_POOL_HH
