#include "runner/thread_pool.hh"

#include "sim/logging.hh"

namespace cereal {
namespace runner {

unsigned
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0) {
        num_threads = hardwareThreads();
    }
    queues_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i) {
        queues_.push_back(std::make_unique<WorkQueue>());
    }
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this, i] { workerLoop(i); });
    }
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lk(sleepMutex_);
        stop_.store(true);
    }
    sleepCv_.notify_all();
    for (auto &t : workers_) {
        t.join();
    }
}

void
ThreadPool::submit(Task task)
{
    panic_if(stop_.load(), "submit() on a stopped ThreadPool");
    inflight_.fetch_add(1);
    unsigned q = nextQueue_.fetch_add(1) % queues_.size();
    {
        std::lock_guard<std::mutex> lk(queues_[q]->mutex);
        queues_[q]->tasks.push_back(std::move(task));
    }
    sleepCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(sleepMutex_);
    idleCv_.wait(lk, [this] { return inflight_.load() == 0; });
}

bool
ThreadPool::tryPop(unsigned self, Task &out)
{
    auto &q = *queues_[self];
    std::lock_guard<std::mutex> lk(q.mutex);
    if (q.tasks.empty()) {
        return false;
    }
    out = std::move(q.tasks.back());
    q.tasks.pop_back();
    return true;
}

bool
ThreadPool::trySteal(unsigned self, Task &out)
{
    const unsigned n = static_cast<unsigned>(queues_.size());
    for (unsigned i = 1; i < n; ++i) {
        auto &victim = *queues_[(self + i) % n];
        std::lock_guard<std::mutex> lk(victim.mutex);
        if (!victim.tasks.empty()) {
            out = std::move(victim.tasks.front());
            victim.tasks.pop_front();
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        Task task;
        if (tryPop(self, task) || trySteal(self, task)) {
            task();
            if (inflight_.fetch_sub(1) == 1) {
                // Last task: wake any wait()ers.
                std::lock_guard<std::mutex> lk(sleepMutex_);
                idleCv_.notify_all();
            }
            continue;
        }
        std::unique_lock<std::mutex> lk(sleepMutex_);
        if (stop_.load()) {
            return;
        }
        // Re-check under the lock: a submit() between our empty scan
        // and here would otherwise be slept through.
        bool any = false;
        for (auto &q : queues_) {
            std::lock_guard<std::mutex> qlk(q->mutex);
            if (!q->tasks.empty()) {
                any = true;
                break;
            }
        }
        if (any) {
            continue;
        }
        sleepCv_.wait(lk);
    }
}

} // namespace runner
} // namespace cereal
