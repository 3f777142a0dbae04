/**
 * @file
 * Record a serializer's memory/compute narration and replay it.
 *
 * A software serializer narrates its work into a MemSink as it runs.
 * The benchmark records that narration (ReplaySink) and replays it into
 * a second, independent CoreModel, so the host time of the core and
 * cache model (cpu.replay_s) is measured apart from the serializer that
 * produced the narration. Replaying must reproduce the online
 * CoreRunStats exactly; the driver checks that it does.
 *
 * The recording is replayed in batches of a fixed number of calls, so
 * its buffer stays small however long the narration runs. The replay
 * target keeps its state between batches, which makes a batched replay
 * identical to one replay of the whole recording.
 */

#ifndef HOSTBENCH_NARRATION_HH
#define HOSTBENCH_NARRATION_HH

#include <cstdint>
#include <vector>

#include "hostbench/spans.hh"
#include "serde/sink.hh"

namespace hostbench {

using cereal::Addr;
using cereal::MemSink;

/**
 * A MemSink that buffers every call, in order, and re-issues the buffer
 * into a target sink whenever it fills and on flush(). Each replay is
 * timed as a "cpu.replay" span.
 */
class ReplaySink : public MemSink
{
  public:
    /** Calls buffered per replay batch (16 bytes each). */
    static constexpr std::size_t kBatch = 1 << 20;

    ReplaySink(MemSink &target, SpanRecorder &spans)
        : target_(&target), spans_(&spans)
    {
        events_.reserve(kBatch);
    }

    void load(Addr a, std::uint32_t b) override { add(Kind::Load, a, b); }
    void store(Addr a, std::uint32_t b) override { add(Kind::Store, a, b); }

    void
    loadDep(Addr a, std::uint32_t b) override
    {
        add(Kind::LoadDep, a, b);
    }

    void compute(std::uint64_t ops) override { add(Kind::Compute, ops, 0); }

    void
    computeStreamlined(std::uint64_t ops) override
    {
        add(Kind::Streamlined, ops, 0);
    }

    void
    phase(const char *name) override
    {
        add(Kind::Phase, phases_.size(), 0);
        phases_.push_back(name);
    }

    /** Replay whatever is buffered. */
    void
    flush()
    {
        Scope s(*spans_, "cpu.replay");
        for (const Event &e : events_) {
            switch (e.kind) {
              case Kind::Load: target_->load(e.arg, e.bytes); break;
              case Kind::Store: target_->store(e.arg, e.bytes); break;
              case Kind::LoadDep: target_->loadDep(e.arg, e.bytes); break;
              case Kind::Compute: target_->compute(e.arg); break;
              case Kind::Streamlined:
                target_->computeStreamlined(e.arg);
                break;
              case Kind::Phase: target_->phase(phases_[e.arg]); break;
            }
        }
        events_.clear();
        phases_.clear();
    }

    /** Calls recorded so far (phase annotations included). */
    std::uint64_t events() const { return recorded_; }

  private:
    enum class Kind : std::uint8_t
    {
        Load,
        Store,
        LoadDep,
        Compute,
        Streamlined,
        Phase
    };

    /** Address for memory calls, op count for compute, phase index. */
    struct Event
    {
        std::uint64_t arg;
        std::uint32_t bytes;
        Kind kind;
    };

    void
    add(Kind k, std::uint64_t arg, std::uint32_t bytes)
    {
        events_.push_back({arg, bytes, k});
        ++recorded_;
        if (events_.size() == kBatch) {
            flush();
        }
    }

    MemSink *target_;
    SpanRecorder *spans_;
    std::vector<Event> events_;
    /** Phase names are string literals; kept by pointer. */
    std::vector<const char *> phases_;
    std::uint64_t recorded_ = 0;
};

/** Forwards every call to two sinks: first @p a, then @p b. */
class TeeSink : public MemSink
{
  public:
    TeeSink(MemSink &a, MemSink &b) : a_(&a), b_(&b) {}

    void
    load(Addr addr, std::uint32_t bytes) override
    {
        a_->load(addr, bytes);
        b_->load(addr, bytes);
    }

    void
    store(Addr addr, std::uint32_t bytes) override
    {
        a_->store(addr, bytes);
        b_->store(addr, bytes);
    }

    void
    loadDep(Addr addr, std::uint32_t bytes) override
    {
        a_->loadDep(addr, bytes);
        b_->loadDep(addr, bytes);
    }

    void
    compute(std::uint64_t ops) override
    {
        a_->compute(ops);
        b_->compute(ops);
    }

    void
    computeStreamlined(std::uint64_t ops) override
    {
        a_->computeStreamlined(ops);
        b_->computeStreamlined(ops);
    }

    void
    phase(const char *name) override
    {
        a_->phase(name);
        b_->phase(name);
    }

  private:
    MemSink *a_;
    MemSink *b_;
};

} // namespace hostbench

#endif // HOSTBENCH_NARRATION_HH
