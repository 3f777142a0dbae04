#include "cereal/api.hh"

#include <cstring>

#include "serde/decode_error.hh"
#include "serde/skyway_serde.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace cereal {

void
ObjectOutputStream::append(const std::vector<std::uint8_t> &record)
{
    std::uint64_t n = record.size();
    const auto *p = reinterpret_cast<const std::uint8_t *>(&n);
    buf_.insert(buf_.end(), p, p + 8);
    buf_.insert(buf_.end(), record.begin(), record.end());
    ++records_;
}

std::vector<std::uint8_t>
ObjectInputStream::nextRecord()
{
    decode_check(buf_->size() - pos_ >= 8, DecodeStatus::Truncated, pos_,
                 "record length prefix overruns stream");
    std::uint64_t n;
    std::memcpy(&n, buf_->data() + pos_, 8);
    pos_ += 8;
    // n came off the wire: compare against the remainder, never add it
    // to pos_ first (the sum can wrap).
    decode_check(n <= buf_->size() - pos_, DecodeStatus::Truncated, pos_,
                 "record body (%llu B) overruns stream",
                 (unsigned long long)n);
    std::vector<std::uint8_t> rec(buf_->begin() +
                                      static_cast<std::ptrdiff_t>(pos_),
                                  buf_->begin() +
                                      static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return rec;
}

CerealContext::CerealContext(Dram &dram, AccelConfig cfg,
                             CerealOptions opts)
    : dram_(&dram), device_(dram, cfg), serializer_(opts),
      trace_(trace::current().sub("cereal"))
{
    device_.setTrace(trace_);
}

void
CerealContext::registerClass(KlassId id)
{
    serializer_.registerClass(id);
}

void
CerealContext::registerAll(const KlassRegistry &reg)
{
    serializer_.registerAll(reg);
}

WriteObjectResult
CerealContext::writeObject(ObjectOutputStream &oos, Heap &src, Addr root,
                           Tick submit, bool shared_conflict)
{
    WriteObjectResult out;
    out.stream = serializer_.serializeToStream(src, root);
    oos.append(out.stream.encode());

    if (shared_conflict) {
        // Section V-E: another unit holds this graph's header area; the
        // serialization falls back to software with a thread-local
        // visited table. Skyway's algorithm is that software path.
        out.softwareFallback = true;
        CoreModel core(*dram_, CoreConfig(), submit);
        core.setTrace(trace_.sub("sw_fallback"));
        SkywaySerializer sw;
        sw.serialize(src, root, &core);
        auto stats = core.finish();
        out.timing.submit = submit;
        out.timing.start = submit;
        out.timing.done = submit + stats.elapsedTicks;
        out.timing.latencySeconds = stats.seconds;
        out.timing.bytes = stats.dramBytes;
        return out;
    }

    out.timing = device_.serialize(src, root, submit);
    return out;
}

ReadObjectResult
CerealContext::readObject(ObjectInputStream &ois, Heap &dst, Tick submit)
{
    ReadObjectResult out;
    CerealStream s = CerealStream::decode(ois.nextRecord());
    out.root = serializer_.deserializeStream(s, dst);
    out.timing = device_.deserialize(s, out.root, submit);
    return out;
}

} // namespace cereal
