#include "cluster/transport.hh"

#include <string>
#include <utility>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace cereal {
namespace cluster {

namespace {

/**
 * The per-node workers, registered before the fabric so that their
 * metrics series and trace tracks precede the fabric's.
 */
std::vector<Worker>
makeWorkers(EventQueue &eq, unsigned nodes)
{
    const auto em = trace::current();
    std::vector<Worker> workers(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) {
        workers[i].eq = &eq;
        workers[i].initMetrics(i);
        if (em.enabled()) {
            workers[i].trace =
                em.sub(("node" + std::to_string(i)).c_str());
        }
    }
    return workers;
}

} // namespace

Transport::Transport(EventQueue &eq, unsigned nodes, const NetConfig &net,
                     Receive receive)
    : workers_(makeWorkers(eq, nodes)),
      fabric_(eq, nodes, net,
              [this](std::uint32_t dst, std::vector<std::uint8_t> bytes) {
                  deliver(dst, std::move(bytes));
              }),
      receive_(std::move(receive))
{
}

void
Transport::send(const FrameRef &f, std::uint64_t checksum)
{
    auto bytes = pool_.acquire();
    encodeFrameInto(f, checksum, bytes);
    fabric_.send(f.srcNode, f.dstNode, std::move(bytes));
}

void
Transport::deliver(std::uint32_t dst, std::vector<std::uint8_t> bytes)
{
    auto res = tryDecodeFrameInfo(bytes);
    panic_if(!res.ok(), "fabric delivered a corrupt frame: %s",
             res.error().what());
    FrameInfo info = res.value();
    info.payload = nullptr;
    pool_.release(std::move(bytes));
    receive_(dst, info);
}

} // namespace cluster
} // namespace cereal
