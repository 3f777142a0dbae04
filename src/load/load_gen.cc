#include "load/load_gen.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace cereal {
namespace load {

LoadGenerator::LoadGenerator(LoadGenConfig cfg) : cfg_(cfg)
{
    panic_if(cfg_.nodes < 2, "load generator needs at least 2 nodes");
    panic_if(cfg_.lambdaBase <= 0, "base arrival rate must be > 0");
    panic_if(cfg_.requestsPerNode == 0, "need at least one request");
    panic_if(cfg_.clientsPerNode == 0, "need a client population");
    horizon_ = static_cast<double>(cfg_.requestsPerNode) /
               cfg_.lambdaBase;
}

std::uint8_t
LoadGenerator::classOf(std::uint64_t client)
{
    // Stable per client: a client is gold on every request it makes.
    // Decile split: 1 gold, 6 silver, 3 bronze.
    const std::uint64_t decile = client % 10;
    if (decile == 0) {
        return 0;
    }
    return decile < 7 ? 1 : 2;
}

std::vector<Arrival>
LoadGenerator::arrivalsFor(std::uint32_t origin) const
{
    panic_if(origin >= cfg_.nodes, "origin out of range");

    // Private per-origin randomness: the stream is independent of the
    // order origins are generated in (and of host threading).
    Rng rng(cfg_.seed * 0x2545f4914f6cdd1dULL + origin + 1);
    const LoadShape &shape = cfg_.shape;
    const double maxFactor = shape.maxFactor();

    // Lewis-Shedler thinning: draw a homogeneous Poisson stream at the
    // envelope rate, keep each candidate with probability
    // factor(t) / maxFactor. What survives is an exact sample of the
    // non-homogeneous process with rate lambdaBase * factor(t).
    const double lambdaMax = cfg_.lambdaBase * maxFactor;

    std::vector<Arrival> out;
    out.reserve(cfg_.requestsPerNode);
    double t = 0;
    while (out.size() < cfg_.requestsPerNode) {
        t += -std::log(1.0 - rng.uniform()) / lambdaMax;
        const double keep = shape.factor(t, horizon_) / maxFactor;
        if (keep < 1.0 && !rng.chance(keep)) {
            continue;
        }
        Arrival a;
        a.t = t;
        a.origin = origin;
        a.dst = static_cast<std::uint32_t>(rng.below(cfg_.nodes - 1));
        if (a.dst >= origin) {
            ++a.dst; // uniform over the n-1 peers
        }
        a.client = static_cast<std::uint64_t>(origin) *
                       cfg_.clientsPerNode +
                   rng.below(cfg_.clientsPerNode);
        a.cls = classOf(a.client);
        out.push_back(a);
    }
    return out;
}

} // namespace load
} // namespace cereal
