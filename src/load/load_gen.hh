/**
 * @file
 * Deterministic load generator for the cluster serving front-end.
 *
 * Models the aggregate of a large simulated client population (default
 * one million clients per node) as a non-homogeneous Poisson process:
 * a base per-node rate modulated by a composable LoadShape (steady,
 * flash crowd — load_shape.hh). Arrivals are drawn by
 * Lewis-Shedler thinning against the shape's max-factor envelope, so
 * any shape composition stays an exact Poisson sample of its rate
 * curve.
 *
 * Each arrival carries a client id (drawn from the population) and a
 * request class derived from it — 0 = gold (~10%), 1 = silver (~60%),
 * 2 = bronze (~30%) — which request traces record as "class".
 *
 * Determinism: each origin node's stream comes from its own seeded
 * Rng, so streams are independent of generation order and identical
 * across host thread counts.
 */

#ifndef CEREAL_LOAD_LOAD_GEN_HH
#define CEREAL_LOAD_LOAD_GEN_HH

#include <cstdint>
#include <vector>

#include "load/load_shape.hh"

namespace cereal {
namespace load {

/** One simulated client request entering the cluster. */
struct Arrival
{
    /** Arrival time, seconds from run start. */
    double t = 0;
    /** Node the client's connection terminates on. */
    std::uint32_t origin = 0;
    /** Uniformly chosen peer that serves the request. */
    std::uint32_t dst = 0;
    /** Simulated client id within the population. */
    std::uint64_t client = 0;
    /** Request class: 0 = gold, 1 = silver, 2 = bronze. */
    std::uint8_t cls = 0;
};

/** Request classes are 0..kRequestClasses-1, best first. */
constexpr unsigned kRequestClasses = 3;

/** Parameters of one generated load. */
struct LoadGenConfig
{
    unsigned nodes = 4;
    /** Base (unmodulated) per-node arrival rate, requests/second. */
    double lambdaBase = 1.0;
    /** Arrivals generated per origin node. */
    std::uint64_t requestsPerNode = 200;
    /** Simulated client population size per node. */
    std::uint64_t clientsPerNode = 1'000'000;
    LoadShape shape = LoadShape::steady();
    std::uint64_t seed = 1;
};

/**
 * Draws per-node arrival streams. Stateless between calls: the stream
 * for an origin is a pure function of (config, origin).
 */
class LoadGenerator
{
  public:
    explicit LoadGenerator(LoadGenConfig cfg);

    const LoadGenConfig &config() const { return cfg_; }

    /**
     * Nominal run length the shape's fractional times scale to: the
     * expected span of requestsPerNode arrivals at the base rate.
     */
    double horizonSeconds() const { return horizon_; }

    /**
     * The complete arrival stream of @p origin, sorted by time.
     * Deterministic: repeated calls return identical vectors.
     */
    std::vector<Arrival> arrivalsFor(std::uint32_t origin) const;

    /** The class a given client id maps to (stable per client). */
    static std::uint8_t classOf(std::uint64_t client);

  private:
    LoadGenConfig cfg_;
    double horizon_ = 0;
};

} // namespace load
} // namespace cereal

#endif // CEREAL_LOAD_LOAD_GEN_HH
