/**
 * @file
 * Latency populations: exact order statistics over recorded samples.
 *
 * Model components keep plain integer counters; a Distribution is for
 * the populations a result reports by percentile (request latencies),
 * and logBucketBounds() is the ladder every exported histogram shares.
 */

#ifndef CEREAL_SIM_STATS_HH
#define CEREAL_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace cereal {
namespace stats {

/**
 * Percentile summary over a stream of samples.
 *
 * Keeps every sample so exact order statistics are available at dump
 * time (nearest-rank percentiles). Intended for latency populations of
 * at most a few hundred thousand samples; the sort is deferred and
 * cached until the next sample() invalidates it.
 */
class Distribution
{
  public:
    /** exemplarAt() result when no exemplar resolves at that rank. */
    static constexpr std::uint64_t kNoExemplar = 0;

    Distribution() = default;

    /** Record one sample. */
    void
    sample(double v)
    {
        // min/max are set from the first sample, so an empty population
        // reads 0 for both; the sum runs in sample order.
        if (samples_.empty()) {
            min_ = max_ = v;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        samples_.push_back(v);
        sorted_ = false;
        sum_ += v;
    }

    /**
     * Record one sample carrying an exemplar id (a request trace id).
     * The id does not perturb the base sample population — quantile()
     * and friends are byte-identical whether or not ids are attached —
     * but exemplarAt() can then resolve a quantile back to the concrete
     * request that produced it.
     */
    void
    sample(double v, std::uint64_t exemplar)
    {
        sample(v);
        if (exemplar != kNoExemplar) {
            exemplars_.emplace_back(v, exemplar);
            exSorted_ = false;
        }
    }

    /** Pre-size the sample store for a known population size. */
    void reserve(std::size_t n) { samples_.reserve(n); }

    /**
     * Nearest-rank percentile, @p p in [0, 100]. Returns 0 when the
     * distribution is empty.
     */
    double percentile(double p) const { return quantile(p / 100.0); }

    /**
     * Nearest-rank quantile, @p q in [0, 1]: the smallest sample with
     * at least a q fraction of the population at or below it. The
     * extreme tails a serving bench reports (p999 and beyond) need the
     * fractional form — percentile(99.9) loses nothing, but quantile
     * is the primitive. Returns 0 when the distribution is empty.
     */
    double quantile(double q) const;

    /**
     * The exemplar id recorded at the nearest-rank @p q quantile of the
     * exemplar-carrying samples (same rank arithmetic as quantile();
     * value ties break deterministically toward the smaller id).
     * Returns kNoExemplar when no sample carried an id.
     */
    std::uint64_t exemplarAt(double q) const;

    /**
     * Cumulative counts of samples at or below each logBucketBounds()
     * bound (a Prometheus-style histogram; samples above the last
     * bound appear only in count()).
     */
    std::vector<std::uint64_t> logBucketCounts() const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
    /** Tail percentile for serving SLOs; needs n >= 1000 to resolve. */
    double p999() const { return quantile(0.999); }
    double mean() const { return count() ? sum_ / count() : 0; }
    /** Smallest sample (0 while empty, for schema-stable reports). */
    double min() const { return min_; }
    /** Largest sample (0 while empty, for schema-stable reports). */
    double max() const { return max_; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return samples_.size(); }

  private:
    /** Sort the samples once per batch of new ones. */
    void sortSamples() const;

    // percentile() sorts lazily; logical state is unchanged.
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
    mutable std::vector<std::pair<double, std::uint64_t>> exemplars_;
    mutable bool exSorted_ = false;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * Log-spaced latency bucket upper bounds shared by every exported
 * histogram: {1, 2, 5} x 10^k seconds from 1 microsecond to 50
 * seconds. A fixed global ladder keeps exported histograms comparable
 * across runs, backends, and scales.
 */
const std::vector<double> &logBucketBounds();

} // namespace stats
} // namespace cereal

#endif // CEREAL_SIM_STATS_HH
