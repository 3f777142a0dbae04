#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

namespace cereal {
namespace stats {

void
Distribution::sortSamples() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
Distribution::quantile(double q) const
{
    if (samples_.empty()) {
        return 0;
    }
    sortSamples();
    if (q <= 0) {
        return samples_.front();
    }
    if (q >= 1) {
        return samples_.back();
    }
    // Nearest-rank: the smallest sample with at least a q fraction of
    // the population at or below it. The epsilon absorbs q values that
    // land one ulp above the intended fraction (e.g. 99.9 / 100), which
    // would otherwise ceil to the next rank.
    auto rank = static_cast<std::size_t>(std::ceil(
        q * static_cast<double>(samples_.size()) - 1e-9));
    if (rank == 0) {
        rank = 1;
    }
    return samples_[rank - 1];
}

std::uint64_t
Distribution::exemplarAt(double q) const
{
    if (exemplars_.empty()) {
        return kNoExemplar;
    }
    if (!exSorted_) {
        // Sort by (value, id): the value order matches quantile()'s
        // sample order, and the id tiebreak makes the resolved exemplar
        // deterministic when several requests share a latency.
        std::sort(exemplars_.begin(), exemplars_.end());
        exSorted_ = true;
    }
    std::size_t rank = 1;
    if (q > 0 && q < 1) {
        rank = static_cast<std::size_t>(std::ceil(
            q * static_cast<double>(exemplars_.size()) - 1e-9));
        if (rank == 0) {
            rank = 1;
        }
    } else if (q >= 1) {
        rank = exemplars_.size();
    }
    return exemplars_[rank - 1].second;
}

const std::vector<double> &
logBucketBounds()
{
    static const std::vector<double> bounds = [] {
        std::vector<double> b;
        const double mantissas[3] = {1, 2, 5};
        for (int k = -6; k <= 1; ++k) {
            for (double m : mantissas) {
                b.push_back(m * std::pow(10.0, k));
            }
        }
        return b;
    }();
    return bounds;
}

std::vector<std::uint64_t>
Distribution::logBucketCounts() const
{
    const auto &bounds = logBucketBounds();
    std::vector<std::uint64_t> counts(bounds.size(), 0);
    if (samples_.empty()) {
        return counts;
    }
    sortSamples();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        counts[i] = static_cast<std::uint64_t>(
            std::upper_bound(samples_.begin(), samples_.end(), bounds[i]) -
            samples_.begin());
    }
    return counts;
}

} // namespace stats
} // namespace cereal
