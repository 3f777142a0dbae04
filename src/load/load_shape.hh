/**
 * @file
 * Composable traffic shapes for the serving load generator.
 *
 * A LoadShape describes how the aggregate request rate of a large
 * client population varies over a run: it is a product of modulation
 * components applied to a base Poisson rate. Two component kinds:
 *
 *  - Steady:     factor 1 everywhere (homogeneous Poisson).
 *  - FlashCrowd: factor spikeFactor inside one [start, start+duration)
 *                window, 1 outside — a news-event stampede.
 *
 * All times are *fractions of the run horizon* rather than absolute
 * seconds: the same shape can drive a backend whose capacity (and
 * therefore natural run length) is 100x another's, and the spike still
 * lands mid-run. The generator converts to seconds at draw time.
 *
 * Components multiply, so `flashCrowd(...).with(flashCrowd(...))` is
 * two spikes, their factors multiplied where they overlap. Evaluation
 * is a pure function of the shape, the horizon and the time.
 */

#ifndef CEREAL_LOAD_LOAD_SHAPE_HH
#define CEREAL_LOAD_LOAD_SHAPE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cereal {
namespace load {

/** Modulation component kinds; see the file comment. */
enum class ShapeKind { Steady, FlashCrowd };

/** One multiplicative modulation component of a LoadShape. */
struct ShapeComponent
{
    ShapeKind kind = ShapeKind::Steady;
    /** FlashCrowd: spike start as a horizon fraction. */
    double start = 0;
    /** FlashCrowd: spike length as a horizon fraction. */
    double duration = 0;
    /** FlashCrowd: rate factor inside the spike window (> 1). */
    double spikeFactor = 1.0;
};

/** A product of modulation components over a base Poisson rate. */
class LoadShape
{
  public:
    /** Homogeneous Poisson: no modulation. */
    static LoadShape steady();

    /**
     * One spike window: factor @p spike_factor over
     * [@p start_frac, @p start_frac + @p duration_frac) of the horizon.
     */
    static LoadShape flashCrowd(double spike_factor, double start_frac,
                                double duration_frac);

    /** Compose: this shape's factors multiplied by @p other's. */
    LoadShape with(const LoadShape &other) const;

    /**
     * Upper bound on the modulation factor at any instant (thinning
     * envelope for the non-homogeneous Poisson draw).
     */
    double maxFactor() const;

    /**
     * Modulation factor at @p t seconds of a run whose fractional
     * times scale to @p horizon_seconds.
     */
    double factor(double t, double horizon_seconds) const;

    /** The flash-crowd component, or nullptr when none is present. */
    const ShapeComponent *flashComponent() const;

    /** "steady", "steady+flash", ... for bench row names and JSON. */
    std::string describe() const;

  private:
    std::vector<ShapeComponent> components_;
};

} // namespace load
} // namespace cereal

#endif // CEREAL_LOAD_LOAD_SHAPE_HH
