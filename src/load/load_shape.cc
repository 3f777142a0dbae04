#include "load/load_shape.hh"

#include "sim/logging.hh"

namespace cereal {
namespace load {

LoadShape
LoadShape::steady()
{
    LoadShape s;
    ShapeComponent c;
    c.kind = ShapeKind::Steady;
    s.components_.push_back(c);
    return s;
}

LoadShape
LoadShape::flashCrowd(double spike_factor, double start_frac,
                      double duration_frac)
{
    panic_if(spike_factor < 1, "flash-crowd factor must be >= 1");
    panic_if(start_frac < 0 || duration_frac <= 0,
             "flash-crowd window must lie in the run");
    LoadShape s;
    ShapeComponent c;
    c.kind = ShapeKind::FlashCrowd;
    c.start = start_frac;
    c.duration = duration_frac;
    c.spikeFactor = spike_factor;
    s.components_.push_back(c);
    return s;
}

LoadShape
LoadShape::with(const LoadShape &other) const
{
    LoadShape s = *this;
    for (const auto &c : other.components_) {
        s.components_.push_back(c);
    }
    return s;
}

double
LoadShape::maxFactor() const
{
    double f = 1.0;
    for (const auto &c : components_) {
        switch (c.kind) {
          case ShapeKind::Steady:
            break;
          case ShapeKind::FlashCrowd:
            f *= c.spikeFactor;
            break;
        }
    }
    return f;
}

double
LoadShape::factor(double t, double horizon_seconds) const
{
    double f = 1.0;
    for (const auto &c : components_) {
        switch (c.kind) {
          case ShapeKind::Steady:
            break;
          case ShapeKind::FlashCrowd: {
            const double s = c.start * horizon_seconds;
            const double e = s + c.duration * horizon_seconds;
            if (t >= s && t < e) {
                f *= c.spikeFactor;
            }
            break;
          }
        }
    }
    return f;
}

const ShapeComponent *
LoadShape::flashComponent() const
{
    for (const auto &c : components_) {
        if (c.kind == ShapeKind::FlashCrowd) {
            return &c;
        }
    }
    return nullptr;
}

std::string
LoadShape::describe() const
{
    std::string out;
    for (const auto &c : components_) {
        if (!out.empty()) {
            out += '+';
        }
        switch (c.kind) {
          case ShapeKind::Steady:
            out += "steady";
            break;
          case ShapeKind::FlashCrowd:
            out += "flash";
            break;
        }
    }
    return out.empty() ? "steady" : out;
}

} // namespace load
} // namespace cereal
