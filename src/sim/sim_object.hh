/**
 * @file
 * Base class for named model components with statistics.
 */

#ifndef CEREAL_SIM_SIM_OBJECT_HH
#define CEREAL_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace cereal {

/**
 * A named simulation component bound to an EventQueue.
 *
 * Subclasses register their statistics into stats() at construction.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq)
        : name_(std::move(name)), eventq_(&eq), stats_(name_)
    {
    }

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Tick curTick() const { return eventq_->now(); }

    stats::StatGroup &stats() { return stats_; }
    const stats::StatGroup &stats() const { return stats_; }

  private:
    std::string name_;
    EventQueue *eventq_;
    stats::StatGroup stats_;
};

} // namespace cereal

#endif // CEREAL_SIM_SIM_OBJECT_HH
