/**
 * @file
 * Utilization-based power and performance models for a whole server.
 *
 * Wraps a PStateTable with the conversions the controllers need:
 * power at a (state, utilization) operating point, served work, real vs.
 * apparent utilization, and the per-state slope bounds used by the SM
 * stability analysis (Appendix A).
 */

#ifndef NPS_MODEL_POWER_MODEL_H
#define NPS_MODEL_POWER_MODEL_H

#include <cstddef>

#include "model/pstate.h"

namespace nps {
namespace model {

/**
 * Power/performance model of one server, parameterized by P-state.
 *
 * Utilization conventions used throughout the simulator:
 *  - "real" utilization: demand or consumption expressed as a fraction of
 *    the machine's *full-speed* (P0) capacity; can exceed 1 for demand.
 *  - "apparent" utilization: consumption as a fraction of capacity *at the
 *    current P-state*; saturates at 1.
 */
class PowerModel
{
  public:
    /** Construct over a P-state table (copied in). */
    explicit PowerModel(PStateTable table);

    /** @return the underlying P-state table. */
    const PStateTable &pstates() const { return table_; }

    /** Power (watts) at @p state with apparent utilization @p util. */
    double
    powerAt(size_t state, double util) const
    {
        return table_.at(state).powerAt(util);
    }

    /** Peak power of the machine: P0 at full utilization. */
    double maxPower() const;

    /** Idle power at @p state. */
    double idlePower(size_t state) const;

    /**
     * Served work given real demand @p real_demand (fraction of full-speed
     * capacity, may exceed 1) at @p state. Work is capped by the state's
     * relative speed: served = min(real_demand, relSpeed(state)).
     */
    double servedWork(size_t state, double real_demand) const;

    /**
     * Apparent utilization at @p state for real demand @p real_demand:
     * min(1, real_demand / relSpeed(state)).
     */
    double apparentUtil(size_t state, double real_demand) const;

    /**
     * Translate an apparent utilization measured at @p state back to real
     * (full-speed) utilization: apparent * relSpeed(state). This is the
     * "simple model" the coordinated VMC uses to compare servers running
     * at different power states (Section 3.1).
     */
    double realUtil(size_t state, double apparent_util) const;

    /**
     * Apparent utilization at which power at @p state reaches @p watts;
     * clamped to [0, 1]. Used to invert the power model when allocating
     * budgets. Returns 1 if the state's dynamic range is zero.
     */
    double utilForPower(size_t state, double watts) const;

    /**
     * Estimated power of serving real demand @p real_demand at @p state
     * (combines apparentUtil() and powerAt()).
     */
    double powerForDemand(size_t state, double real_demand) const;

    /**
     * Lowest-power state able to serve @p real_demand without saturating
     * beyond apparent utilization @p util_limit. Falls back to P0 when no
     * state satisfies the limit.
     */
    size_t bestStateForDemand(double real_demand, double util_limit) const;

    /**
     * Upper bound c_max on the power-vs-r_ref slope used by the SM
     * stability condition 0 < beta < 2 / c_max (Appendix A). Conservatively
     * the largest dynamic slope over all states, scaled by the largest
     * relative frequency step.
     */
    double maxPowerSlope() const;

  private:
    PStateTable table_;
};

} // namespace model
} // namespace nps

#endif // NPS_MODEL_POWER_MODEL_H
