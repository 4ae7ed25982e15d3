#include "model/power_model.h"

#include <algorithm>

#include "util/logging.h"
#include "util/stats.h"

namespace nps {
namespace model {

PowerModel::PowerModel(PStateTable table)
    : table_(std::move(table))
{
}

double
PowerModel::maxPower() const
{
    return table_.fastest().peakPower();
}

double
PowerModel::idlePower(size_t state) const
{
    return table_.at(state).idle_watts;
}

double
PowerModel::servedWork(size_t state, double real_demand) const
{
    if (real_demand < 0.0)
        util::panic("servedWork: negative demand %f", real_demand);
    return std::min(real_demand, table_.relSpeed(state));
}

double
PowerModel::apparentUtil(size_t state, double real_demand) const
{
    if (real_demand < 0.0)
        util::panic("apparentUtil: negative demand %f", real_demand);
    return std::min(1.0, real_demand / table_.relSpeed(state));
}

double
PowerModel::realUtil(size_t state, double apparent_util) const
{
    return apparent_util * table_.relSpeed(state);
}

double
PowerModel::utilForPower(size_t state, double watts) const
{
    const PState &s = table_.at(state);
    if (s.dyn_watts <= 0.0)
        return 1.0;
    return util::clamp((watts - s.idle_watts) / s.dyn_watts, 0.0, 1.0);
}

double
PowerModel::powerForDemand(size_t state, double real_demand) const
{
    return powerAt(state, apparentUtil(state, real_demand));
}

size_t
PowerModel::bestStateForDemand(double real_demand, double util_limit) const
{
    size_t best = 0;
    double best_power = powerForDemand(0, real_demand);
    bool found = apparentUtil(0, real_demand) <= util_limit;
    for (size_t i = 1; i < table_.size(); ++i) {
        if (apparentUtil(i, real_demand) > util_limit)
            continue;
        double p = powerForDemand(i, real_demand);
        if (!found || p < best_power) {
            best = i;
            best_power = p;
            found = true;
        }
    }
    return best;
}

double
PowerModel::maxPowerSlope() const
{
    // pow depends on r_ref through the EC's frequency choice; the chain
    // rule slope is bounded by the steepest dynamic slope amplified by the
    // largest frequency ratio between adjacent states.
    double max_dyn = 0.0;
    for (size_t i = 0; i < table_.size(); ++i)
        max_dyn = std::max(max_dyn, table_.at(i).dyn_watts);
    double max_step = 1.0;
    for (size_t i = 1; i < table_.size(); ++i) {
        double step = table_.at(i - 1).freq_mhz / table_.at(i).freq_mhz;
        max_step = std::max(max_step, step);
    }
    return max_dyn * max_step;
}

} // namespace model
} // namespace nps
