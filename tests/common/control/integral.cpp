#include "common/control/integral.h"

#include "util/logging.h"
#include "util/stats.h"

namespace nps {
namespace ctl {

IntegralController::IntegralController(double initial, double lo, double hi)
    : value_(initial), lo_(lo), hi_(hi)
{
    if (lo_ > hi_)
        util::fatal("IntegralController: lo %f > hi %f", lo_, hi_);
    value_ = util::clamp(value_, lo_, hi_);
}

void
IntegralController::setValue(double value)
{
    value_ = util::clamp(value, lo_, hi_);
}

double
IntegralController::update(double gain, double error)
{
    value_ = util::clamp(value_ + gain * error, lo_, hi_);
    return value_;
}

void
IntegralController::setRange(double lo, double hi)
{
    if (lo > hi)
        util::fatal("IntegralController::setRange: lo %f > hi %f", lo, hi);
    lo_ = lo;
    hi_ = hi;
    value_ = util::clamp(value_, lo_, hi_);
}

bool
IntegralController::saturated() const
{
    return value_ <= lo_ || value_ >= hi_;
}

} // namespace ctl
} // namespace nps
