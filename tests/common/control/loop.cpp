#include "common/control/loop.h"

namespace nps {
namespace ctl {

ControlLoop::ControlLoop(std::string name)
    : name_(std::move(name))
{
}

void
ControlLoop::setReference(double reference)
{
    reference_ = reference;
}

double
ControlLoop::step()
{
    last_measurement_ = measure();
    last_error_ = reference_ - last_measurement_;
    double u = control(last_error_, last_measurement_);
    actuate(u);
    ++steps_;
    return u;
}

void
ControlLoop::reset()
{
    last_measurement_ = 0.0;
    last_error_ = 0.0;
    steps_ = 0;
}

} // namespace ctl
} // namespace nps
