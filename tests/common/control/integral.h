/**
 * @file
 * Integral control law with anti-windup clamping.
 *
 * The EC and SM are both integral controllers: the actuator moves by an
 * amount proportional to the current error, accumulating over time so the
 * steady-state error is driven to zero. The IntegralController here is the
 * reusable core: u(k) = clamp(u(k-1) + gain(k) * error(k)), where gain(k)
 * may be supplied per step (the EC's gain is self-tuning; see Figure 6).
 */

#ifndef NPS_TESTS_COMMON_CONTROL_INTEGRAL_H
#define NPS_TESTS_COMMON_CONTROL_INTEGRAL_H

namespace nps {
namespace ctl {

/**
 * Clamped discrete-time integral control law.
 */
class IntegralController
{
  public:
    /**
     * @param initial Initial actuator value u(0).
     * @param lo      Lower clamp for the actuator.
     * @param hi      Upper clamp for the actuator.
     */
    IntegralController(double initial, double lo, double hi);

    /** @return the current actuator value. */
    double value() const { return value_; }

    /** Force the actuator value (clamped). */
    void setValue(double value);

    /**
     * Integrate one step: value += gain * error, then clamp.
     * @return the new actuator value.
     */
    double update(double gain, double error);

    /** @return lower clamp. */
    double lo() const { return lo_; }

    /** @return upper clamp. */
    double hi() const { return hi_; }

    /** Change the clamp range (re-clamps the current value). */
    void setRange(double lo, double hi);

    /** @return true when the current value sits on either clamp. */
    bool saturated() const;

  private:
    double value_;
    double lo_;
    double hi_;
};

} // namespace ctl
} // namespace nps

#endif // NPS_TESTS_COMMON_CONTROL_INTEGRAL_H
