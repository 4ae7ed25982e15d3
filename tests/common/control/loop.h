/**
 * @file
 * The classical feedback-control skeleton of Figure 3: a measured output is
 * compared with a reference; a controller maps the error to an actuator
 * setting.
 *
 * The paper's coordination trick is to *overload* these interfaces: one
 * controller's actuator is another controller's reference input (the SM
 * actuates the EC's r_ref; the EM/GM actuate the SM's power budget). The
 * ControlLoop base class therefore exposes setReference() as a first-class
 * channel that outer loops may drive.
 */

#ifndef NPS_TESTS_COMMON_CONTROL_LOOP_H
#define NPS_TESTS_COMMON_CONTROL_LOOP_H

#include <string>

namespace nps {
namespace ctl {

/**
 * Base class for feedback loops (Figure 3 of the paper).
 *
 * A step performs: measure -> compute error against the reference ->
 * control law -> actuate. Subclasses supply the three hooks.
 */
class ControlLoop
{
  public:
    /** @param name Diagnostic name of the loop. */
    explicit ControlLoop(std::string name);

    virtual ~ControlLoop() = default;

    ControlLoop(const ControlLoop &) = delete;
    ControlLoop &operator=(const ControlLoop &) = delete;

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /**
     * Set the reference (target) value. This is the coordination channel:
     * outer controllers drive inner loops exclusively through it.
     */
    virtual void setReference(double reference);

    /** @return the current reference. */
    double reference() const { return reference_; }

    /** @return the most recent measured output (0 before the first step). */
    double lastMeasurement() const { return last_measurement_; }

    /** @return reference() - lastMeasurement() of the most recent step. */
    double lastError() const { return last_error_; }

    /** @return number of completed steps. */
    unsigned long steps() const { return steps_; }

    /**
     * Run one control interval: measure, compute the error, apply the
     * control law, actuate. @return the actuator value that was applied.
     */
    double step();

    /** Reset error history; keeps the reference. */
    virtual void reset();

    /**
     * Overwrite the loop's history verbatim (checkpoint restore only).
     * Bypasses setReference() on purpose: subclass side effects already
     * happened in the original run and are restored separately.
     */
    void
    restoreLoopState(double reference, double last_measurement,
                     double last_error, unsigned long steps)
    {
        reference_ = reference;
        last_measurement_ = last_measurement;
        last_error_ = last_error;
        steps_ = steps;
    }

  protected:
    /** Read the sensor. */
    virtual double measure() = 0;

    /**
     * Control law: map (error, measurement) to an actuator value.
     * @param error      reference - measurement
     * @param measurement the raw sensor reading
     */
    virtual double control(double error, double measurement) = 0;

    /** Apply the actuator value to the system. */
    virtual void actuate(double value) = 0;

  private:
    std::string name_;
    double reference_ = 0.0;
    double last_measurement_ = 0.0;
    double last_error_ = 0.0;
    unsigned long steps_ = 0;
};

} // namespace ctl
} // namespace nps

#endif // NPS_TESTS_COMMON_CONTROL_LOOP_H
