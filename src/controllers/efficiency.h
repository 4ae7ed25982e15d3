/**
 * @file
 * Efficiency Controller (EC): per-server average-power tracking.
 *
 * The innermost loop of the architecture (Section 3.1). Treats the server
 * as a container to be used at a target fraction r_ref of its capacity:
 * utilization below target means the container can shrink, so the EC
 * lowers the clock frequency (deeper P-state); utilization above target
 * grows it again. The integral control law (Figure 6, Eq. EC) is
 *
 *     f(k) = f(k-1) - lambda * (f_C(k-1) / r_ref) * (r_ref - r(k-1))
 *
 * with the self-tuning gain lambda * f_C / r_ref and global stability for
 * 0 < lambda < 1 / r_ref (Appendix A, Proposition A).
 *
 * Coordination: the SM actuates this loop solely through setReference().
 *
 * Layout (docs/PERFORMANCE.md): the state of every EC lives in one
 * struct-of-arrays EcLevel, stepped as a single range kernel per tick;
 * EfficiencyController is a thin view of one slot (server id == slot).
 * A standalone EfficiencyController owns a private one-slot level.
 */

#ifndef NPS_CONTROLLERS_EFFICIENCY_H
#define NPS_CONTROLLERS_EFFICIENCY_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace nps {
namespace obs {
class Counter;
class MetricsRegistry;
class TraceChannel;
class TraceSink;
} // namespace obs

namespace controllers {

/**
 * Objective variants of the EC (Section 6, extension 6).
 */
enum class EcObjective
{
    /** Track the utilization reference (the paper's base design). */
    UtilizationTracking,
    /**
     * Minimize an energy-delay product estimate instead: pick the P-state
     * minimizing power / relative-speed for the recent demand, subject to
     * not saturating beyond the reference.
     */
    EnergyDelay,
};

/** Tunable EC parameters (defaults follow Figure 5). */
struct EcParams
{
    double lambda = 0.8;     //!< scaling parameter of the gain
    double r_ref = 0.75;     //!< initial utilization target
    unsigned period = 1;     //!< control interval T_ec
    EcObjective objective = EcObjective::UtilizationTracking;
    /**
     * When true (default) the continuous frequency is quantized to the
     * slowest P-state that still covers it; when false, to the nearest
     * P-state.
     */
    bool quantize_up = true;
};

/**
 * The EC state of many servers, one column per field (slot i is server
 * i for a cluster-wide level), stepped as one range kernel. The columns
 * are public so the view and the tests can read them; only the kernel
 * and the slot views write them.
 */
class EcLevel : public sim::Kernel
{
  public:
    explicit EcLevel(const EcParams &params);

    /**
     * Append a slot for @p server (which must outlive the level).
     * fatal() when r_ref is out of (0,1); warns when lambda violates the
     * global stability bound. @return the new slot.
     */
    size_t add(sim::Server &server);

    /// @name sim::Kernel
    /// @{
    const std::string &name() const override { return name_; }
    unsigned period() const override { return params_.period; }
    size_t slots() const override { return server.size(); }
    void stepRange(size_t tick, size_t lo, size_t hi) override;
    /// @}

    /** Active parameters (shared by every slot). */
    const EcParams &params() const { return params_; }

    /** Attach the fault oracle for every slot (null = fault-free). */
    void setFaultInjector(const fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /// @name Columns, one entry per slot
    /// @{
    std::vector<sim::Server *> server;
    std::vector<const model::PStateTable *> table; //!< server's P-states
    std::vector<std::string> ident;        //!< "EC/<server id>"
    /// The control loop: reference, last measurement/error, step count.
    std::vector<double> reference;         //!< r_ref, set by the SM
    std::vector<double> last_measurement;
    std::vector<double> last_error;
    std::vector<unsigned long> steps;
    /// The frequency integrator, clamped to the P-state table's range.
    std::vector<double> freq;
    std::vector<fault::DegradeStats> degrade;
    std::vector<size_t> cur_tick;   //!< tick of the in-flight step
    std::vector<double> held_util;  //!< last healthy sensor reading
    std::vector<uint8_t> was_down;  //!< edge detector for restarts
    /// Obs cells (null when obs is off).
    std::vector<obs::Counter *> obs_pstate_changes;
    std::vector<obs::Counter *> obs_restarts;
    std::vector<obs::Counter *> obs_stuck;
    std::vector<obs::TraceChannel *> obs_trace;
    /// @}

  private:
    void stepSlot(size_t i, size_t tick);
    void stepEnergyDelay(size_t i, size_t tick);
    double sensedUtil(size_t i, size_t tick, double raw);
    void actuate(size_t i, double value);
    void restartCold(size_t i);

    EcParams params_;
    std::string name_ = "EC[*]";
    const fault::FaultInjector *faults_ = nullptr;
};

/**
 * The per-server efficiency controller: a view of one EcLevel slot.
 */
class EfficiencyController
{
  public:
    /** Tunable parameters (defaults follow Figure 5). */
    using Params = EcParams;

    /**
     * Standalone EC owning a private one-slot level.
     *
     * @param server The managed server; must outlive the controller.
     * @param params Controller parameters. fatal() when r_ref is out of
     *               (0,1); warns when lambda violates the stability
     *               bound for the initial r_ref.
     */
    EfficiencyController(sim::Server &server, const Params &params);

    /** View of slot @p slot of @p level (which must outlive the view). */
    EfficiencyController(EcLevel &level, size_t slot)
        : level_(&level), slot_(slot)
    {
    }

    /** Diagnostic name, "EC/<server id>". */
    const std::string &name() const { return level_->ident[slot_]; }

    /** Control interval T_ec. */
    unsigned period() const { return level_->period(); }

    /** One control step of this slot at @p tick. */
    void step(size_t tick) { level_->stepRange(tick, slot_, slot_ + 1); }

    /** The continuous (pre-quantization) frequency state, MHz. */
    double continuousFreq() const { return level_->freq[slot_]; }

    /** The managed server. */
    const sim::Server &server() const { return *level_->server[slot_]; }

    /** Active parameters. */
    const Params &params() const { return level_->params(); }

    /// @name The control loop (Figure 3)
    /// @{

    /** Set r_ref: the SM's coordination channel into this loop. */
    void setReference(double r_ref) { level_->reference[slot_] = r_ref; }
    double reference() const { return level_->reference[slot_]; }
    double lastMeasurement() const
    {
        return level_->last_measurement[slot_];
    }
    double lastError() const { return level_->last_error[slot_]; }
    unsigned long steps() const { return level_->steps[slot_]; }

    /// @}

    /// @name Fault injection
    /// @{

    /**
     * Attach the fault oracle (null = fault-free, the default). The
     * oracle is per level: every slot of a shared level sees it.
     */
    void setFaultInjector(const fault::FaultInjector *faults)
    {
        level_->setFaultInjector(faults);
    }

    /** Degradation counters accumulated by this EC. */
    const fault::DegradeStats &degradeStats() const
    {
        return level_->degrade[slot_];
    }

    /// @}

    /**
     * Register this EC's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Serialize mutable controller state (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore mutable controller state (checkpoint restore). */
    void loadState(ckpt::SectionReader &r);

  private:
    std::shared_ptr<EcLevel> own_; //!< set for a standalone EC
    EcLevel *level_;
    size_t slot_;
};

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_EFFICIENCY_H
