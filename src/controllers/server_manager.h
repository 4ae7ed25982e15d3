/**
 * @file
 * Server Manager (SM): per-server thermal power capping.
 *
 * Coordinated design (Section 3.1): nested on the EC, the SM actuates the
 * EC's utilization reference r_ref instead of touching P-states:
 *
 *     r_ref(k) = r_ref(k-1) - beta_loc * (cap_loc - pow(k-1))    (Eq. SM)
 *
 * A power reading above the budget raises r_ref, which makes the EC shrink
 * the container (deeper P-state), which lowers power. Stability holds for
 * 0 < beta < 2 / c_max (Appendix A). A lower bound of 75% on r_ref keeps
 * servers reasonably utilized when under budget.
 *
 * Uncoordinated (commercial-solo) design: steps the P-state directly on a
 * violation — the configuration whose interaction with an independently
 * deployed EC produces the paper's "power struggle".
 *
 * The SM's budget input is the coordination channel of the EM/GM: the
 * effective cap is min(static local budget, latest recommendation). The SM
 * also exposes its budget-violation history (the CIM/DMTF stand-in) for
 * the VMC's consolidation-aggressiveness feedback.
 *
 * Layout (docs/PERFORMANCE.md): the state of every SM lives in one
 * struct-of-arrays SmLevel, observed and stepped as a single range
 * kernel per tick; ServerManager is a thin view of one slot (server id
 * == slot). A standalone ServerManager owns a private one-slot level.
 */

#ifndef NPS_CONTROLLERS_SERVER_MANAGER_H
#define NPS_CONTROLLERS_SERVER_MANAGER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/control_link.h"
#include "bus/violation.h"
#include "controllers/efficiency.h"
#include "fault/injector.h"
#include "sim/engine.h"
#include "sim/server.h"

namespace nps {
namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
class TraceChannel;
class TraceSink;
} // namespace obs

namespace controllers {

/**
 * The violation-history interfaces live in the bus layer (they are the
 * payload of the upstream feedback channel); these aliases keep the
 * controllers' historical spelling.
 */
using ViolationSource = bus::ViolationSource;
using ViolationTracker = bus::ViolationTracker;

/**
 * Physical grant bounds of one server, used by the budget-division
 * levels: a powered-off machine is pinned at its residual off draw,
 * while a live one can usefully receive anything between its deepest
 * idle power and its peak.
 */
struct GrantBounds
{
    double floor = 0.0;  //!< smallest allocation the server can honor
    double max = 0.0;    //!< largest allocation it could ever consume
};

/** Compute the grant bounds of @p server as of @p tick. */
GrantBounds grantBounds(const sim::Server &server, size_t tick);

/** SM operating mode. */
enum class SmMode
{
    /** Actuate the EC's r_ref (the paper's coordinated design). */
    Coordinated,
    /**
     * Actuate P-states directly, as a solo commercial capper does;
     * deployed next to an independent EC this is the power struggle.
     */
    DirectPState,
};

/** Tunable SM parameters (defaults follow Figure 5). */
struct SmParams
{
    double beta = 1.0;        //!< gain, in r_ref per *normalized* watt
    double r_ref_min = 0.75;  //!< lower bound on the EC target
    double r_ref_max = 2.0;   //!< anti-windup upper bound
    unsigned period = 5;      //!< control interval T_sm
    SmMode mode = SmMode::Coordinated;
    /**
     * Gain multiplier applied when power is *under* the cap, so the
     * throttle releases more slowly than it engages. Damps the limit
     * cycle around the P-state quantization boundary.
     */
    double release_gain_ratio = 0.25;
    /**
     * In DirectPState mode: headroom fraction under the cap below
     * which the capper steps the P-state back up.
     */
    double unthrottle_margin = 0.12;
    /**
     * Budget-lease length in ticks: a dynamic grant received at tick t
     * is trusted through t + lease_ticks; past that the SM assumes its
     * parent is silent (down, or the link is dropping) and degrades to
     * the conservative local cap lease_fallback * CAP_LOC. 0 disables
     * leasing (grants never expire — the pre-fault behavior).
     */
    unsigned lease_ticks = 0;
    /** Fraction of CAP_LOC enforced while the lease is expired. */
    double lease_fallback = 1.0;
};

/**
 * The SM state of many servers, one column per field (slot i is server
 * i for a cluster-wide level), observed and stepped as one range kernel.
 * The columns are public so the view and the tests can read them; only
 * the kernel and the slot views write them.
 */
class SmLevel : public sim::Kernel
{
  public:
    explicit SmLevel(const SmParams &params);

    /**
     * Append a slot for @p server with nested EC @p ec (required in
     * Coordinated mode) and static budget @p static_cap. fatal() on a
     * non-positive cap or a missing coordinated EC; warns when beta
     * violates the stability bound. @return the new slot.
     */
    size_t add(sim::Server &server, EfficiencyController *ec,
               double static_cap);

    /// @name sim::Kernel
    /// @{
    const std::string &name() const override { return name_; }
    unsigned period() const override { return params_.period; }
    size_t slots() const override { return server.size(); }
    void observeRange(size_t tick, size_t lo, size_t hi) override;
    void stepRange(size_t tick, size_t lo, size_t hi) override;
    /// @}

    /** Active parameters (shared by every slot). */
    const SmParams &params() const { return params_; }

    /** Attach the fault oracle for every slot (null = fault-free). */
    void setFaultInjector(const fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /// @name Per-slot budget channel (see ServerManager)
    /// @{
    void setBudget(size_t i, double watts);
    double effectiveCap(size_t i) const;
    double currentCap(size_t i, size_t tick) const;
    /// @}

    /// @name Columns, one entry per slot
    /// @{
    std::vector<sim::Server *> server;
    std::vector<std::string> ident;   //!< "SM/<server id>"
    std::vector<double> static_cap;   //!< CAP_LOC
    std::vector<double> dynamic_cap;  //!< latest parent grant
    /// The control loop: reference (the enforced cap), last
    /// measurement/error, step count.
    std::vector<double> reference;
    std::vector<double> last_measurement;
    std::vector<double> last_error;
    std::vector<unsigned long> steps;
    std::vector<double> r_ref;        //!< the r_ref integrator
    std::vector<ViolationTracker> violations;
    /// SM -> EC r_ref channel (null when no EC is nested).
    std::vector<std::unique_ptr<bus::ReferenceLink>> ref_link;
    std::vector<size_t> step_tick;    //!< tick of the step in flight
    std::vector<fault::DegradeStats> degrade;
    std::vector<size_t> budget_tick;  //!< receipt tick of the live grant
    std::vector<uint32_t> trace_ctx;  //!< cascade trace id of that grant
    std::vector<uint8_t> lease_expired; //!< edge detector, lease expiry
    std::vector<uint8_t> was_down;    //!< edge detector for restarts
    std::vector<uint8_t> ec_fallback; //!< edge detector, EC-down tracing
    /// Obs cells (null when obs is off).
    std::vector<obs::Counter *> obs_grant_clamps;
    std::vector<obs::Counter *> obs_lease_expiries;
    std::vector<obs::Counter *> obs_ec_fallback_steps;
    std::vector<obs::Counter *> obs_restarts;
    std::vector<obs::Gauge *> obs_cap;
    std::vector<obs::TraceChannel *> obs_trace;
    /// @}

  private:
    void observeSlot(size_t i, size_t tick);
    void stepSlot(size_t i, size_t tick);
    /** One step of the solo (direct P-state) capper, enforcing @p cap. */
    void stepDirect(size_t i, size_t tick, double cap);
    /** @return true when slot @p i's budget lease has lapsed. */
    bool leaseLapsed(size_t i, size_t tick) const;
    /** Cold restart after an outage: forget integrator and grant state. */
    void restartCold(size_t i, size_t tick);

    SmParams params_;
    std::string name_ = "SM[*]";
    const fault::FaultInjector *faults_ = nullptr;
};

/**
 * The per-server power capper: a view of one SmLevel slot.
 */
class ServerManager : public ViolationSource
{
  public:
    /** Operating mode. */
    using Mode = SmMode;

    /** Tunable parameters (defaults follow Figure 5). */
    using Params = SmParams;

    /**
     * Standalone SM owning a private one-slot level.
     *
     * @param server     The managed server.
     * @param ec         The nested EC (required in Coordinated mode; may
     *                   be null in DirectPState mode).
     * @param static_cap The server's own local power budget CAP_LOC.
     * @param params     Controller parameters.
     */
    ServerManager(sim::Server &server, EfficiencyController *ec,
                  double static_cap, const Params &params);

    /** View of slot @p slot of @p level (which must outlive the view). */
    ServerManager(SmLevel &level, size_t slot)
        : level_(&level), slot_(slot)
    {
    }

    /** Diagnostic name, "SM/<server id>". */
    const std::string &name() const { return level_->ident[slot_]; }

    /** Control interval T_sm. */
    unsigned period() const { return level_->period(); }

    /** Observe tick @p tick for this slot (violation bookkeeping). */
    void observe(size_t tick)
    {
        level_->observeRange(tick, slot_, slot_ + 1);
    }

    /** One control step of this slot at @p tick. */
    void step(size_t tick) { level_->stepRange(tick, slot_, slot_ + 1); }

    /// @name Budget channel (driven by the EM / GM)
    /// @{

    /**
     * Receive a budget recommendation from an upper-level capper.
     * Coordinated mode keeps min(static, recommendation); DirectPState
     * mode adopts the recommendation verbatim (solo products trust their
     * management console), which is exactly how uncoordinated stacks leak
     * above local limits.
     */
    void setBudget(double watts) { level_->setBudget(slot_, watts); }

    /**
     * Timestamped variant: additionally refreshes the budget lease, so a
     * parent that keeps sending keeps the SM on the dynamic grant, and
     * adopts the grant's cascade trace id as this SM's context. The
     * coordination stack always sends through this overload; the plain one
     * exists for lease-agnostic callers (tests, scripted experiments).
     */
    void setBudget(double watts, size_t tick, uint32_t trace = 0);

    /** Cascade trace id of the last parent grant received (0 = none). */
    uint32_t cascadeStamp() const override
    {
        return level_->trace_ctx[slot_];
    }

    /** The budget currently being enforced (ignoring lease expiry). */
    double effectiveCap() const { return level_->effectiveCap(slot_); }

    /**
     * The budget enforced at @p tick: effectiveCap(), unless the lease
     * has lapsed, in which case the conservative local fallback
     * min(CAP_LOC, lease_fallback * CAP_LOC).
     */
    double currentCap(size_t tick) const
    {
        return level_->currentCap(slot_, tick);
    }

    /** The server's own static budget CAP_LOC. */
    double staticCap() const { return level_->static_cap[slot_]; }

    /// @}

    /// @name The control loop (Figure 3); the reference is the cap
    /// @{
    double reference() const { return level_->reference[slot_]; }
    double lastMeasurement() const
    {
        return level_->last_measurement[slot_];
    }
    double lastError() const { return level_->last_error[slot_]; }
    unsigned long steps() const { return level_->steps[slot_]; }
    /// @}

    /// @name Violation history (bus::ViolationSource)
    /// @{
    double epochViolationRate() const override
    {
        return level_->violations[slot_].epochViolationRate();
    }
    void drainEpoch() override { level_->violations[slot_].drainEpoch(); }
    double lifetimeViolationRate() const override
    {
        return level_->violations[slot_].lifetimeViolationRate();
    }
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

    /** Degradation counters accumulated by this SM. */
    const fault::DegradeStats &degradeStats() const
    {
        return level_->degrade[slot_];
    }

    /// @}

    /**
     * Mirror this SM's outgoing control traffic (the r_ref reference
     * channel into the nested EC) into @p log; null detaches.
     */
    void attachControlLog(bus::ControlPlaneLog *log);

    /**
     * Route the r_ref reference link through @p transport (null
     * detaches); it is owned by (Sm, server id). Wiring time only,
     * before the engine runs.
     */
    void attachTransport(bus::Transport *transport,
                         const bus::OwnerFn &owner);

    /**
     * Register this SM's metrics series and decision-trace channel.
     * Either argument may be null; wiring time only (not thread-safe).
     */
    void attachObs(obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Active parameters. */
    const Params &params() const { return level_->params(); }

    /** The managed server. */
    const sim::Server &server() const { return *level_->server[slot_]; }

    /** Serialize mutable controller state (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore mutable controller state (checkpoint restore). */
    void loadState(ckpt::SectionReader &r);

  private:
    std::shared_ptr<SmLevel> own_; //!< set for a standalone SM
    SmLevel *level_;
    size_t slot_;
};

} // namespace controllers
} // namespace nps

#endif // NPS_CONTROLLERS_SERVER_MANAGER_H
