/**
 * @file
 * Test-only serial reference for the per-server control laws: the EC and
 * SM as one object and one engine actor per server, exactly as they were
 * before the per-level range kernels (src/controllers/efficiency.cpp,
 * server_manager.cpp). tests/controllers/test_kernel_reference.cpp steps
 * this reference and the kernels side by side and compares every slot's
 * state every tick; any drift in the columnar kernels shows up there.
 *
 * Keep this file frozen: it is the oracle, not a second implementation
 * to maintain. The obs hooks are kept so the code stays verbatim.
 */

#ifndef NPS_TESTS_COMMON_REFERENCE_LAWS_H
#define NPS_TESTS_COMMON_REFERENCE_LAWS_H

#include <algorithm>
#include <optional>
#include <string>

#include "bus/control_link.h"
#include "bus/violation.h"
#include "common/control/integral.h"
#include "common/control/loop.h"
#include "control/stability.h"
#include "controllers/efficiency.h"
#include "controllers/server_manager.h"
#include "fault/injector.h"
#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/server.h"
#include "util/logging.h"

namespace nps_test {
namespace ref {

using namespace nps;
using controllers::EcObjective;
using controllers::GrantBounds;

class RefEc;

class RefEc : public sim::Actor, public ctl::ControlLoop
{
  public:
    using Params = controllers::EcParams;

    /**
     * @param server The managed server; must outlive the controller.
     * @param params Controller parameters. fatal() when lambda violates
     *               the global stability bound for the initial r_ref.
     */
    RefEc(sim::Server &server, const Params &params);

    /// @name sim::Actor
    /// @{
    const std::string &name() const override { return name_; }
    unsigned period() const override { return params_.period; }
    void step(size_t tick) override;
    /// @}

    /** The continuous (pre-quantization) frequency state, MHz. */
    double continuousFreq() const { return freq_.value(); }

    /** The managed server. */
    const sim::Server &server() const { return server_; }

    /** Active parameters. */
    const Params &params() const { return params_; }

    /// @name Fault injection
    /// @{

    /** Attach the fault oracle (null = fault-free, the default). */
    void setFaultInjector(const fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /** Degradation counters accumulated by this EC. */
    const fault::DegradeStats &degradeStats() const { return degrade_; }

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

  protected:
    /// @name ctl::ControlLoop hooks
    /// @{
    double measure() override;
    double control(double error, double measurement) override;
    void actuate(double value) override;
    /// @}

  private:
    /** One step of the energy-delay objective variant. */
    void stepEnergyDelay(size_t tick);

    /**
     * The utilization sensor: @p raw perturbed by any active telemetry
     * fault (additive noise, or frozen at the last healthy reading).
     */
    double sensedUtil(size_t tick, double raw);

    /** Cold restart after an outage, as firmware does: P0, fresh target. */
    void restartCold();

    sim::Server &server_;
    Params params_;
    std::string name_;
    ctl::IntegralController freq_;
    const fault::FaultInjector *faults_ = nullptr;
    fault::DegradeStats degrade_;
    size_t cur_tick_ = 0;     //!< tick of the in-flight step (for hooks)
    double held_util_ = 0.0;  //!< last healthy sensor reading
    bool was_down_ = false;   //!< edge detector for restarts

    obs::Counter *obs_pstate_changes_ = nullptr;
    obs::Counter *obs_restarts_ = nullptr;
    obs::Counter *obs_stuck_ = nullptr;
    obs::TraceChannel *obs_trace_ = nullptr;
};

class RefSm : public sim::Actor,
                      public ctl::ControlLoop,
                      public bus::ViolationTracker
{
  public:
    using Mode = controllers::SmMode;

    using Params = controllers::SmParams;

    /**
     * @param server     The managed server.
     * @param ec         The nested EC (required in Coordinated mode; may
     *                   be null in DirectPState mode).
     * @param static_cap The server's own local power budget CAP_LOC.
     * @param params     Controller parameters.
     */
    RefSm(sim::Server &server, RefEc *ec,
                  double static_cap, const Params &params);

    /// @name sim::Actor
    /// @{
    const std::string &name() const override { return name_; }
    unsigned period() const override { return params_.period; }
    void observe(size_t tick) override;
    void step(size_t tick) override;
    /// @}

    /// @name Budget channel (driven by the EM / GM)
    /// @{

    /**
     * Receive a budget recommendation from an upper-level capper.
     * Coordinated mode keeps min(static, recommendation); DirectPState
     * mode adopts the recommendation verbatim (solo products trust their
     * management console), which is exactly how uncoordinated stacks leak
     * above local limits.
     */
    void setBudget(double watts);

    /**
     * Timestamped variant: additionally refreshes the budget lease, so a
     * parent that keeps sending keeps the SM on the dynamic grant, and
     * adopts the grant's cascade trace id as this SM's context. The
     * coordination stack always sends through this overload; the plain one
     * exists for lease-agnostic callers (tests, scripted experiments).
     */
    void setBudget(double watts, size_t tick, uint32_t trace = 0);

    /** Cascade trace id of the last parent grant received (0 = none). */
    uint32_t cascadeStamp() const override { return trace_ctx_; }

    /** The budget currently being enforced (ignoring lease expiry). */
    double effectiveCap() const;

    /**
     * The budget enforced at @p tick: effectiveCap(), unless the lease
     * has lapsed, in which case the conservative local fallback
     * min(CAP_LOC, lease_fallback * CAP_LOC).
     */
    double currentCap(size_t tick) const;

    /** The server's own static budget CAP_LOC. */
    double staticCap() const { return static_cap_; }

    /// @}

    /// @name Fault injection
    /// @{

    /** Attach the fault oracle (null = fault-free, the default). */
    void setFaultInjector(const fault::FaultInjector *faults)
    {
        faults_ = faults;
    }

    /** Degradation counters accumulated by this SM. */
    const fault::DegradeStats &degradeStats() const { return degrade_; }

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
    const Params &params() const { return params_; }

    /** The managed server. */
    const sim::Server &server() const { return server_; }

    /** Serialize mutable controller state (checkpointing). */
    void saveState(ckpt::SectionWriter &w) const;

    /** Restore mutable controller state (checkpoint restore). */
    void loadState(ckpt::SectionReader &r);

  protected:
    /// @name ctl::ControlLoop hooks (Coordinated mode)
    /// @{
    double measure() override;
    double control(double error, double measurement) override;
    void actuate(double value) override;
    /// @}

  private:
    /** One step of the solo (direct P-state) capper, enforcing @p cap. */
    void stepDirect(size_t tick, double cap);

    /** @return true when the budget lease has lapsed as of @p tick. */
    bool leaseLapsed(size_t tick) const;

    /** Cold restart after an outage: forget integrator and grant state. */
    void restartCold(size_t tick);

    sim::Server &server_;
    RefEc *ec_;
    double static_cap_;
    double dynamic_cap_;
    Params params_;
    std::string name_;
    ctl::IntegralController r_ref_;
    std::optional<bus::ReferenceLink> ref_link_; //!< SM -> EC r_ref channel
    size_t step_tick_ = 0; //!< tick of the step in flight (for actuate)
    const fault::FaultInjector *faults_ = nullptr;
    fault::DegradeStats degrade_;
    size_t budget_tick_ = 0;    //!< receipt tick of the live grant
    uint32_t trace_ctx_ = 0;    //!< cascade trace id of that grant
    bool lease_expired_ = false; //!< edge detector for lease_expiries
    bool was_down_ = false;      //!< edge detector for restarts
    bool ec_fallback_ = false;   //!< edge detector for EC-down tracing

    obs::Counter *obs_grant_clamps_ = nullptr;
    obs::Counter *obs_lease_expiries_ = nullptr;
    obs::Counter *obs_ec_fallback_steps_ = nullptr;
    obs::Counter *obs_restarts_ = nullptr;
    obs::Gauge *obs_cap_ = nullptr;
    obs::TraceChannel *obs_trace_ = nullptr;
};



inline RefEc::RefEc(sim::Server &server,
                                           const Params &params)
    : ctl::ControlLoop("EC/" + std::to_string(server.id())),
      server_(server),
      params_(params),
      name_("EC/" + std::to_string(server.id())),
      freq_(server.spec().pstates().fastest().freq_mhz,
            server.spec().pstates().slowest().freq_mhz,
            server.spec().pstates().fastest().freq_mhz)
{
    if (params_.r_ref <= 0.0 || params_.r_ref >= 1.0)
        util::fatal("EC: r_ref %f out of (0,1)", params_.r_ref);
    if (!ctl::ecGainStable(params_.lambda, params_.r_ref)) {
        util::warn("EC/%u: lambda %f violates the global stability bound "
                   "1/r_ref = %f", server.id(), params_.lambda,
                   ctl::ecLambdaBound(params_.r_ref));
    }
    setReference(params_.r_ref);
}

inline void
RefEc::attachObs(obs::MetricsRegistry *metrics,
                                obs::TraceSink *trace)
{
    if (metrics) {
        obs_pstate_changes_ = metrics->counter(
            "nps_ec_pstate_changes_total", name_,
            "P-state transitions actuated by the EC");
        obs_restarts_ = metrics->counter(
            "nps_ec_restarts_total", name_,
            "Cold restarts after an EC outage");
        obs_stuck_ = metrics->counter(
            "nps_ec_stuck_actuations_total", name_,
            "P-state writes swallowed by a stuck actuator fault");
    }
    if (trace)
        obs_trace_ = trace->channel(name_);
}

inline void
RefEc::step(size_t tick)
{
    if (faults_ && faults_->down(fault::Level::EC,
                                 static_cast<long>(server_.id()), tick)) {
        if (!was_down_ && obs_trace_)
            obs_trace_->emit(tick, "outage begins: EC down, P-state held");
        ++degrade_.outage_ticks;
        ++degrade_.outage_steps;
        was_down_ = true;
        return;
    }
    if (was_down_) {
        was_down_ = false;
        ++degrade_.restarts;
        if (obs_restarts_)
            obs_restarts_->add();
        if (obs_trace_)
            obs_trace_->emit(tick, "cold restart after outage: back to "
                                   "P0, integrator and r_ref reset");
        restartCold();
    }
    cur_tick_ = tick;
    if (!server_.isOn(tick)) {
        // Nothing to manage; reset to full speed so a rebooted machine
        // comes back at P0, as firmware does.
        freq_.setValue(freq_.hi());
        return;
    }
    if (params_.objective == EcObjective::EnergyDelay) {
        stepEnergyDelay(tick);
        return;
    }
    ControlLoop::step();
}

inline void
RefEc::restartCold()
{
    // A restarted EC forgets its integrator and any r_ref its SM sent
    // while it was down; the SM re-actuates on its next step.
    freq_.setValue(freq_.hi());
    ControlLoop::reset();
    setReference(params_.r_ref);
}

inline double
RefEc::sensedUtil(size_t tick, double raw)
{
    if (!faults_)
        return raw;
    long id = static_cast<long>(server_.id());
    if (faults_->utilFrozen(id, tick)) {
        ++degrade_.noisy_reads;
        return held_util_;
    }
    double noise = faults_->utilNoise(id, tick);
    if (noise != 0.0) {
        ++degrade_.noisy_reads;
        raw = std::min(1.0, std::max(0.0, raw + noise));
    }
    held_util_ = raw;
    return raw;
}

inline double
RefEc::measure()
{
    return sensedUtil(cur_tick_, server_.lastApparentUtil());
}

inline double
RefEc::control(double error, double measurement)
{
    // Consumed frequency f_C = r * f at the quantized operating point.
    double f_c = measurement * server_.frequencyMhz();
    double gain = params_.lambda * f_c / reference();
    // f(k) = f(k-1) - gain * (r_ref - r): integral law on the frequency.
    return freq_.update(-gain, error);
}

inline void
RefEc::actuate(double value)
{
    const auto &table = server_.spec().pstates();
    size_t p = params_.quantize_up ? table.quantizeUp(value)
                                   : table.quantizeNearest(value);
    if (p != server_.pstate() && faults_ &&
        faults_->pstateStuck(static_cast<long>(server_.id()), cur_tick_)) {
        // The firmware actuator swallowed the write; the integrator keeps
        // running against the stuck plant (realistic windup).
        ++degrade_.stuck_actuations;
        if (obs_stuck_)
            obs_stuck_->add();
        if (obs_trace_)
            obs_trace_->emit(cur_tick_,
                             "actuator stuck: P%zu held (wanted P%zu)",
                             server_.pstate(), p);
        return;
    }
    if (p != server_.pstate()) {
        if (obs_pstate_changes_)
            obs_pstate_changes_->add();
        if (obs_trace_)
            obs_trace_->emit(cur_tick_,
                             "P%zu -> P%zu: f_cont=%.6g MHz r_ref=%.6g",
                             server_.pstate(), p, value, reference());
    }
    server_.setPState(p);
}

inline void
RefEc::stepEnergyDelay(size_t tick)
{
    // Estimate current real demand from the last measurement and pick the
    // state minimizing power * delay ~ power / relSpeed, while keeping
    // apparent utilization under the reference.
    double demand = sensedUtil(tick, server_.lastRealUtil());
    const auto &m = server_.model();
    const auto &table = m.pstates();
    size_t best = 0;
    double best_score = 0.0;
    bool have = false;
    for (size_t p = 0; p < table.size(); ++p) {
        if (m.apparentUtil(p, demand) > reference() && p != 0)
            continue;
        double score = m.powerForDemand(p, demand) / table.relSpeed(p);
        if (!have || score < best_score) {
            best = p;
            best_score = score;
            have = true;
        }
    }
    if (best != server_.pstate() && faults_ &&
        faults_->pstateStuck(static_cast<long>(server_.id()), tick)) {
        ++degrade_.stuck_actuations;
        if (obs_stuck_)
            obs_stuck_->add();
        return;
    }
    if (best != server_.pstate()) {
        if (obs_pstate_changes_)
            obs_pstate_changes_->add();
        if (obs_trace_)
            obs_trace_->emit(tick,
                             "P%zu -> P%zu: energy-delay best for "
                             "demand=%.6g",
                             server_.pstate(), best, demand);
    }
    server_.setPState(best);
    freq_.setValue(table.at(best).freq_mhz);
}

inline void
RefEc::saveState(ckpt::SectionWriter &w) const
{
    w.putDouble(reference());
    w.putDouble(lastMeasurement());
    w.putDouble(lastError());
    w.putU64(steps());
    w.putDouble(freq_.value());
    degrade_.saveState(w);
    w.putU64(cur_tick_);
    w.putDouble(held_util_);
    w.putBool(was_down_);
}

inline void
RefEc::loadState(ckpt::SectionReader &r)
{
    double ref = r.getDouble();
    double meas = r.getDouble();
    double err = r.getDouble();
    auto steps = static_cast<unsigned long>(r.getU64());
    restoreLoopState(ref, meas, err, steps);
    freq_.setValue(r.getDouble());
    degrade_.loadState(r);
    cur_tick_ = static_cast<size_t>(r.getU64());
    held_util_ = r.getDouble();
    was_down_ = r.getBool();
}





inline RefSm::RefSm(sim::Server &server, RefEc *ec,
                             double static_cap, const Params &params)
    : ctl::ControlLoop("SM/" + std::to_string(server.id())),
      server_(server),
      ec_(ec),
      static_cap_(static_cap),
      dynamic_cap_(static_cap),
      params_(params),
      name_("SM/" + std::to_string(server.id())),
      r_ref_(params.r_ref_min, params.r_ref_min, params.r_ref_max)
{
    if (static_cap_ <= 0.0)
        util::fatal("SM/%u: non-positive static cap", server.id());
    if (params_.mode == Mode::Coordinated && !ec_)
        util::fatal("SM/%u: coordinated mode requires a nested EC",
                    server.id());
    if (ec_) {
        ref_link_.emplace(
            name_ + "->EC/" + std::to_string(server.id()),
            [this](const bus::ReferenceUpdate &u) {
                ec_->setReference(u.r_ref);
            });
    }
    // Normalized-power stability check: the effective slope of power with
    // respect to r_ref is bounded by maxPowerSlope()/maxPower.
    double c_max = server_.model().maxPowerSlope() /
                   server_.model().maxPower();
    if (!ctl::smGainStable(params_.beta, c_max)) {
        util::warn("SM/%u: beta %f violates the stability bound 2/c_max "
                   "= %f", server.id(), params_.beta,
                   ctl::smBetaBound(c_max));
    }
    setReference(effectiveCap());
}

inline void
RefSm::setBudget(double watts)
{
    if (watts <= 0.0)
        util::fatal("SM/%u: non-positive budget recommendation",
                    server_.id());
    dynamic_cap_ = watts;
    setReference(effectiveCap());
}

inline void
RefSm::setBudget(double watts, size_t tick, uint32_t trace)
{
    setBudget(watts);
    budget_tick_ = tick;
    trace_ctx_ = trace;
    if (params_.mode == Mode::Coordinated && watts < static_cap_) {
        if (obs_grant_clamps_)
            obs_grant_clamps_->add();
        if (obs_trace_)
            obs_trace_->emit(tick,
                             "clamped budget %.6gW -> %.6gW: grant < "
                             "static",
                             static_cap_, watts);
    }
}

inline void
RefSm::attachObs(obs::MetricsRegistry *metrics,
                         obs::TraceSink *trace)
{
    if (metrics) {
        obs_grant_clamps_ = metrics->counter(
            "nps_sm_grant_clamps_total", name_,
            "Dynamic grants below the static cap (grant won the min)");
        obs_lease_expiries_ = metrics->counter(
            "nps_sm_lease_expiries_total", name_,
            "Budget leases that lapsed into the local fallback cap");
        obs_ec_fallback_steps_ = metrics->counter(
            "nps_sm_ec_fallback_steps_total", name_,
            "Steps spent capping P-states directly because the nested "
            "EC was down");
        obs_restarts_ = metrics->counter(
            "nps_sm_restarts_total", name_,
            "Cold restarts after an SM outage");
        obs_cap_ = metrics->gauge(
            "nps_sm_cap_watts", name_,
            "Budget enforced by the SM at its most recent step");
    }
    if (trace)
        obs_trace_ = trace->channel(name_);
}

inline double
RefSm::effectiveCap() const
{
    if (params_.mode == Mode::Coordinated)
        return std::min(static_cap_, dynamic_cap_);
    // Solo capper: the management console's setting is the setting.
    return dynamic_cap_;
}

inline bool
RefSm::leaseLapsed(size_t tick) const
{
    return params_.mode == Mode::Coordinated && params_.lease_ticks > 0 &&
           tick > budget_tick_ + params_.lease_ticks;
}

inline double
RefSm::currentCap(size_t tick) const
{
    if (leaseLapsed(tick))
        return std::min(static_cap_, params_.lease_fallback * static_cap_);
    return effectiveCap();
}

inline void
RefSm::restartCold(size_t tick)
{
    // A restarted SM has no memory of its integrator or of any grant its
    // parent sent while it was down; it re-enters on the static budget
    // with a fresh lease and waits for the next recommendation.
    r_ref_.setValue(params_.r_ref_min);
    ControlLoop::reset();
    dynamic_cap_ = static_cap_;
    budget_tick_ = tick;
    trace_ctx_ = 0;
    lease_expired_ = false;
    setReference(effectiveCap());
}

inline void
RefSm::observe(size_t tick)
{
    if (faults_) {
        if (faults_->down(fault::Level::SM,
                          static_cast<long>(server_.id()), tick)) {
            // A down SM records nothing — its CIM interface is dark.
            ++degrade_.outage_ticks;
            was_down_ = true;
            return;
        }
        if (was_down_) {
            was_down_ = false;
            ++degrade_.restarts;
            if (obs_restarts_)
                obs_restarts_->add();
            if (obs_trace_)
                obs_trace_->emit(tick,
                                 "cold restart after outage: static "
                                 "budget %.6gW, fresh lease",
                                 static_cap_);
            restartCold(tick);
        }
    }
    // Violation bookkeeping runs at tick granularity and against the
    // *static* budget: dynamic grants re-provision headroom but the
    // physical fuse/fan limit is CAP_LOC, and that is the signal the
    // exposed (CIM-style) interface reports to the VMC.
    if (server_.platformPower(tick) != sim::PlatformPower::Off)
        record(server_.lastPower() > static_cap_ + 1e-9);
}

inline void
RefSm::attachControlLog(bus::ControlPlaneLog *log)
{
    if (ref_link_)
        ref_link_->attachLog(log);
}

inline void
RefSm::attachTransport(bus::Transport *transport,
                               const bus::OwnerFn &owner)
{
    if (!ref_link_)
        return;
    const int rank =
        owner ? owner(bus::OwnerLevel::Sm, static_cast<long>(server_.id()))
              : 0;
    ref_link_->setTransport(transport, rank);
}

inline void
RefSm::step(size_t tick)
{
    step_tick_ = tick;
    if (faults_ && faults_->down(fault::Level::SM,
                                 static_cast<long>(server_.id()), tick)) {
        ++degrade_.outage_steps;
        return;
    }
    if (!server_.isOn(tick))
        return;

    // Lease bookkeeping: degrade to the conservative local cap when the
    // parent has gone silent past the lease, and recover the moment a
    // fresh grant lands.
    bool lapsed = leaseLapsed(tick);
    if (lapsed) {
        if (!lease_expired_) {
            lease_expired_ = true;
            ++degrade_.lease_expiries;
            if (obs_lease_expiries_)
                obs_lease_expiries_->add();
            if (obs_trace_)
                obs_trace_->emit(tick,
                                 "lease expired (grant from tick %zu, "
                                 "lease %u) -> fallback cap %.6gW",
                                 budget_tick_, params_.lease_ticks,
                                 currentCap(tick));
        }
        ++degrade_.lease_fallback_steps;
    } else {
        if (lease_expired_ && obs_trace_)
            obs_trace_->emit(tick,
                             "lease recovered: fresh grant, enforcing "
                             "%.6gW",
                             effectiveCap());
        lease_expired_ = false;
    }
    double cap = currentCap(tick);
    if (obs_cap_)
        obs_cap_->set(cap);

    bool ec_down = faults_ && ec_ &&
                   faults_->down(fault::Level::EC,
                                 static_cast<long>(server_.id()), tick);
    if (params_.mode == Mode::DirectPState || ec_down) {
        // With the nested EC down nobody runs the inner loop; the SM
        // degrades to capping P-states directly, like a solo product.
        if (ec_down && params_.mode == Mode::Coordinated) {
            ++degrade_.ec_fallback_steps;
            if (obs_ec_fallback_steps_)
                obs_ec_fallback_steps_->add();
            if (!ec_fallback_ && obs_trace_)
                obs_trace_->emit(tick, "nested EC down -> direct "
                                       "P-state capping");
            ec_fallback_ = true;
        }
        stepDirect(tick, cap);
        return;
    }
    if (ec_fallback_) {
        ec_fallback_ = false;
        if (obs_trace_)
            obs_trace_->emit(tick, "nested EC back -> r_ref actuation "
                                   "resumed");
    }
    setReference(cap);
    ControlLoop::step();
}

inline double
RefSm::measure()
{
    return server_.lastPower();
}

inline double
RefSm::control(double error, double measurement)
{
    (void)measurement;
    // r_ref(k) = r_ref(k-1) - beta * (cap - pow), with power normalized
    // by the machine's peak so beta is machine-independent. The release
    // direction (power under cap, error > 0) uses a reduced gain.
    double norm_error = error / server_.model().maxPower();
    double beta = params_.beta *
                  (error > 0.0 ? params_.release_gain_ratio : 1.0);
    return r_ref_.update(-beta, norm_error);
}

inline void
RefSm::actuate(double value)
{
    ref_link_->send(value, step_tick_);
}

inline void
RefSm::stepDirect(size_t tick, double cap)
{
    double pow = server_.lastPower();
    const auto &m = server_.model();
    size_t p = server_.pstate();
    size_t slowest = server_.spec().pstates().slowestIndex();
    size_t q = p;
    if (pow > cap) {
        // Hardware cappers clamp immediately: jump to the fastest state
        // predicted to respect the budget for the current load.
        double demand = server_.lastRealUtil();
        while (q < slowest && m.powerForDemand(q, demand) > cap)
            ++q;
    } else if (pow < cap * (1.0 - params_.unthrottle_margin) && p > 0) {
        // Solo cappers restore performance when comfortably under budget.
        q = p - 1;
    }
    if (q == p)
        return;
    if (faults_ && faults_->pstateStuck(static_cast<long>(server_.id()),
                                        tick)) {
        // The firmware actuator swallowed the write.
        ++degrade_.stuck_actuations;
        return;
    }
    if (obs_trace_)
        obs_trace_->emit(tick, "%s P%zu -> P%zu: pow=%.6gW cap=%.6gW",
                         q > p ? "throttle" : "unthrottle", p, q, pow,
                         cap);
    server_.setPState(q);
}

inline void
RefSm::saveState(ckpt::SectionWriter &w) const
{
    w.putDouble(reference());
    w.putDouble(lastMeasurement());
    w.putDouble(lastError());
    w.putU64(steps());
    bus::ViolationTracker::saveState(w);
    w.putDouble(dynamic_cap_);
    w.putDouble(r_ref_.value());
    w.putU64(step_tick_);
    degrade_.saveState(w);
    w.putU64(budget_tick_);
    w.putU32(trace_ctx_);
    w.putBool(lease_expired_);
    w.putBool(was_down_);
    w.putBool(ec_fallback_);
    w.putBool(ref_link_.has_value());
    if (ref_link_)
        ref_link_->saveState(w);
}

inline void
RefSm::loadState(ckpt::SectionReader &r)
{
    double ref = r.getDouble();
    double meas = r.getDouble();
    double err = r.getDouble();
    auto steps = static_cast<unsigned long>(r.getU64());
    restoreLoopState(ref, meas, err, steps);
    bus::ViolationTracker::loadState(r);
    dynamic_cap_ = r.getDouble();
    r_ref_.setValue(r.getDouble());
    step_tick_ = static_cast<size_t>(r.getU64());
    degrade_.loadState(r);
    budget_tick_ = static_cast<size_t>(r.getU64());
    trace_ctx_ = r.getU32();
    lease_expired_ = r.getBool();
    was_down_ = r.getBool();
    ec_fallback_ = r.getBool();
    bool has_link = r.getBool();
    if (has_link != ref_link_.has_value())
        util::fatal("SM %s restore: reference-link presence mismatch "
                    "(snapshot %d, rebuilt %d)",
                    name().c_str(), has_link ? 1 : 0,
                    ref_link_ ? 1 : 0);
    if (ref_link_)
        ref_link_->loadState(r);
}


} // namespace ref
} // namespace nps_test

#endif // NPS_TESTS_COMMON_REFERENCE_LAWS_H
