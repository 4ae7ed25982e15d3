#include "controllers/server_manager.h"

#include <algorithm>

#include "control/stability.h"
#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/stats.h"

namespace nps {
namespace controllers {

GrantBounds
grantBounds(const sim::Server &server, size_t tick)
{
    GrantBounds b;
    if (server.platformPower(tick) == sim::PlatformPower::Off) {
        b.floor = server.spec().offWatts();
        b.max = server.spec().offWatts();
        return b;
    }
    const auto &m = server.model();
    b.floor = m.idlePower(m.pstates().slowestIndex());
    b.max = m.maxPower();
    return b;
}

SmLevel::SmLevel(const SmParams &params) : params_(params) {}

size_t
SmLevel::add(sim::Server &srv, EfficiencyController *ec, double cap)
{
    if (params_.r_ref_min > params_.r_ref_max)
        util::fatal("SM/%u: r_ref_min %f > r_ref_max %f", srv.id(),
                    params_.r_ref_min, params_.r_ref_max);
    if (cap <= 0.0)
        util::fatal("SM/%u: non-positive static cap", srv.id());
    if (params_.mode == SmMode::Coordinated && !ec)
        util::fatal("SM/%u: coordinated mode requires a nested EC",
                    srv.id());
    const size_t slot = server.size();
    server.push_back(&srv);
    ident.push_back("SM/" + std::to_string(srv.id()));
    static_cap.push_back(cap);
    dynamic_cap.push_back(cap);
    reference.push_back(0.0);
    last_measurement.push_back(0.0);
    last_error.push_back(0.0);
    steps.push_back(0);
    r_ref.push_back(
        util::clamp(params_.r_ref_min, params_.r_ref_min, params_.r_ref_max));
    violations.emplace_back();
    if (ec) {
        ref_link.push_back(std::make_unique<bus::ReferenceLink>(
            ident.back() + "->EC/" + std::to_string(srv.id()),
            [ec](const bus::ReferenceUpdate &u) {
                ec->setReference(u.r_ref);
            }));
    } else {
        ref_link.push_back(nullptr);
    }
    step_tick.push_back(0);
    degrade.emplace_back();
    budget_tick.push_back(0);
    trace_ctx.push_back(0);
    lease_expired.push_back(0);
    was_down.push_back(0);
    ec_fallback.push_back(0);
    obs_grant_clamps.push_back(nullptr);
    obs_lease_expiries.push_back(nullptr);
    obs_ec_fallback_steps.push_back(nullptr);
    obs_restarts.push_back(nullptr);
    obs_cap.push_back(nullptr);
    obs_trace.push_back(nullptr);
    // Normalized-power stability check: the effective slope of power with
    // respect to r_ref is bounded by maxPowerSlope()/maxPower.
    double c_max = srv.model().maxPowerSlope() / srv.model().maxPower();
    if (!ctl::smGainStable(params_.beta, c_max)) {
        util::warn("SM/%u: beta %f violates the stability bound 2/c_max "
                   "= %f", srv.id(), params_.beta, ctl::smBetaBound(c_max));
    }
    reference[slot] = effectiveCap(slot);
    return slot;
}

void
SmLevel::setBudget(size_t i, double watts)
{
    if (watts <= 0.0)
        util::fatal("SM/%u: non-positive budget recommendation",
                    server[i]->id());
    dynamic_cap[i] = watts;
    reference[i] = effectiveCap(i);
}

double
SmLevel::effectiveCap(size_t i) const
{
    if (params_.mode == SmMode::Coordinated)
        return std::min(static_cap[i], dynamic_cap[i]);
    // Solo capper: the management console's setting is the setting.
    return dynamic_cap[i];
}

bool
SmLevel::leaseLapsed(size_t i, size_t tick) const
{
    return params_.mode == SmMode::Coordinated && params_.lease_ticks > 0 &&
           tick > budget_tick[i] + params_.lease_ticks;
}

double
SmLevel::currentCap(size_t i, size_t tick) const
{
    if (leaseLapsed(i, tick))
        return std::min(static_cap[i],
                        params_.lease_fallback * static_cap[i]);
    return effectiveCap(i);
}

void
SmLevel::restartCold(size_t i, size_t tick)
{
    // A restarted SM has no memory of its integrator or of any grant its
    // parent sent while it was down; it re-enters on the static budget
    // with a fresh lease and waits for the next recommendation.
    r_ref[i] = util::clamp(params_.r_ref_min, params_.r_ref_min,
                           params_.r_ref_max);
    last_measurement[i] = 0.0;
    last_error[i] = 0.0;
    steps[i] = 0;
    dynamic_cap[i] = static_cap[i];
    budget_tick[i] = tick;
    trace_ctx[i] = 0;
    lease_expired[i] = 0;
    reference[i] = effectiveCap(i);
}

void
SmLevel::observeRange(size_t tick, size_t lo, size_t hi)
{
    for (size_t i = lo; i < hi; ++i)
        observeSlot(i, tick);
}

inline void
SmLevel::observeSlot(size_t i, size_t tick)
{
    const sim::Server &srv = *server[i];
    if (faults_) {
        if (faults_->down(fault::Level::SM, static_cast<long>(srv.id()),
                          tick)) {
            // A down SM records nothing — its CIM interface is dark.
            ++degrade[i].outage_ticks;
            was_down[i] = 1;
            return;
        }
        if (was_down[i]) {
            was_down[i] = 0;
            ++degrade[i].restarts;
            if (obs_restarts[i])
                obs_restarts[i]->add();
            if (obs_trace[i])
                obs_trace[i]->emit(tick,
                                   "cold restart after outage: static "
                                   "budget %.6gW, fresh lease",
                                   static_cap[i]);
            restartCold(i, tick);
        }
    }
    // Violation bookkeeping runs at tick granularity and against the
    // *static* budget: dynamic grants re-provision headroom but the
    // physical fuse/fan limit is CAP_LOC, and that is the signal the
    // exposed (CIM-style) interface reports to the VMC.
    if (srv.platformPower(tick) != sim::PlatformPower::Off)
        violations[i].record(srv.lastPower() > static_cap[i] + 1e-9);
}

void
SmLevel::stepRange(size_t tick, size_t lo, size_t hi)
{
    for (size_t i = lo; i < hi; ++i)
        stepSlot(i, tick);
}

inline void
SmLevel::stepSlot(size_t i, size_t tick)
{
    const sim::Server &srv = *server[i];
    step_tick[i] = tick;
    if (faults_ && faults_->down(fault::Level::SM,
                                 static_cast<long>(srv.id()), tick)) {
        ++degrade[i].outage_steps;
        return;
    }
    if (!srv.isOn(tick))
        return;

    // Lease bookkeeping: degrade to the conservative local cap when the
    // parent has gone silent past the lease, and recover the moment a
    // fresh grant lands.
    if (leaseLapsed(i, tick)) {
        if (!lease_expired[i]) {
            lease_expired[i] = 1;
            ++degrade[i].lease_expiries;
            if (obs_lease_expiries[i])
                obs_lease_expiries[i]->add();
            if (obs_trace[i])
                obs_trace[i]->emit(tick,
                                   "lease expired (grant from tick %zu, "
                                   "lease %u) -> fallback cap %.6gW",
                                   budget_tick[i], params_.lease_ticks,
                                   currentCap(i, tick));
        }
        ++degrade[i].lease_fallback_steps;
    } else {
        if (lease_expired[i] && obs_trace[i])
            obs_trace[i]->emit(tick,
                               "lease recovered: fresh grant, enforcing "
                               "%.6gW",
                               effectiveCap(i));
        lease_expired[i] = 0;
    }
    const double cap = currentCap(i, tick);
    if (obs_cap[i])
        obs_cap[i]->set(cap);

    bool ec_down = faults_ && ref_link[i] &&
                   faults_->down(fault::Level::EC,
                                 static_cast<long>(srv.id()), tick);
    if (params_.mode == SmMode::DirectPState || ec_down) {
        // With the nested EC down nobody runs the inner loop; the SM
        // degrades to capping P-states directly, like a solo product.
        if (ec_down && params_.mode == SmMode::Coordinated) {
            ++degrade[i].ec_fallback_steps;
            if (obs_ec_fallback_steps[i])
                obs_ec_fallback_steps[i]->add();
            if (!ec_fallback[i] && obs_trace[i])
                obs_trace[i]->emit(tick, "nested EC down -> direct "
                                         "P-state capping");
            ec_fallback[i] = 1;
        }
        stepDirect(i, tick, cap);
        return;
    }
    if (ec_fallback[i]) {
        ec_fallback[i] = 0;
        if (obs_trace[i])
            obs_trace[i]->emit(tick, "nested EC back -> r_ref actuation "
                                     "resumed");
    }
    // One loop interval (Figure 3) against the enforced cap:
    // r_ref(k) = r_ref(k-1) - beta * (cap - pow), with power normalized
    // by the machine's peak so beta is machine-independent. The release
    // direction (power under cap, error > 0) uses a reduced gain.
    reference[i] = cap;
    const double measurement = srv.lastPower();
    last_measurement[i] = measurement;
    const double error = reference[i] - measurement;
    last_error[i] = error;
    const double norm_error = error / srv.model().maxPower();
    const double beta =
        params_.beta * (error > 0.0 ? params_.release_gain_ratio : 1.0);
    // util::clamp without its range check: add() validated min <= max.
    const double r = r_ref[i] + -beta * norm_error;
    r_ref[i] = std::min(params_.r_ref_max, std::max(params_.r_ref_min, r));
    ref_link[i]->send(r_ref[i], step_tick[i]);
    ++steps[i];
}

void
SmLevel::stepDirect(size_t i, size_t tick, double cap)
{
    sim::Server &srv = *server[i];
    double pow = srv.lastPower();
    const auto &m = srv.model();
    size_t p = srv.pstate();
    size_t slowest = srv.spec().pstates().slowestIndex();
    size_t q = p;
    if (pow > cap) {
        // Hardware cappers clamp immediately: jump to the fastest state
        // predicted to respect the budget for the current load.
        double demand = srv.lastRealUtil();
        while (q < slowest && m.powerForDemand(q, demand) > cap)
            ++q;
    } else if (pow < cap * (1.0 - params_.unthrottle_margin) && p > 0) {
        // Solo cappers restore performance when comfortably under budget.
        q = p - 1;
    }
    if (q == p)
        return;
    if (faults_ && faults_->pstateStuck(static_cast<long>(srv.id()), tick)) {
        // The firmware actuator swallowed the write.
        ++degrade[i].stuck_actuations;
        return;
    }
    if (obs_trace[i])
        obs_trace[i]->emit(tick, "%s P%zu -> P%zu: pow=%.6gW cap=%.6gW",
                           q > p ? "throttle" : "unthrottle", p, q, pow,
                           cap);
    srv.setPState(q);
}

ServerManager::ServerManager(sim::Server &server, EfficiencyController *ec,
                             double static_cap, const Params &params)
    : own_(std::make_shared<SmLevel>(params)), level_(own_.get()),
      slot_(own_->add(server, ec, static_cap))
{
}

void
ServerManager::setBudget(double watts, size_t tick, uint32_t trace)
{
    SmLevel &l = *level_;
    l.setBudget(slot_, watts);
    l.budget_tick[slot_] = tick;
    l.trace_ctx[slot_] = trace;
    if (l.params().mode == Mode::Coordinated && watts < l.static_cap[slot_]) {
        if (l.obs_grant_clamps[slot_])
            l.obs_grant_clamps[slot_]->add();
        if (l.obs_trace[slot_])
            l.obs_trace[slot_]->emit(tick,
                                     "clamped budget %.6gW -> %.6gW: "
                                     "grant < static",
                                     l.static_cap[slot_], watts);
    }
}

void
ServerManager::attachObs(obs::MetricsRegistry *metrics,
                         obs::TraceSink *trace)
{
    SmLevel &l = *level_;
    if (metrics) {
        l.obs_grant_clamps[slot_] = metrics->counter(
            "nps_sm_grant_clamps_total", name(),
            "Dynamic grants below the static cap (grant won the min)");
        l.obs_lease_expiries[slot_] = metrics->counter(
            "nps_sm_lease_expiries_total", name(),
            "Budget leases that lapsed into the local fallback cap");
        l.obs_ec_fallback_steps[slot_] = metrics->counter(
            "nps_sm_ec_fallback_steps_total", name(),
            "Steps spent capping P-states directly because the nested "
            "EC was down");
        l.obs_restarts[slot_] = metrics->counter(
            "nps_sm_restarts_total", name(),
            "Cold restarts after an SM outage");
        l.obs_cap[slot_] = metrics->gauge(
            "nps_sm_cap_watts", name(),
            "Budget enforced by the SM at its most recent step");
    }
    if (trace)
        l.obs_trace[slot_] = trace->channel(name());
}

void
ServerManager::attachControlLog(bus::ControlPlaneLog *log)
{
    if (level_->ref_link[slot_])
        level_->ref_link[slot_]->attachLog(log);
}

void
ServerManager::attachTransport(bus::Transport *transport,
                               const bus::OwnerFn &owner)
{
    bus::ReferenceLink *link = level_->ref_link[slot_].get();
    if (!link)
        return;
    const int rank =
        owner ? owner(bus::OwnerLevel::Sm,
                      static_cast<long>(server().id()))
              : 0;
    link->setTransport(transport, rank);
}

void
ServerManager::saveState(ckpt::SectionWriter &w) const
{
    const SmLevel &l = *level_;
    const size_t i = slot_;
    w.putDouble(l.reference[i]);
    w.putDouble(l.last_measurement[i]);
    w.putDouble(l.last_error[i]);
    w.putU64(l.steps[i]);
    l.violations[i].saveState(w);
    w.putDouble(l.dynamic_cap[i]);
    w.putDouble(l.r_ref[i]);
    w.putU64(l.step_tick[i]);
    l.degrade[i].saveState(w);
    w.putU64(l.budget_tick[i]);
    w.putU32(l.trace_ctx[i]);
    w.putBool(l.lease_expired[i] != 0);
    w.putBool(l.was_down[i] != 0);
    w.putBool(l.ec_fallback[i] != 0);
    w.putBool(l.ref_link[i] != nullptr);
    if (l.ref_link[i])
        l.ref_link[i]->saveState(w);
}

void
ServerManager::loadState(ckpt::SectionReader &r)
{
    SmLevel &l = *level_;
    const size_t i = slot_;
    l.reference[i] = r.getDouble();
    l.last_measurement[i] = r.getDouble();
    l.last_error[i] = r.getDouble();
    l.steps[i] = static_cast<unsigned long>(r.getU64());
    l.violations[i].loadState(r);
    l.dynamic_cap[i] = r.getDouble();
    l.r_ref[i] = util::clamp(r.getDouble(), l.params().r_ref_min,
                             l.params().r_ref_max);
    l.step_tick[i] = static_cast<size_t>(r.getU64());
    l.degrade[i].loadState(r);
    l.budget_tick[i] = static_cast<size_t>(r.getU64());
    l.trace_ctx[i] = r.getU32();
    l.lease_expired[i] = r.getBool() ? 1 : 0;
    l.was_down[i] = r.getBool() ? 1 : 0;
    l.ec_fallback[i] = r.getBool() ? 1 : 0;
    bool has_link = r.getBool();
    if (has_link != (l.ref_link[i] != nullptr))
        util::fatal("SM %s restore: reference-link presence mismatch "
                    "(snapshot %d, rebuilt %d)",
                    name().c_str(), has_link ? 1 : 0,
                    l.ref_link[i] ? 1 : 0);
    if (l.ref_link[i])
        l.ref_link[i]->loadState(r);
}

} // namespace controllers
} // namespace nps
