#include "controllers/efficiency.h"

#include <algorithm>

#include "control/stability.h"
#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace nps {
namespace controllers {

namespace {

/**
 * @p x clamped to the frequency range of @p table — util::clamp without
 * its range check (a P-state table is strictly decreasing).
 */
inline double
clampTo(double x, const model::PStateTable &table)
{
    return std::min(table.fastest().freq_mhz,
                    std::max(table.slowest().freq_mhz, x));
}

} // namespace

EcLevel::EcLevel(const EcParams &params) : params_(params) {}

size_t
EcLevel::add(sim::Server &srv)
{
    if (params_.r_ref <= 0.0 || params_.r_ref >= 1.0)
        util::fatal("EC: r_ref %f out of (0,1)", params_.r_ref);
    if (!ctl::ecGainStable(params_.lambda, params_.r_ref)) {
        util::warn("EC/%u: lambda %f violates the global stability bound "
                   "1/r_ref = %f", srv.id(), params_.lambda,
                   ctl::ecLambdaBound(params_.r_ref));
    }
    const size_t slot = server.size();
    server.push_back(&srv);
    table.push_back(&srv.spec().pstates());
    ident.push_back("EC/" + std::to_string(srv.id()));
    reference.push_back(params_.r_ref);
    last_measurement.push_back(0.0);
    last_error.push_back(0.0);
    steps.push_back(0);
    freq.push_back(table.back()->fastest().freq_mhz);
    degrade.emplace_back();
    cur_tick.push_back(0);
    held_util.push_back(0.0);
    was_down.push_back(0);
    obs_pstate_changes.push_back(nullptr);
    obs_restarts.push_back(nullptr);
    obs_stuck.push_back(nullptr);
    obs_trace.push_back(nullptr);
    return slot;
}

void
EcLevel::stepRange(size_t tick, size_t lo, size_t hi)
{
    for (size_t i = lo; i < hi; ++i)
        stepSlot(i, tick);
}

inline void
EcLevel::stepSlot(size_t i, size_t tick)
{
    sim::Server &srv = *server[i];
    if (faults_ && faults_->down(fault::Level::EC,
                                 static_cast<long>(srv.id()), tick)) {
        if (!was_down[i] && obs_trace[i])
            obs_trace[i]->emit(tick, "outage begins: EC down, P-state held");
        ++degrade[i].outage_ticks;
        ++degrade[i].outage_steps;
        was_down[i] = 1;
        return;
    }
    if (was_down[i]) {
        was_down[i] = 0;
        ++degrade[i].restarts;
        if (obs_restarts[i])
            obs_restarts[i]->add();
        if (obs_trace[i])
            obs_trace[i]->emit(tick, "cold restart after outage: back to "
                                     "P0, integrator and r_ref reset");
        restartCold(i);
    }
    cur_tick[i] = tick;
    if (!srv.isOn(tick)) {
        // Nothing to manage; reset to full speed so a rebooted machine
        // comes back at P0, as firmware does.
        freq[i] = table[i]->fastest().freq_mhz;
        return;
    }
    if (params_.objective == EcObjective::EnergyDelay) {
        stepEnergyDelay(i, tick);
        return;
    }
    // One loop interval (Figure 3): measure, error, control law,
    // actuate. Consumed frequency f_C = r * f at the quantized operating
    // point; f(k) = f(k-1) - gain * (r_ref - r), integral on frequency.
    const double measurement = sensedUtil(i, tick, srv.lastApparentUtil());
    last_measurement[i] = measurement;
    const double error = reference[i] - measurement;
    last_error[i] = error;
    const double f_c = measurement * table[i]->at(srv.pstate()).freq_mhz;
    const double gain = params_.lambda * f_c / reference[i];
    freq[i] = clampTo(freq[i] + -gain * error, *table[i]);
    actuate(i, freq[i]);
    ++steps[i];
}

void
EcLevel::restartCold(size_t i)
{
    // A restarted EC forgets its integrator and any r_ref its SM sent
    // while it was down; the SM re-actuates on its next step.
    freq[i] = table[i]->fastest().freq_mhz;
    last_measurement[i] = 0.0;
    last_error[i] = 0.0;
    steps[i] = 0;
    reference[i] = params_.r_ref;
}

double
EcLevel::sensedUtil(size_t i, size_t tick, double raw)
{
    if (!faults_)
        return raw;
    long id = static_cast<long>(server[i]->id());
    if (faults_->utilFrozen(id, tick)) {
        ++degrade[i].noisy_reads;
        return held_util[i];
    }
    double noise = faults_->utilNoise(id, tick);
    if (noise != 0.0) {
        ++degrade[i].noisy_reads;
        raw = std::min(1.0, std::max(0.0, raw + noise));
    }
    held_util[i] = raw;
    return raw;
}

void
EcLevel::actuate(size_t i, double value)
{
    sim::Server &srv = *server[i];
    size_t p = params_.quantize_up ? table[i]->quantizeUp(value)
                                   : table[i]->quantizeNearest(value);
    if (p == srv.pstate())
        return;
    if (faults_ &&
        faults_->pstateStuck(static_cast<long>(srv.id()), cur_tick[i])) {
        // The firmware actuator swallowed the write; the integrator keeps
        // running against the stuck plant (realistic windup).
        ++degrade[i].stuck_actuations;
        if (obs_stuck[i])
            obs_stuck[i]->add();
        if (obs_trace[i])
            obs_trace[i]->emit(cur_tick[i],
                               "actuator stuck: P%zu held (wanted P%zu)",
                               srv.pstate(), p);
        return;
    }
    if (obs_pstate_changes[i])
        obs_pstate_changes[i]->add();
    if (obs_trace[i])
        obs_trace[i]->emit(cur_tick[i],
                           "P%zu -> P%zu: f_cont=%.6g MHz r_ref=%.6g",
                           srv.pstate(), p, value, reference[i]);
    srv.setPState(p);
}

void
EcLevel::stepEnergyDelay(size_t i, size_t tick)
{
    // Estimate current real demand from the last measurement and pick the
    // state minimizing power * delay ~ power / relSpeed, while keeping
    // apparent utilization under the reference.
    sim::Server &srv = *server[i];
    double demand = sensedUtil(i, tick, srv.lastRealUtil());
    const auto &m = srv.model();
    const auto &states = m.pstates();
    size_t best = 0;
    double best_score = 0.0;
    bool have = false;
    for (size_t p = 0; p < states.size(); ++p) {
        if (m.apparentUtil(p, demand) > reference[i] && p != 0)
            continue;
        double score = m.powerForDemand(p, demand) / states.relSpeed(p);
        if (!have || score < best_score) {
            best = p;
            best_score = score;
            have = true;
        }
    }
    if (best != srv.pstate() && faults_ &&
        faults_->pstateStuck(static_cast<long>(srv.id()), tick)) {
        ++degrade[i].stuck_actuations;
        if (obs_stuck[i])
            obs_stuck[i]->add();
        return;
    }
    if (best != srv.pstate()) {
        if (obs_pstate_changes[i])
            obs_pstate_changes[i]->add();
        if (obs_trace[i])
            obs_trace[i]->emit(tick,
                               "P%zu -> P%zu: energy-delay best for "
                               "demand=%.6g",
                               srv.pstate(), best, demand);
    }
    srv.setPState(best);
    freq[i] = clampTo(states.at(best).freq_mhz, states);
}

EfficiencyController::EfficiencyController(sim::Server &server,
                                           const Params &params)
    : own_(std::make_shared<EcLevel>(params)), level_(own_.get()),
      slot_(own_->add(server))
{
}

void
EfficiencyController::attachObs(obs::MetricsRegistry *metrics,
                                obs::TraceSink *trace)
{
    EcLevel &l = *level_;
    if (metrics) {
        l.obs_pstate_changes[slot_] = metrics->counter(
            "nps_ec_pstate_changes_total", name(),
            "P-state transitions actuated by the EC");
        l.obs_restarts[slot_] = metrics->counter(
            "nps_ec_restarts_total", name(),
            "Cold restarts after an EC outage");
        l.obs_stuck[slot_] = metrics->counter(
            "nps_ec_stuck_actuations_total", name(),
            "P-state writes swallowed by a stuck actuator fault");
    }
    if (trace)
        l.obs_trace[slot_] = trace->channel(name());
}

void
EfficiencyController::saveState(ckpt::SectionWriter &w) const
{
    const EcLevel &l = *level_;
    w.putDouble(l.reference[slot_]);
    w.putDouble(l.last_measurement[slot_]);
    w.putDouble(l.last_error[slot_]);
    w.putU64(l.steps[slot_]);
    w.putDouble(l.freq[slot_]);
    l.degrade[slot_].saveState(w);
    w.putU64(l.cur_tick[slot_]);
    w.putDouble(l.held_util[slot_]);
    w.putBool(l.was_down[slot_] != 0);
}

void
EfficiencyController::loadState(ckpt::SectionReader &r)
{
    EcLevel &l = *level_;
    l.reference[slot_] = r.getDouble();
    l.last_measurement[slot_] = r.getDouble();
    l.last_error[slot_] = r.getDouble();
    l.steps[slot_] = static_cast<unsigned long>(r.getU64());
    l.freq[slot_] = clampTo(r.getDouble(), *l.table[slot_]);
    l.degrade[slot_].loadState(r);
    l.cur_tick[slot_] = static_cast<size_t>(r.getU64());
    l.held_util[slot_] = r.getDouble();
    l.was_down[slot_] = r.getBool() ? 1 : 0;
}

} // namespace controllers
} // namespace nps
