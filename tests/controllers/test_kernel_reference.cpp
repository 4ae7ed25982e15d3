/**
 * @file
 * The per-server range kernels against the serial per-object reference.
 *
 * Each draw builds two identical randomized heterogeneous fleets. One
 * runs the production per-level kernels (EcLevel, SmLevel and the
 * electrical-capper / memory-manager PerServerLevels) on the sharded
 * engine at 1, 4 or 8 threads; the other runs the pre-kernel control
 * laws (tests/common/reference_laws.h), one object and one global actor
 * per server, on the serial engine. Both see the same fault campaign
 * (outages, stuck actuators, sensor noise, frozen sensors) and the same
 * scripted budget grants, with gaps long enough for leases to lapse.
 * After every tick the test compares, for every server, the P-state and
 * power, the EC's continuous frequency and r_ref, the SM's caps and
 * violation rates, the capper's clamp, and every controller's complete
 * checkpoint bytes (which carry the integrators, the violation and
 * degrade counters and the edge flags) — all exactly.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.h"
#include "common/reference_laws.h"
#include "controllers/electrical_capper.h"
#include "controllers/memory_manager.h"
#include "controllers/per_server_level.h"
#include "fault/fault.h"

namespace {

using namespace nps;
using controllers::EcLevel;
using controllers::EfficiencyController;
using controllers::ElectricalCapper;
using controllers::MemoryManager;
using controllers::ServerManager;
using controllers::SmLevel;

constexpr size_t kTicks = 260;

/** One global actor per server around an unchanged CAP/MM object. */
template <class Ctl>
class ObjectActor : public sim::Actor
{
  public:
    template <class... Args>
    explicit ObjectActor(Args &&...args) : ctl(std::forward<Args>(args)...)
    {
    }

    const std::string &name() const override { return ctl.name(); }
    unsigned period() const override { return ctl.period(); }
    void
    observe(size_t tick) override
    {
        if constexpr (requires { ctl.observe(tick); })
            ctl.observe(tick);
    }
    void step(size_t tick) override { ctl.step(tick); }

    Ctl ctl;
};

struct Variant
{
    controllers::EcParams ec;
    controllers::SmParams sm;
    ElectricalCapper::Params cap;
    MemoryManager::Params mem;
    bool with_cap = false;
    bool with_mem = false;
    unsigned servers = 0;
    std::string faults;
    uint64_t seed = 0;
};

Variant
drawVariant(uint32_t seed)
{
    std::mt19937 rng(seed);
    Variant v;
    v.seed = seed;
    v.servers = 9 + rng() % 24;
    v.ec.objective = rng() % 3 == 0
                         ? controllers::EcObjective::EnergyDelay
                         : controllers::EcObjective::UtilizationTracking;
    v.ec.quantize_up = rng() % 2 == 0;
    v.ec.lambda = 0.5 + 0.1 * (rng() % 5);
    v.sm.mode = rng() % 4 == 0 ? controllers::SmMode::DirectPState
                               : controllers::SmMode::Coordinated;
    v.sm.lease_ticks = rng() % 3 == 0 ? 0 : 10 + rng() % 30;
    v.sm.lease_fallback = 0.7 + 0.05 * (rng() % 5);
    v.sm.period = 3 + rng() % 5;
    v.with_cap = rng() % 2 == 0;
    v.with_mem = rng() % 2 == 0;
    v.cap.release_margin = 0.02 * (1 + rng() % 4);
    // One random window per fault mode and target kind.
    std::ostringstream f;
    auto window = [&](unsigned len) {
        size_t start = 1 + rng() % (kTicks - len);
        return std::to_string(start) + " " + std::to_string(start + len);
    };
    auto server = [&] { return std::to_string(rng() % v.servers); };
    f << "outage ec " << server() << " " << window(20) << "\n";
    f << "outage sm " << server() << " " << window(25) << "\n";
    f << "outage cap " << server() << " " << window(15) << "\n";
    f << "stuck " << server() << " " << window(30) << "\n";
    f << "stuck * " << window(6) << "\n";
    f << "noise " << server() << " " << window(40) << " 0.15\n";
    f << "noise * " << window(10) << " 0.05\n";
    f << "freeze " << server() << " " << window(30) << "\n";
    v.faults = f.str();
    return v;
}

std::vector<std::shared_ptr<const model::MachineSpec>>
drawSpecs(const Variant &v)
{
    std::mt19937 rng(static_cast<uint32_t>(v.seed * 31 + 7));
    auto blade = std::make_shared<const model::MachineSpec>(model::bladeA());
    auto srv = std::make_shared<const model::MachineSpec>(model::serverB());
    std::vector<std::shared_ptr<const model::MachineSpec>> specs;
    for (unsigned i = 0; i < v.servers; ++i)
        specs.push_back(rng() % 3 == 0 ? srv : blade);
    return specs;
}

sim::Cluster
makeCluster(const Variant &v)
{
    sim::Topology topo{v.servers, 1, v.servers / 2};
    return sim::Cluster(topo, drawSpecs(v),
                        nps_test::generatedTraces(v.servers, kTicks + 8,
                                                  v.seed),
                        sim::BudgetConfig::paper201510(), 0.10, 0.10);
}

/** The scripted upper level: grant every few ticks, with silent gaps. */
bool
grantsAt(const Variant &v, size_t tick)
{
    const bool gap = (tick >= 60 && tick < 110) || (tick >= 170 && tick < 200);
    return tick % (v.sm.period + 2) == 1 && !gap;
}

double
grantWatts(const Variant &v, const sim::Server &srv, size_t tick)
{
    // A deterministic budget that dips below and rises above CAP_LOC.
    std::mt19937 rng(static_cast<uint32_t>(v.seed * 1000003 + tick * 7 +
                                           srv.id()));
    const double frac = 0.55 + 0.01 * (rng() % 50);
    return frac * srv.model().maxPower();
}

template <class T>
std::string
stateBytes(const T &ctl)
{
    ckpt::SectionWriter w;
    ctl.saveState(w);
    return w.bytes();
}

void
compareOnce(uint32_t seed, unsigned threads)
{
    const Variant v = drawVariant(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                 std::to_string(threads) + " servers " +
                 std::to_string(v.servers));
    fault::FaultInjector inj(fault::FaultSchedule::parse(v.faults), seed);

    // The kernels, wired as the Coordinator wires them.
    sim::Cluster ca = makeCluster(v);
    sim::MetricsCollector ma;
    sim::Engine ea(ca, ma);
    ea.setThreads(threads);
    auto ecl = std::make_shared<EcLevel>(v.ec);
    auto sml = std::make_shared<SmLevel>(v.sm);
    ecl->setFaultInjector(&inj);
    sml->setFaultInjector(&inj);
    std::vector<std::unique_ptr<EfficiencyController>> ecs;
    std::vector<std::unique_ptr<ServerManager>> sms;
    for (auto &srv : ca.servers())
        ecs.push_back(
            std::make_unique<EfficiencyController>(*ecl, ecl->add(srv)));
    for (auto &srv : ca.servers())
        sms.push_back(std::make_unique<ServerManager>(
            *sml, sml->add(srv, ecs[srv.id()].get(), ca.capLoc(srv.id()))));
    ea.addActor(ecl);
    ea.addActor(sml);
    using CapLevel = controllers::PerServerLevel<ElectricalCapper>;
    using MemLevel = controllers::PerServerLevel<MemoryManager>;
    auto capl = std::make_shared<CapLevel>("CAP[*]", v.cap.period,
                                           ca.numServers());
    auto meml = std::make_shared<MemLevel>("MM[*]", v.mem.period,
                                           ca.numServers());
    for (auto &srv : ca.servers()) {
        if (v.with_cap)
            capl->add(srv, 0.9 * srv.model().maxPower(), v.cap)
                .setFaultInjector(&inj);
        if (v.with_mem)
            meml->add(srv, v.mem);
    }
    if (v.with_cap)
        ea.addActor(capl);
    if (v.with_mem)
        ea.addActor(meml);

    // The serial reference: one object and one actor per server.
    sim::Cluster cb = makeCluster(v);
    sim::MetricsCollector mb;
    sim::Engine eb(cb, mb);
    eb.setThreads(1);
    std::vector<std::shared_ptr<nps_test::ref::RefEc>> rec;
    std::vector<std::shared_ptr<nps_test::ref::RefSm>> rsm;
    std::vector<std::shared_ptr<ObjectActor<ElectricalCapper>>> rcap;
    std::vector<std::shared_ptr<ObjectActor<MemoryManager>>> rmem;
    for (auto &srv : cb.servers()) {
        rec.push_back(std::make_shared<nps_test::ref::RefEc>(srv, v.ec));
        rec.back()->setFaultInjector(&inj);
        eb.addActor(rec.back());
    }
    for (auto &srv : cb.servers()) {
        rsm.push_back(std::make_shared<nps_test::ref::RefSm>(
            srv, rec[srv.id()].get(), cb.capLoc(srv.id()), v.sm));
        rsm.back()->setFaultInjector(&inj);
        eb.addActor(rsm.back());
    }
    for (auto &srv : cb.servers()) {
        if (!v.with_cap)
            break;
        rcap.push_back(std::make_shared<ObjectActor<ElectricalCapper>>(
            srv, 0.9 * srv.model().maxPower(), v.cap));
        rcap.back()->ctl.setFaultInjector(&inj);
        eb.addActor(rcap.back());
    }
    for (auto &srv : cb.servers()) {
        if (!v.with_mem)
            break;
        rmem.push_back(
            std::make_shared<ObjectActor<MemoryManager>>(srv, v.mem));
        eb.addActor(rmem.back());
    }

    for (size_t t = 0; t < kTicks; ++t) {
        if (grantsAt(v, t)) {
            for (unsigned i = 0; i < v.servers; ++i) {
                const double w = grantWatts(v, ca.server(i), t);
                sms[i]->setBudget(w, t, static_cast<uint32_t>(t));
                rsm[i]->setBudget(w, t, static_cast<uint32_t>(t));
            }
        }
        ASSERT_EQ(ea.run(1), 1u);
        ASSERT_EQ(eb.run(1), 1u);
        for (unsigned i = 0; i < v.servers; ++i) {
            SCOPED_TRACE("tick " + std::to_string(t) + " server " +
                         std::to_string(i));
            const sim::Server &sa = ca.server(i);
            const sim::Server &sb = cb.server(i);
            ASSERT_EQ(sa.pstate(), sb.pstate());
            ASSERT_EQ(sa.lastPower(), sb.lastPower());
            ASSERT_EQ(ecs[i]->continuousFreq(), rec[i]->continuousFreq());
            ASSERT_EQ(ecs[i]->reference(), rec[i]->reference());
            ASSERT_EQ(ecs[i]->steps(), rec[i]->steps());
            ASSERT_EQ(stateBytes(*ecs[i]), stateBytes(*rec[i]));
            ASSERT_EQ(sms[i]->effectiveCap(), rsm[i]->effectiveCap());
            ASSERT_EQ(sms[i]->currentCap(t), rsm[i]->currentCap(t));
            ASSERT_EQ(sms[i]->reference(), rsm[i]->reference());
            ASSERT_EQ(sms[i]->lifetimeViolationRate(),
                      rsm[i]->lifetimeViolationRate());
            ASSERT_EQ(sms[i]->epochViolationRate(),
                      rsm[i]->epochViolationRate());
            ASSERT_EQ(sms[i]->degradeStats().lease_expiries,
                      rsm[i]->degradeStats().lease_expiries);
            ASSERT_EQ(stateBytes(*sms[i]), stateBytes(*rsm[i]));
            if (v.with_cap) {
                ASSERT_EQ(capl->at(i).clamping(), rcap[i]->ctl.clamping());
                ASSERT_EQ(stateBytes(capl->at(i)), stateBytes(rcap[i]->ctl));
            }
            if (v.with_mem) {
                ASSERT_EQ(meml->at(i).engagements(),
                          rmem[i]->ctl.engagements());
                ASSERT_EQ(stateBytes(meml->at(i)), stateBytes(rmem[i]->ctl));
            }
        }
        // The VMC's epoch window drains both sides alike.
        if (t % 50 == 49) {
            for (unsigned i = 0; i < v.servers; ++i) {
                sms[i]->drainEpoch();
                rsm[i]->drainEpoch();
            }
        }
    }

    // The campaign must actually have exercised the fault paths.
    fault::DegradeStats total;
    for (const auto &s : rsm)
        total += s->degradeStats();
    for (const auto &e : rec)
        total += e->degradeStats();
    EXPECT_GT(total.outage_steps, 0u);
    EXPECT_GT(total.noisy_reads, 0u);
}

TEST(KernelReference, RandomFleetsAndFaultsMatchSerialObjects)
{
    for (uint32_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u})
        for (unsigned threads : {1u, 4u, 8u})
            compareOnce(seed, threads);
}

TEST(KernelReference, DrawsCoverTheVariants)
{
    // The seed list above must reach every law variant at least once.
    bool energy_delay = false, nearest = false, direct = false,
         leases = false, cap = false, mem = false;
    for (uint32_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
        Variant v = drawVariant(seed);
        energy_delay |=
            v.ec.objective == controllers::EcObjective::EnergyDelay;
        nearest |= !v.ec.quantize_up;
        direct |= v.sm.mode == controllers::SmMode::DirectPState;
        leases |= v.sm.lease_ticks > 0;
        cap |= v.with_cap;
        mem |= v.with_mem;
    }
    EXPECT_TRUE(energy_delay);
    EXPECT_TRUE(nearest);
    EXPECT_TRUE(direct);
    EXPECT_TRUE(leases);
    EXPECT_TRUE(cap);
    EXPECT_TRUE(mem);
}

} // namespace
