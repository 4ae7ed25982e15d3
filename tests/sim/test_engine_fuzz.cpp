/**
 * @file
 * Randomized scheduling tests for the parallel tick engine.
 *
 * Each iteration builds a random population — random periods, random
 * insertion order, random mix of global actors and range kernels — runs
 * it on the sharded path (threads = 4) and checks the engine's
 * scheduling invariants hold regardless of the draw. A fuzz kernel does
 * work for one server slot only (its key), so it stands for one
 * per-server controller and is stamped exactly when the engine hands
 * that slot to it:
 *
 *   - no actor steps at tick 0;
 *   - an actor steps exactly at the positive multiples of its period;
 *   - every actor observes every tick, and all observations of a tick
 *     complete before any step of that tick;
 *   - ordered pairs (two globals, a global and anything, or two kernels
 *     keyed to the same server) step coarse-period-first, stable by
 *     insertion order for ties.
 *
 * Kernels keyed to *different* servers may interleave freely within a
 * stage — the tests deliberately do not constrain them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/fixtures.h"
#include "sim/engine.h"

namespace {

using namespace nps::sim;

/** Shard key of a global participant. */
constexpr long kGlobalShard = -1;

/**
 * One fuzz participant's record: every observe()/step() it received,
 * stamped with a process-wide sequence number.
 */
class FuzzProbe
{
  public:
    FuzzProbe(std::string name, unsigned period, long shard,
              std::atomic<uint64_t> *clock)
        : name_(std::move(name)), period_(period), shard_(shard),
          clock_(clock)
    {
    }

    virtual ~FuzzProbe() = default;

    const std::string &name() const { return name_; }
    unsigned period() const { return period_; }
    long shard() const { return shard_; }

    std::vector<std::pair<size_t, uint64_t>> observe_stamps;
    std::vector<std::pair<size_t, uint64_t>> step_stamps;

  protected:
    void stampObserve(size_t tick)
    {
        observe_stamps.push_back({tick, clock_->fetch_add(1)});
    }
    void stampStep(size_t tick)
    {
        step_stamps.push_back({tick, clock_->fetch_add(1)});
    }

    std::string name_;
    unsigned period_;
    long shard_;
    std::atomic<uint64_t> *clock_;
};

/** A global actor. */
class FuzzActor : public Actor, public FuzzProbe
{
  public:
    FuzzActor(std::string name, unsigned period,
              std::atomic<uint64_t> *clock)
        : FuzzProbe(std::move(name), period, kGlobalShard, clock)
    {
    }

    const std::string &name() const override { return name_; }
    unsigned period() const override { return period_; }
    void observe(size_t tick) override { stampObserve(tick); }
    void step(size_t tick) override { stampStep(tick); }
};

/**
 * A range kernel over @p slots servers that works on slot @p key only:
 * it is stamped when the engine's range covers that slot.
 */
class FuzzKernel : public Kernel, public FuzzProbe
{
  public:
    FuzzKernel(std::string name, unsigned period, long key, size_t slots,
               std::atomic<uint64_t> *clock)
        : FuzzProbe(std::move(name), period, key, clock), slots_(slots)
    {
    }

    const std::string &name() const override { return name_; }
    unsigned period() const override { return period_; }
    size_t slots() const override { return slots_; }

    void
    observeRange(size_t tick, size_t lo, size_t hi) override
    {
        if (covers(lo, hi))
            stampObserve(tick);
    }

    void
    stepRange(size_t tick, size_t lo, size_t hi) override
    {
        if (covers(lo, hi))
            stampStep(tick);
    }

  private:
    bool
    covers(size_t lo, size_t hi) const
    {
        const auto key = static_cast<size_t>(shard_);
        return lo <= key && key < hi;
    }

    size_t slots_;
};

/** A global actor (shard < 0) or a kernel keyed to server @p shard. */
std::shared_ptr<FuzzProbe>
makeProbe(std::string name, unsigned period, long shard, size_t slots,
          std::atomic<uint64_t> *clock)
{
    if (shard == kGlobalShard)
        return std::make_shared<FuzzActor>(std::move(name), period, clock);
    return std::make_shared<FuzzKernel>(std::move(name), period, shard,
                                        slots, clock);
}

/** The engine-facing side of @p probe. */
std::shared_ptr<Actor>
asActor(const std::shared_ptr<FuzzProbe> &probe)
{
    return std::dynamic_pointer_cast<Actor>(probe);
}

/** True when the schedule fully orders the pair's steps within a tick:
 * a global actor is a barrier against everything, and kernels keyed to
 * the same server run serially in schedule order. */
bool
ordered(const FuzzProbe &a, const FuzzProbe &b)
{
    return a.shard() == kGlobalShard || b.shard() == kGlobalShard ||
           a.shard() == b.shard();
}

uint64_t
stampAt(const std::vector<std::pair<size_t, uint64_t>> &stamps,
        size_t tick)
{
    for (const auto &s : stamps)
        if (s.first == tick)
            return s.second;
    ADD_FAILURE() << "no stamp at tick " << tick;
    return 0;
}

void
fuzzOnce(uint32_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    constexpr size_t kTicks = 40;

    Cluster cluster = nps_test::smallCluster();
    MetricsCollector metrics;
    Engine engine(cluster, metrics);
    engine.setThreads(4);

    std::atomic<uint64_t> clock{0};
    const size_t count = 8 + rng() % 12;
    std::vector<std::shared_ptr<FuzzProbe>> actors;
    for (size_t i = 0; i < count; ++i) {
        const unsigned period = 1 + rng() % 13;
        const bool global = rng() % 3 == 0;
        const long shard =
            global ? kGlobalShard
                   : static_cast<long>(rng() % cluster.numServers());
        actors.push_back(makeProbe("f" + std::to_string(i), period, shard,
                                   cluster.numServers(), &clock));
        engine.addActor(asActor(actors.back()));
    }
    engine.run(kTicks);

    // Schedule rank: descending period, stable by insertion order.
    std::vector<size_t> rank_of(count);
    {
        std::vector<size_t> order(count);
        for (size_t i = 0; i < count; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return actors[a]->period() >
                                    actors[b]->period();
                         });
        for (size_t pos = 0; pos < count; ++pos)
            rank_of[order[pos]] = pos;
    }

    for (const auto &a : actors) {
        // Every tick observed, in order.
        ASSERT_EQ(a->observe_stamps.size(), kTicks) << a->name();
        for (size_t t = 0; t < kTicks; ++t)
            EXPECT_EQ(a->observe_stamps[t].first, t) << a->name();

        // Steps at exactly the positive multiples of the period.
        std::vector<size_t> expected;
        for (size_t t = a->period(); t < kTicks; t += a->period())
            expected.push_back(t);
        ASSERT_EQ(a->step_stamps.size(), expected.size()) << a->name();
        for (size_t i = 0; i < expected.size(); ++i)
            EXPECT_EQ(a->step_stamps[i].first, expected[i]) << a->name();
        EXPECT_TRUE(a->step_stamps.empty() ||
                    a->step_stamps.front().first > 0)
            << a->name() << " stepped at tick 0";
    }

    for (size_t tick = 1; tick < kTicks; ++tick) {
        // All observations of a tick happen before any step of it.
        uint64_t max_observe = 0;
        uint64_t min_step = UINT64_MAX;
        for (const auto &a : actors) {
            max_observe =
                std::max(max_observe, stampAt(a->observe_stamps, tick));
            if (tick % a->period() == 0)
                min_step =
                    std::min(min_step, stampAt(a->step_stamps, tick));
        }
        if (min_step != UINT64_MAX) {
            EXPECT_LT(max_observe, min_step) << "tick " << tick;
        }

        // Coarse-first, insertion-stable order for every ordered pair.
        for (size_t i = 0; i < count; ++i) {
            if (tick % actors[i]->period() != 0)
                continue;
            for (size_t j = i + 1; j < count; ++j) {
                if (tick % actors[j]->period() != 0 ||
                    !ordered(*actors[i], *actors[j]))
                    continue;
                const size_t first =
                    rank_of[i] < rank_of[j] ? i : j;
                const size_t second = first == i ? j : i;
                EXPECT_LT(stampAt(actors[first]->step_stamps, tick),
                          stampAt(actors[second]->step_stamps, tick))
                    << actors[first]->name() << " (period "
                    << actors[first]->period() << ") must step before "
                    << actors[second]->name() << " (period "
                    << actors[second]->period() << ") at tick " << tick;
            }
        }
    }
}

TEST(EngineFuzz, RandomActorSetsKeepSchedulingInvariants)
{
    for (uint32_t seed : {1u, 7u, 42u, 1234u, 99999u})
        fuzzOnce(seed);
}

TEST(EngineFuzz, AllGlobalPopulationStaysSerialOrdered)
{
    // Degenerate draw: every actor global — the parallel engine must
    // behave exactly like the serial one.
    std::mt19937 rng(5);
    constexpr size_t kTicks = 30;
    Cluster cluster = nps_test::smallCluster();
    MetricsCollector metrics;
    Engine engine(cluster, metrics);
    engine.setThreads(4);
    std::atomic<uint64_t> clock{0};
    std::vector<std::shared_ptr<FuzzActor>> actors;
    for (size_t i = 0; i < 10; ++i) {
        actors.push_back(std::make_shared<FuzzActor>(
            "g" + std::to_string(i), 1 + rng() % 5, &clock));
        engine.addActor(actors.back());
    }
    engine.run(kTicks);
    for (size_t tick = 1; tick < kTicks; ++tick) {
        uint64_t prev = 0;
        bool have_prev = false;
        for (const auto &a : engine.actors()) {
            if (tick % a->period() != 0)
                continue;
            auto *fa = dynamic_cast<FuzzActor *>(a.get());
            ASSERT_NE(fa, nullptr);
            const uint64_t stamp = stampAt(fa->step_stamps, tick);
            if (have_prev) {
                EXPECT_LT(prev, stamp) << "tick " << tick;
            }
            prev = stamp;
            have_prev = true;
        }
    }
}

void
fuzzReplaceOnce(uint32_t seed)
{
    // Mixes mid-simulation addActor() — both fresh names and name-matched
    // replacements — with the sharded batch dispatch: after the roster
    // churn, the rebuilt flattened segments must still honour every
    // scheduling invariant, replaced instances must stop receiving work,
    // and replacements must step exactly where their predecessors would
    // have.
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    constexpr size_t kFirst = 15;
    constexpr size_t kTicks = 30;

    Cluster cluster = nps_test::smallCluster();
    MetricsCollector metrics;
    Engine engine(cluster, metrics);
    engine.setThreads(4);

    std::atomic<uint64_t> clock{0};
    auto draw = [&](const std::string &name) {
        const unsigned period = 1 + rng() % 7;
        const bool global = rng() % 4 == 0;
        const long shard =
            global ? kGlobalShard
                   : static_cast<long>(rng() % cluster.numServers());
        return makeProbe(name, period, shard, cluster.numServers(), &clock);
    };

    const size_t count = 9 + rng() % 9;
    std::vector<std::shared_ptr<FuzzProbe>> originals;
    for (size_t i = 0; i < count; ++i) {
        originals.push_back(draw("r" + std::to_string(i)));
        engine.addActor(asActor(originals.back()));
    }
    engine.run(kFirst);

    // Replace roughly a third by name — same period and shard, so the
    // replacement inherits the predecessor's exact schedule position —
    // and add a couple of newcomers.
    std::vector<std::shared_ptr<FuzzProbe>> replacements;
    for (size_t i = 0; i < count; ++i) {
        if (rng() % 3 != 0)
            continue;
        auto twin = makeProbe(originals[i]->name(),
                              originals[i]->period(),
                              originals[i]->shard(), cluster.numServers(),
                              &clock);
        replacements.push_back(twin);
        engine.addActor(asActor(twin));
    }
    const size_t added = 2 + rng() % 3;
    std::vector<std::shared_ptr<FuzzProbe>> newcomers;
    for (size_t i = 0; i < added; ++i) {
        newcomers.push_back(draw("n" + std::to_string(i)));
        engine.addActor(asActor(newcomers.back()));
    }
    engine.run(kTicks - kFirst);

    ASSERT_EQ(engine.actors().size(), count + added);

    // Current roster, in post-run schedule order; rank = vector index.
    std::vector<FuzzProbe *> current;
    for (const auto &a : engine.actors()) {
        auto *fa = dynamic_cast<FuzzProbe *>(a.get());
        ASSERT_NE(fa, nullptr);
        current.push_back(fa);
    }

    // Replaced instances received nothing after the swap.
    for (const auto &r : replacements) {
        for (const auto &orig : originals) {
            if (orig->name() != r->name() ||
                orig.get() == r.get())
                continue;
            EXPECT_TRUE(orig->observe_stamps.empty() ||
                        orig->observe_stamps.back().first < kFirst)
                << orig->name();
            EXPECT_TRUE(orig->step_stamps.empty() ||
                        orig->step_stamps.back().first < kFirst)
                << orig->name();
        }
    }

    for (FuzzProbe *a : current) {
        // Every second-run tick observed, in order.
        const size_t window = kTicks - kFirst;
        ASSERT_GE(a->observe_stamps.size(), window) << a->name();
        const size_t base = a->observe_stamps.size() - window;
        for (size_t t = 0; t < window; ++t)
            EXPECT_EQ(a->observe_stamps[base + t].first, kFirst + t)
                << a->name();

        // Steps in the window at exactly the period multiples.
        std::vector<size_t> expected;
        for (size_t t = a->period(); t < kTicks; t += a->period())
            if (t >= kFirst)
                expected.push_back(t);
        std::vector<size_t> got;
        for (const auto &s : a->step_stamps)
            if (s.first >= kFirst)
                got.push_back(s.first);
        EXPECT_EQ(got, expected) << a->name();
    }

    // Ordered pairs still step coarse-first / schedule-stable in the
    // window, across the rebuilt batched segments.
    for (size_t tick = kFirst; tick < kTicks; ++tick) {
        for (size_t i = 0; i < current.size(); ++i) {
            if (tick % current[i]->period() != 0)
                continue;
            for (size_t j = i + 1; j < current.size(); ++j) {
                if (tick % current[j]->period() != 0 ||
                    !ordered(*current[i], *current[j]))
                    continue;
                EXPECT_LT(stampAt(current[i]->step_stamps, tick),
                          stampAt(current[j]->step_stamps, tick))
                    << current[i]->name() << " must step before "
                    << current[j]->name() << " at tick " << tick;
            }
        }
    }
}

TEST(EngineFuzz, ReplaceAndAddAcrossRunsKeepBatchedDispatchInvariants)
{
    for (uint32_t seed : {3u, 21u, 777u, 4242u})
        fuzzReplaceOnce(seed);
}

} // namespace
