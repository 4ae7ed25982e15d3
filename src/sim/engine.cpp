#include "sim/engine.h"

#include <algorithm>

#include "obs/profiler.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace nps {
namespace sim {

Engine::Engine(Cluster &cluster, MetricsCollector &metrics)
    : cluster_(cluster), metrics_(metrics),
      threads_(util::ThreadPool::hardwareThreads())
{
}

Engine::~Engine() = default;

void
Engine::addActor(std::shared_ptr<Actor> actor)
{
    if (!actor)
        util::fatal("Engine::addActor: null actor");
    if (actor->period() == 0)
        util::fatal("Engine::addActor: actor %s has zero period",
                    actor->name().c_str());
    // Re-registering a name (replacing a controller instance after a
    // fault-driven restart) swaps the actor into the original slot
    // instead of appending. The slot, not the registration time, is what
    // the stable coarse-first sort uses to break period ties, so the
    // replacement steps exactly where its predecessor did and the
    // schedule stays deterministic. The name index keeps both paths
    // O(1); preparePlan rebuilds it after the sort moves slots.
    auto it = slot_of_.find(actor->name());
    if (it != slot_of_.end()) {
        actors_[it->second] = std::move(actor);
        plan_dirty_ = true;
        return;
    }
    slot_of_.emplace(actor->name(), actors_.size());
    actors_.push_back(std::move(actor));
    plan_dirty_ = true;
}

void
Engine::setThreads(unsigned threads)
{
    if (threads > util::kMaxThreads)
        util::fatal("Engine::setThreads: %u threads requested, at most %u "
                    "allowed", threads, util::kMaxThreads);
    unsigned resolved =
        threads == 0 ? util::ThreadPool::hardwareThreads() : threads;
    if (resolved == threads_)
        return;
    threads_ = resolved;
    pool_.reset();
    plan_dirty_ = true;
}

void
Engine::preparePlan()
{
    if (!plan_dirty_)
        return;

    // Coarse loops first so inner loops react to fresh outer references
    // within the same tick. Sorting is deferred to here so that actor
    // registration stays O(1) per insert.
    std::stable_sort(actors_.begin(), actors_.end(),
                     [](const auto &a, const auto &b) {
                         return a->period() > b->period();
                     });
    for (size_t i = 0; i < actors_.size(); ++i)
        slot_of_[actors_[i]->name()] = i;

    if (threads_ > 1 && !pool_)
        pool_ = std::make_unique<util::ThreadPool>(threads_);

    // Dispatch caches in schedule order. period() is a constant of the
    // actor (the paper's T_* control intervals), so hoisting the virtual
    // call out of the tick loop is behaviour-preserving.
    const size_t n = actors_.size();
    raw_.resize(n);
    kernel_.resize(n);
    period_.resize(n);
    prof_row_.resize(n);
    size_t rows = 0;
    for (size_t i = 0; i < n; ++i) {
        raw_[i] = actors_[i].get();
        kernel_[i] = dynamic_cast<Kernel *>(raw_[i]);
        period_[i] = actors_[i]->period();
        prof_row_[i] = rows;
        rows += kernel_[i] ? threads_ : 1;
    }

    // Cut the schedule into stages: each global actor alone, each run
    // of consecutive kernels together.
    plan_.clear();
    for (size_t i = 0; i < n; ++i) {
        if (!kernel_[i] || plan_.empty() || !plan_.back().kernels) {
            Stage st;
            st.first = i;
            st.kernels = kernel_[i] != nullptr;
            plan_.push_back(std::move(st));
        }
        Stage &st = plan_.back();
        st.last = i + 1;
        if (!st.kernels)
            continue;
        if (std::find(st.fire.begin(), st.fire.end(), period_[i]) ==
            st.fire.end())
            st.fire.push_back(period_[i]);
    }
    plan_dirty_ = false;
}

void
Engine::runKernels(const Stage &st, size_t tick, bool observe)
{
    if (!observe) {
        // Skipping the step pass when no member period divides the tick
        // is exact: every block would have fired zero steps.
        bool fires = false;
        for (unsigned p : st.fire)
            fires = fires || tick % p == 0;
        if (!fires)
            return;
    }
    // Static contiguous server blocks, one per worker — the blocks
    // Cluster::evaluateTick uses. Slots beyond the server count land in
    // the last block.
    const size_t shards = pool_ ? pool_->size() : 1;
    const size_t servers = cluster_.numServers();
    const size_t block = std::max<size_t>(1, (servers + shards - 1) / shards);
    obs::EngineProfiler *prof = profiler_;
    auto body = [&](size_t s) {
        for (size_t k = st.first; k < st.last; ++k) {
            if (!observe && tick % period_[k] != 0)
                continue;
            Kernel &kn = *kernel_[k];
            const size_t slots = kn.slots();
            const size_t lo = std::min(s * block, slots);
            const size_t hi =
                s + 1 == shards ? slots : std::min(lo + block, slots);
            if (lo >= hi)
                continue;
            const auto t0 = prof ? obs::EngineProfiler::Clock::now()
                                 : obs::EngineProfiler::Clock::time_point();
            if (observe)
                kn.observeRange(tick, lo, hi);
            else
                kn.stepRange(tick, lo, hi);
            if (!prof)
                continue;
            const size_t row = prof_row_[k] + s;
            const auto ns = obs::EngineProfiler::sinceNs(t0);
            if (observe)
                prof->addObserve(row, ns, static_cast<unsigned>(s));
            else
                prof->addStep(row, ns, static_cast<unsigned>(s));
        }
    };
    if (pool_)
        pool_->parallelFor(shards, body);
    else
        body(0);
}

void
Engine::runGlobal(size_t a, size_t tick, bool observe)
{
    if (!profiler_) {
        if (observe)
            raw_[a]->observe(tick);
        else
            raw_[a]->step(tick);
        return;
    }
    auto t0 = obs::EngineProfiler::Clock::now();
    if (observe) {
        raw_[a]->observe(tick);
        profiler_->addObserve(prof_row_[a],
                              obs::EngineProfiler::sinceNs(t0), 0);
    } else {
        raw_[a]->step(tick);
        profiler_->addStep(prof_row_[a], obs::EngineProfiler::sinceNs(t0),
                           0);
    }
}

void
Engine::setProfiler(obs::EngineProfiler *profiler)
{
    profiler_ = profiler;
}

void
Engine::announceSchedule()
{
    if (!profiler_)
        return;
    // One row per global actor, one per kernel x shard.
    std::vector<obs::EngineProfiler::ActorInfo> infos;
    for (size_t i = 0; i < actors_.size(); ++i) {
        const long rows = kernel_[i] ? static_cast<long>(threads_) : 1;
        for (long s = 0; s < rows; ++s) {
            obs::EngineProfiler::ActorInfo info;
            info.name = actors_[i]->name();
            info.shard_key = kernel_[i] ? s : -1;
            infos.push_back(std::move(info));
        }
    }
    profiler_->setSchedule(std::move(infos), threads_);
}

size_t
Engine::run(size_t ticks)
{
    using Clock = obs::EngineProfiler::Clock;
    preparePlan();
    announceSchedule();
    obs::EngineProfiler *prof = profiler_;
    const Clock::time_point run_start = prof ? Clock::now()
                                             : Clock::time_point();
    size_t done = 0;
    for (; done < ticks; ++done) {
        const size_t tick = now_;
        if (source_ && !source_->beginTick(tick))
            break;
        for (const Stage &st : plan_) {
            if (st.kernels)
                runKernels(st, tick, true);
            else
                runGlobal(st.first, tick, true);
        }
        if (tick > 0) {
            for (const Stage &st : plan_) {
                if (st.kernels)
                    runKernels(st, tick, false);
                else if (tick % period_[st.first] == 0)
                    runGlobal(st.first, tick, false);
            }
        }
        Clock::time_point t0 = prof ? Clock::now() : Clock::time_point();
        cluster_.evaluateTick(tick, pool_.get());
        if (prof) {
            prof->addPhase(obs::EnginePhase::Evaluate,
                           obs::EngineProfiler::sinceNs(t0));
            t0 = Clock::now();
        }
        metrics_.record(cluster_, tick);
        if (prof)
            prof->addPhase(obs::EnginePhase::Record,
                           obs::EngineProfiler::sinceNs(t0));
        if (observer_)
            observer_->endTick(tick);
        ++now_;
    }
    if (prof)
        prof->addRun(done, obs::EngineProfiler::sinceNs(run_start));
    return done;
}

void
Engine::saveState(ckpt::SectionWriter &w) const
{
    w.putU64(now_);
    std::vector<std::string> names;
    names.reserve(actors_.size());
    for (const auto &a : actors_)
        names.push_back(a->name());
    // Sorted: actors_ order depends on whether run() has executed yet.
    std::sort(names.begin(), names.end());
    w.putU64(names.size());
    for (const auto &n : names)
        w.putString(n);
}

void
Engine::loadState(ckpt::SectionReader &r)
{
    now_ = static_cast<size_t>(r.getU64());
    auto count = static_cast<size_t>(r.getU64());
    std::vector<std::string> expect;
    expect.reserve(count);
    for (size_t i = 0; i < count; ++i)
        expect.push_back(r.getString());
    std::vector<std::string> names;
    names.reserve(actors_.size());
    for (const auto &a : actors_)
        names.push_back(a->name());
    std::sort(names.begin(), names.end());
    if (names != expect) {
        for (const auto &n : expect) {
            if (std::find(names.begin(), names.end(), n) == names.end())
                util::fatal("engine restore: snapshot actor '%s' missing "
                            "from rebuilt roster — config/topology "
                            "mismatch",
                            n.c_str());
        }
        for (const auto &n : names) {
            if (std::find(expect.begin(), expect.end(), n) == expect.end())
                util::fatal("engine restore: rebuilt actor '%s' not in "
                            "snapshot — config/topology mismatch",
                            n.c_str());
        }
        util::fatal("engine restore: actor roster mismatch");
    }
}

} // namespace sim
} // namespace nps
