/**
 * @file
 * EngineProfiler: per-level, per-phase wall-clock timing for the tick
 * engine, with shard/thread attribution.
 *
 * The engine (when a profiler is attached) times every global actor's
 * observe()/step() call, every per-server kernel call on each shard
 * (one row per kernel x shard), and the two engine-level phases
 * (cluster evaluation, metrics recording). Row accumulators are
 * pre-sized at plan time; within a tick each row is touched by exactly
 * one worker, and the barriers between stages order the accesses across
 * ticks, so accumulation needs no locks.
 *
 * Profiling measures wall-clock only — it never feeds back into the
 * simulation arithmetic, so results stay bit-identical with or without
 * it. The *timings* naturally vary run to run; only the structural
 * fields (rows, shards, call counts) are deterministic.
 */

#ifndef NPS_OBS_PROFILER_H
#define NPS_OBS_PROFILER_H

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace nps {
namespace obs {

/** Engine-level phases timed as a whole, not per actor. */
enum class EnginePhase
{
    Evaluate, //!< Cluster::evaluateTick
    Record,   //!< MetricsCollector::record
};

class EngineProfiler
{
  public:
    /** What the engine tells us about one row: a global actor or one
     * shard of a per-server kernel. */
    struct ActorInfo
    {
        std::string name;
        long shard_key = -1; //!< kernel shard index; -1 for global actors
    };

    /** Per-row accumulated timings. */
    struct ActorStats
    {
        ActorInfo info;
        std::uint64_t observe_calls = 0;
        std::uint64_t observe_ns = 0;
        std::uint64_t step_calls = 0;
        std::uint64_t step_ns = 0;
        unsigned slot = 0; //!< worker slot that last ran the row
    };

    using Clock = std::chrono::steady_clock;

    /** @return nanoseconds elapsed since @p start. */
    static std::uint64_t sinceNs(Clock::time_point start)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
    }

    /**
     * (Re)announce the schedule rows. Called by the engine at every
     * run(); accumulated timings survive as long as the row list is
     * unchanged, otherwise they reset.
     */
    void setSchedule(std::vector<ActorInfo> actors, unsigned threads);

    /** Record one observe call of row @p idx on worker @p slot. */
    void addObserve(size_t idx, std::uint64_t ns, unsigned slot)
    {
        ActorStats &s = actors_[idx];
        ++s.observe_calls;
        s.observe_ns += ns;
        s.slot = slot;
    }

    /** Record one step call of row @p idx on worker @p slot. */
    void addStep(size_t idx, std::uint64_t ns, unsigned slot)
    {
        ActorStats &s = actors_[idx];
        ++s.step_calls;
        s.step_ns += ns;
        s.slot = slot;
    }

    /** Accumulate one engine-level phase slice. */
    void addPhase(EnginePhase phase, std::uint64_t ns);

    /** Accumulate whole-run wall time and the ticks it covered. */
    void addRun(size_t ticks, std::uint64_t wall_ns)
    {
        ticks_ += ticks;
        wall_ns_ += wall_ns;
    }

    size_t ticks() const { return ticks_; }
    std::uint64_t wallNs() const { return wall_ns_; }
    unsigned threads() const { return threads_; }
    const std::vector<ActorStats> &actorStats() const { return actors_; }
    std::uint64_t phaseNs(EnginePhase phase) const;

    /**
     * Human-readable summary: rows sorted by total time
     * (descending, name tiebreak), engine phases, run totals.
     */
    void writeTable(std::ostream &out) const;

    /** The same data as JSON (rows in schedule order). */
    void writeJson(std::ostream &out) const;

  private:
    std::vector<ActorStats> actors_;
    std::uint64_t evaluate_ns_ = 0;
    std::uint64_t record_ns_ = 0;
    size_t ticks_ = 0;
    std::uint64_t wall_ns_ = 0;
    unsigned threads_ = 1;
};

} // namespace obs
} // namespace nps

#endif // NPS_OBS_PROFILER_H
