/**
 * @file
 * The discrete-time simulation engine.
 *
 * Time advances in unit ticks. Every tick:
 *   1. each registered actor observes the previous tick's measurements
 *      (for controllers that average over long epochs);
 *   2. actors whose control interval divides the tick take a control step
 *      (coarse time constants first, so inner loops see the fresh
 *      references their outer loops just set);
 *   3. the cluster serves demand at the resulting actuator settings;
 *   4. metrics are recorded.
 *
 * Controllers never act at tick 0: the first tick is a pure measurement
 * tick, so every loop starts from a real observation.
 *
 * Parallel execution (docs/PARALLELISM.md): per-server control levels
 * (EC, SM, electrical capper, memory manager) are *range kernels*
 * (sim::Kernel) whose slot i belongs to server i; everything else is a
 * *global* actor. The engine fans consecutive kernels across a worker
 * pool over the static, contiguous server blocks the cluster
 * evaluation uses, with a barrier before
 * every global actor and before metrics recording. Results are
 * bit-identical to the serial engine for any thread count.
 */

#ifndef NPS_SIM_ENGINE_H
#define NPS_SIM_ENGINE_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/cluster.h"
#include "sim/metrics.h"

namespace nps {
namespace obs {
class EngineProfiler;
} // namespace obs

namespace util {
class ThreadPool;
} // namespace util

namespace sim {

/**
 * A scheduled participant of the simulation: a global controller (EM,
 * GM, VMC, cooling manager, ...), a recorder, or any other periodic
 * agent. Global actors always run on the engine thread.
 */
class Actor
{
  public:
    virtual ~Actor() = default;

    /** Diagnostic name. */
    virtual const std::string &name() const = 0;

    /** Control interval in ticks (the paper's T_ec, T_sm, ...). */
    virtual unsigned period() const = 0;

    /**
     * Called every tick (before any control steps) so long-epoch
     * controllers can accumulate averaged observations. Default: no-op.
     */
    virtual void observe(size_t tick) { (void)tick; }

    /** One control step at @p tick. */
    virtual void step(size_t tick) = 0;
};

/**
 * A per-server control level stepped as one range kernel: slot i holds
 * the level's state for server i, and observeRange()/stepRange() walk a
 * contiguous slot range [lo, hi).
 *
 * Range-kernel contract: for a slot in [lo, hi) both calls may touch
 * only that slot's own state and server i — the sim::Server itself, and
 * slot i of a kernel nested on the same server (the SM drives slot i of
 * the EC level through setReference()) — never another server, an
 * enclosure or cluster aggregate, and never a shared RNG. The engine
 * then runs disjoint ranges of the same kernel on different workers,
 * over the contiguous blocks Cluster::evaluateTick uses, and runs
 * consecutive kernels of the schedule inside one fork/join, kernel
 * after kernel per block, so for each server every kernel steps in
 * schedule order. A kernel is registered with Engine::addActor like any
 * actor; its observe()/step() run the whole slot range serially.
 */
class Kernel : public Actor
{
  public:
    /** Number of slots (servers) the level holds. */
    virtual size_t slots() const = 0;

    /** Observe tick @p tick for slots [lo, hi). Default: no-op. */
    virtual void
    observeRange(size_t tick, size_t lo, size_t hi)
    {
        (void)tick;
        (void)lo;
        (void)hi;
    }

    /** One control step at @p tick for slots [lo, hi). */
    virtual void stepRange(size_t tick, size_t lo, size_t hi) = 0;

    void observe(size_t tick) final { observeRange(tick, 0, slots()); }
    void step(size_t tick) final { stepRange(tick, 0, slots()); }
};

/**
 * Per-tick gate for externally paced simulation (the online engine,
 * src/stream/): when attached, the engine calls beginTick() at the top
 * of every tick — before any actor observes — so a telemetry feed can
 * stage the tick's externally supplied VM demand (or end the run).
 */
class TickSource
{
  public:
    virtual ~TickSource() = default;

    /**
     * Prepare tick @p tick. Return false to stop the run *before* the
     * tick is simulated (end of stream): Engine::run() returns early
     * and now() still names this tick as the next one to simulate.
     * Called on the engine thread at every thread count, so staging is
     * naturally ordered before all actor/cluster work of the tick.
     */
    virtual bool beginTick(size_t tick) = 0;
};

/**
 * Per-tick completion hook for observation-only consumers (the live
 * observability plane, src/obs/live/): when attached, the engine calls
 * endTick() after the tick is fully simulated and recorded — all actor
 * steps, the cluster evaluation and the metrics record have happened —
 * and before the clock advances. Always invoked on the engine thread,
 * at every thread count, so the hook sees a quiescent simulation.
 * Implementations must not mutate simulation state: results are
 * bit-identical with or without an observer.
 */
class TickObserver
{
  public:
    virtual ~TickObserver() = default;

    /** Tick @p tick has been fully simulated and recorded. */
    virtual void endTick(size_t tick) = 0;
};

/**
 * Drives a Cluster and a set of Actors through simulated time.
 */
class Engine
{
  public:
    /**
     * @param cluster The managed system; must outlive the engine.
     * @param metrics Collector fed once per tick; must outlive the engine.
     */
    Engine(Cluster &cluster, MetricsCollector &metrics);

    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Register an actor. Actors are stepped within a tick in descending
     * period order (stable for ties), regardless of insertion order.
     * Registration is allowed between run() calls: the schedule is
     * (re)built lazily at the next run(), so a later-added actor joins
     * the same coarse-first ordering from that run on. An actor that is
     * a sim::Kernel is dispatched over server ranges (see Kernel).
     *
     * Registering an actor whose name() matches an existing registration
     * *replaces* it in place (e.g. a controller instance rebuilt after a
     * fault-driven restart): the replacement inherits its predecessor's
     * slot, and with it the predecessor's position among equal-period
     * actors in the rebuilt schedule. See actors() for the resulting
     * ordering contract.
     */
    void addActor(std::shared_ptr<Actor> actor);

    /**
     * @return registered actors: the per-level kernels and the global
     * actors.
     *
     * Ordering contract (the single authoritative statement — the
     * scheduling, batching, and replacement logic all key off it):
     *
     *  - Before the first run(), actors are in *insertion order* —
     *    addActor appends, and a name-matched replacement reuses its
     *    predecessor's slot instead of appending.
     *  - run() lazily rebuilds the schedule, stable-sorting the vector
     *    into *schedule order*: descending period, ties broken by the
     *    pre-sort slot order. From then on actors() returns schedule
     *    order.
     *  - A subsequent addActor() mutates the (now schedule-ordered)
     *    vector — appending a new name, or replacing in place — and the
     *    next run() re-sorts. Because the sort is stable and a
     *    replacement keeps its slot, a replaced actor steps exactly
     *    where its predecessor did among equal-period peers.
     *
     * Callers that need a state-independent order must sort by name
     * (as the checkpoint roster does).
     */
    const std::vector<std::shared_ptr<Actor>> &actors() const
    {
        return actors_;
    }

    /**
     * Set the worker-thread count for subsequent run() calls: 0 picks
     * the hardware concurrency, 1 runs the legacy single-threaded path.
     * Any value yields bit-identical simulation results.
     */
    void setThreads(unsigned threads);

    /** The resolved worker-thread count currently configured. */
    unsigned threads() const { return threads_; }

    /**
     * Attach (or detach, with nullptr) a wall-clock profiler. When
     * attached, every global actor's observe()/step() call, every
     * kernel call per shard and the engine-level phases are timed; the profiler must outlive the engine or be
     * detached first. Timing is observation-only: simulation results
     * are bit-identical with or without a profiler.
     */
    void setProfiler(obs::EngineProfiler *profiler);

    /**
     * Attach (or detach, with nullptr) a per-tick source gate. The
     * source must outlive the engine or be detached first. With no
     * source attached the tick loops are exactly the offline engine —
     * the online path adds one pointer test per tick.
     */
    void setTickSource(TickSource *source) { source_ = source; }

    /**
     * Attach (or detach, with nullptr) a per-tick completion observer.
     * The observer must outlive the engine or be detached first. With
     * no observer attached the tick loops are exactly the plain engine
     * — the hook adds one pointer test per tick.
     */
    void setTickObserver(TickObserver *observer) { observer_ = observer; }

    /**
     * Advance the simulation by up to @p ticks ticks.
     *
     * @return the number of ticks actually simulated: @p ticks, unless
     * an attached TickSource ended the run early.
     */
    size_t run(size_t ticks);

    /** @return the next tick to be simulated. */
    size_t now() const { return now_; }

    /**
     * Serialize the clock and the actor roster (checkpointing). The
     * roster (kernels and global actors) is stored as a sorted name list and used purely as a
     * consistency check on restore — actors serialize their own state.
     */
    void saveState(ckpt::SectionWriter &w) const;

    /**
     * Restore the clock; fatal when the rebuilt actor roster does not
     * match the snapshot's (config/topology mismatch).
     */
    void loadState(ckpt::SectionReader &r);

  private:
    /**
     * One schedule stage: a single global actor, or a maximal run of
     * consecutive kernels [first, last) in schedule order, dispatched
     * as one fork/join over the server blocks. `fire` (the distinct
     * kernel periods) lets the step pass skip ticks where no member
     * fires.
     */
    struct Stage
    {
        size_t first = 0;
        size_t last = 0;
        bool kernels = false;
        std::vector<unsigned> fire;
    };

    void preparePlan();
    void announceSchedule();
    /**
     * Run the observe (@p observe) or step pass of kernel stage @p st
     * over every server block at @p tick, in one fork/join.
     */
    void runKernels(const Stage &st, size_t tick, bool observe);
    /** Observe or step global actor @p a (timed when profiling). */
    void runGlobal(size_t a, size_t tick, bool observe);

    Cluster &cluster_;
    MetricsCollector &metrics_;
    std::vector<std::shared_ptr<Actor>> actors_;
    // name -> current slot in actors_, so the replace-by-name path of
    // addActor stays O(1). Rebuilt after the schedule sort moves slots.
    std::unordered_map<std::string, size_t> slot_of_;
    size_t now_ = 0;

    unsigned threads_;
    std::unique_ptr<util::ThreadPool> pool_;
    std::vector<Stage> plan_;
    // Dispatch caches rebuilt with the plan, indexed like actors_: raw
    // pointers, the kernel view (null for a global actor), periods, and
    // each entry's first profiler row.
    // Valid only while plan_dirty_ is false (addActor and setThreads
    // invalidate).
    std::vector<Actor *> raw_;
    std::vector<Kernel *> kernel_;
    std::vector<unsigned> period_;
    std::vector<size_t> prof_row_;
    bool plan_dirty_ = true;
    obs::EngineProfiler *profiler_ = nullptr;
    TickSource *source_ = nullptr;
    TickObserver *observer_ = nullptr;
};

} // namespace sim
} // namespace nps

#endif // NPS_SIM_ENGINE_H
