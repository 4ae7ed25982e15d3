/**
 * @file
 * npsbench: the in-process half of the repository benchmark
 * (perfbench/WORKLOADS.md). perfbench/run.py builds and drives it; it
 * is not meant to be run by hand, but can be:
 *
 *   npsbench --workload paper-180|fleet-10k|serve-180 --seed N
 *            --seconds S --trace 0|1 --out FILE.json
 *
 * It repeats one workload until S seconds of wall time have passed and
 * writes every repetition's raw figures (set-up and tick-loop seconds,
 * the per-tick latencies of untraced repetitions, the simulated-result
 * digest) to FILE.json. With
 * --trace 1 it alternates untraced repetitions with traced ones, which
 * record spans around the calls into each layer (trace generation,
 * Coordinator build, each tick, feed staging, publishing) through the
 * engine's public TickSource/TickObserver seams, and writes the spans
 * to FILE.json's sibling spans CSV. Statistics, the correctness gate
 * and the metric report are run.py's job.
 *
 * The dist-lockstep probe drives the npsim binary and lives in run.py
 * entirely.
 */

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/scenarios.h"
#include "model/machine.h"
#include "obs/live/exporter.h"
#include "obs/live/publisher.h"
#include "sim/fleetgen.h"
#include "stream/feed.h"
#include "stream/frame.h"
#include "stream/net.h"
#include "stream/stream_source.h"
#include "trace/workload.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace {

using namespace nps;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 20080301;
constexpr size_t kPaperTicks = 2880;
constexpr unsigned kFleetServers = 10000;
/** Twenty GM periods (every level but the disabled VMC fires), and
 * enough ticks for a per-repetition p99 with ten samples beyond it. */
constexpr size_t kFleetTicks = 1000;
/**
 * serve-180 open-loop rate (ticks per second): about a quarter of the
 * closed-loop capacity measured on a 4-CPU x86-64 host. Fixed, not
 * derived from a measurement, so every commit is offered the same load.
 */
constexpr double kOpenLoopRate = 6000.0;
/**
 * Every run makes at least this many repetitions, and peak RSS is read
 * right after them, so it does not grow with the number of repetitions
 * a fast host fits into --seconds.
 */
constexpr int kMinReps = 3;
/** Traced repetitions of each kind: enough spans for stable class
 * medians, few enough that writing and reading them stays cheap. */
constexpr int kMaxTraced = 8;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsBetween(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) / 1e9;
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Median of @p v (run.py does the reported statistics; this only
 * condenses the layer probes timed here). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The coarsest control level that fires at @p tick. */
const char *
tickClass(size_t tick, bool has_vmc)
{
    if (has_vmc && tick % 500 == 0)
        return "vmc";
    if (tick % 50 == 0)
        return "gm";
    if (tick % 25 == 0)
        return "em";
    if (tick % 5 == 0)
        return "sm";
    return "base";
}

/** In-memory span log, written out once the run ends. */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        int64_t start;
        int64_t end;
        long parent; //!< index into spans, -1 for a root
        long tick;   //!< -1 outside the tick loop
        const char *cls;
        int rep;
        const char *phase;
    };

    long open(const char *name, long parent, long tick = -1,
              const char *cls = "")
    {
        spans_.push_back({name, nowNs(), 0, parent, tick, cls, rep_,
                          phase_});
        return static_cast<long>(spans_.size()) - 1;
    }

    void close(long id) { spans_[static_cast<size_t>(id)].end = nowNs(); }

    void setRep(int rep, const char *phase)
    {
        rep_ = rep;
        phase_ = phase;
    }

    void reserve(size_t n) { spans_.reserve(spans_.size() + n); }

    void writeCsv(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            util::fatal("npsbench: cannot write '%s'", path.c_str());
        out << "id,parent,name,rep,phase,tick,class,start_ns,end_ns\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << i << ',' << s.parent << ',' << s.name << ',' << s.rep
                << ',' << s.phase << ',' << s.tick << ',' << s.cls << ','
                << s.start << ',' << s.end << '\n';
        }
    }

  private:
    std::vector<Span> spans_;
    int rep_ = 0;
    const char *phase_ = "";
};

/**
 * Wraps the engine's TickSource/TickObserver seams. Untraced it only
 * stamps each tick's begin and end (two clock reads per tick, the
 * client-side latency measurement); traced it also records a tick span
 * per tick with the wrapped feed and publisher as child spans.
 */
class TickProbe : public sim::TickSource, public sim::TickObserver
{
  public:
    TickProbe(size_t ticks, bool has_vmc, SpanLog *spans, long run_span,
              sim::TickSource *source, sim::TickObserver *observer,
              const stream::TelemetrySource *telemetry)
        : begin_(ticks, 0), end_(ticks, 0), has_vmc_(has_vmc),
          spans_(spans), run_span_(run_span), source_(source),
          observer_(observer), telemetry_(telemetry)
    {
        if (spans_)
            spans_->reserve(ticks * (1 + (source ? 1 : 0) +
                                     (observer ? 1 : 0)));
    }

    // The engine holds this object's address while it is attached.
    TickProbe(const TickProbe &) = delete;
    TickProbe &operator=(const TickProbe &) = delete;

    bool beginTick(size_t tick) override
    {
        if (tick < begin_.size())
            begin_[tick] = nowNs();
        if (spans_)
            tick_span_ = spans_->open("tick", run_span_,
                                      static_cast<long>(tick),
                                      tickClass(tick, has_vmc_));
        if (!source_)
            return true;
        long stage = spans_ ? spans_->open("stream.stage", tick_span_,
                                           static_cast<long>(tick))
                            : -1;
        bool more = source_->beginTick(tick);
        if (spans_)
            spans_->close(stage);
        if (telemetry_)
            backlog_max_ = std::max(backlog_max_, telemetry_->backlog());
        return more;
    }

    void endTick(size_t tick) override
    {
        if (observer_) {
            long pub = spans_ ? spans_->open("obs.publish", tick_span_,
                                             static_cast<long>(tick))
                              : -1;
            observer_->endTick(tick);
            if (spans_)
                spans_->close(pub);
        }
        if (spans_)
            spans_->close(tick_span_);
        if (tick < end_.size())
            end_[tick] = nowNs();
    }

    const std::vector<int64_t> &begins() const { return begin_; }
    const std::vector<int64_t> &ends() const { return end_; }
    size_t backlogMax() const { return backlog_max_; }

  private:
    std::vector<int64_t> begin_;
    std::vector<int64_t> end_;
    bool has_vmc_;
    SpanLog *spans_;
    long run_span_;
    long tick_span_ = -1;
    sim::TickSource *source_;
    sim::TickObserver *observer_;
    const stream::TelemetrySource *telemetry_;
    size_t backlog_max_ = 0;
};

/** FNV-1a over the bytes of every simulated statistic of a run. */
class Digest
{
  public:
    void add(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }
    void addU(uint64_t v) { add(&v, sizeof v); }
    void addD(double v) { add(&v, sizeof v); }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/**
 * The digest of the MetricsSummary (energy, mean/peak power, per-level
 * violations, perf loss, DegradeStats) plus the VMC's epoch, migration,
 * adoption and infeasible counts.
 */
std::string
summaryDigest(const core::Coordinator &coord)
{
    sim::MetricsSummary m = coord.summary();
    Digest d;
    d.addU(m.ticks);
    for (double v : {m.energy, m.mean_power, m.peak_power, m.sm_violation,
                     m.em_violation, m.gm_violation, m.perf_loss})
        d.addD(v);
    const fault::DegradeStats &g = m.degrade;
    for (unsigned long v :
         {g.outage_ticks, g.outage_steps, g.restarts, g.lease_expiries,
          g.lease_fallback_steps, g.ec_fallback_steps, g.dropped_budgets,
          g.stale_budgets, g.stuck_actuations, g.noisy_reads,
          g.netem_delayed, g.netem_late_deliveries, g.netem_expired,
          g.netem_partition_drops, g.netem_reorder_drops})
        d.addU(v);
    if (const controllers::VmController *vmc = coord.vmc()) {
        const auto &s = vmc->stats();
        for (unsigned long v :
             {s.epochs, s.migrations, s.adoptions, s.infeasible})
            d.addU(v);
    }
    return d.hex();
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** One repetition (one phase of one, for serve-180). */
struct Rep
{
    const char *mode = "untraced"; //!< untraced | traced
    const char *phase = "batch";   //!< batch | closed | open | serial
    unsigned threads = 0;
    double setup_s = 0.0;
    double run_s = 0.0;
    size_t ticks = 0;
    std::string digest;
    std::string check; //!< empty when the repetition's own checks pass
    uint64_t samples = 0; //!< telemetry samples consumed
};

/** Everything one invocation measures. */
struct Results
{
    std::vector<Rep> reps;
    /** beginTick->endTick latency of every untraced batch or closed-loop
     * repetition, one row each. */
    std::vector<std::vector<double>> tick_us;
    /** Scheduled-send->endTick latency of every untraced open-loop
     * repetition, one row each. */
    std::vector<std::vector<double>> open_us;
    std::vector<double> gen_lag_us; //!< open-loop feeder lateness
    std::vector<double> export_us;  //!< MetricsRegistry::writeProm times
    std::map<std::string, double> layers; //!< layer probes, by metric
    std::string expected_digest; //!< serial batch reference, "" if pinned
    double peak_rss_mb = 0.0;    //!< after the first kMinReps repetitions
    unsigned threads = 0;        //!< resolved engine threads
    size_t actors = 0;
    size_t servers = 0;
};

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

double
timeEmptyForkJoinUs(unsigned threads)
{
    util::ThreadPool pool(threads);
    std::vector<double> us;
    const std::function<void(size_t)> noop = [](size_t) {};
    for (int i = 0; i < 2000; ++i) {
        int64_t a = nowNs();
        pool.parallelFor(pool.size(), noop);
        us.push_back(static_cast<double>(nowNs() - a) / 1e3);
    }
    return median(us);
}

/** Cluster::evaluateTick on a plant-only cluster (no controllers). */
double
timeEvaluateNsPerServer(const sim::Topology &topo,
                        const std::vector<trace::UtilizationTrace> &traces,
                        const core::CoordinationConfig &cfg,
                        unsigned threads, size_t ticks)
{
    core::CoordinationConfig r = cfg.resolved();
    sim::Cluster cluster(topo, model::bladeA(), traces, r.budgets,
                         r.alpha_v, r.alpha_m);
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<util::ThreadPool>(threads);
    std::vector<double> ns;
    for (size_t t = 0; t < ticks; ++t) {
        int64_t a = nowNs();
        cluster.evaluateTick(t, pool.get());
        ns.push_back(static_cast<double>(nowNs() - a));
    }
    return median(ns) / static_cast<double>(cluster.numServers());
}

/** Each tick's beginTick->endTick latency (us) of one repetition. */
std::vector<double>
tickLatencyUs(const TickProbe &probe, size_t ticks)
{
    std::vector<double> us;
    us.reserve(ticks);
    for (size_t t = 0; t < ticks; ++t)
        us.push_back(
            static_cast<double>(probe.ends()[t] - probe.begins()[t]) / 1e3);
    return us;
}

/** The CPUs this process may run on, in ascending order. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/**
 * Pins the calling thread, and the threads it starts, to @p width CPUs
 * of @p cpus starting at the repetition's turn. Repetition n runs on
 * cpus[n], cpus[n + 1], ... (mod the count), so every run samples every
 * CPU of a shared host equally instead of staying wherever the scheduler
 * first put it; a CPU whose host core is loaded by a neighbour then
 * slows a quarter of the repetitions (on 4 CPUs), not a whole run.
 */
void
pinForRep(const std::vector<int> &cpus, int rep_no, size_t width)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t i = 0; i < std::min(width, cpus.size()); ++i)
        CPU_SET(cpus[(static_cast<size_t>(rep_no) + i) % cpus.size()],
                &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        util::fatal("npsbench: sched_setaffinity failed");
}

// ---------------------------------------------------------------------
// paper-180 and fleet-10k: batch runs through core::Coordinator.

struct BatchSetup
{
    sim::Topology topo;
    std::vector<trace::UtilizationTrace> traces;
    std::unique_ptr<core::Coordinator> coord;
};

core::CoordinationConfig
paperConfig(unsigned threads)
{
    core::CoordinationConfig cfg = core::coordinatedConfig();
    cfg.budgets = sim::BudgetConfig::paper201510();
    cfg.threads = threads;
    return cfg;
}

core::CoordinationConfig
fleetCfg(unsigned threads)
{
    core::CoordinationConfig cfg = core::fleetConfig();
    cfg.threads = threads;
    return cfg;
}

/** Trace generation + Coordinator build, spans optional. */
BatchSetup
buildPaper(uint64_t seed, const core::CoordinationConfig &cfg,
           SpanLog *spans, bool keep_traces)
{
    BatchSetup s;
    long gen = spans ? spans->open("trace.gen", -1) : -1;
    trace::GeneratorConfig g;
    g.seed = seed;
    trace::WorkloadLibrary library(g);
    s.traces = library.mix(trace::Mix::All180);
    if (spans)
        spans->close(gen);
    s.topo = core::ExperimentRunner::topologyFor(trace::Mix::All180);
    long build = spans ? spans->open("core.build", -1) : -1;
    s.coord = std::make_unique<core::Coordinator>(cfg, s.topo,
                                                  model::bladeA(), s.traces);
    if (spans)
        spans->close(build);
    if (!keep_traces)
        s.traces.clear();
    return s;
}

BatchSetup
buildFleet(uint64_t seed, const core::CoordinationConfig &cfg,
           SpanLog *spans, bool keep_traces)
{
    BatchSetup s;
    sim::FleetSpec spec;
    spec.servers = kFleetServers;
    spec.seed = seed;
    long gen = spans ? spans->open("trace.gen", -1) : -1;
    sim::FleetGen fleet(spec);
    {
        util::ThreadPool pool(cfg.threads);
        s.traces = fleet.traces(pool.size() > 1 ? &pool : nullptr);
    }
    s.topo = fleet.topology();
    if (spans)
        spans->close(gen);
    long build = spans ? spans->open("core.build", -1) : -1;
    s.coord = std::make_unique<core::Coordinator>(cfg, s.topo,
                                                  model::bladeA(), s.traces);
    if (spans)
        spans->close(build);
    if (!keep_traces) {
        s.traces.clear();
        s.traces.shrink_to_fit();
    }
    return s;
}

using BuildFn = BatchSetup (*)(uint64_t, const core::CoordinationConfig &,
                               SpanLog *, bool);

Rep
batchRep(BuildFn build, uint64_t seed, const core::CoordinationConfig &cfg,
         size_t ticks, SpanLog *spans, Results &res)
{
    Rep rep;
    int64_t t0 = nowNs();
    BatchSetup s = build(seed, cfg, spans, false);
    long run_span = spans ? spans->open("run", -1) : -1;
    TickProbe probe(ticks, cfg.enable_vmc, spans, run_span, nullptr,
                    nullptr, nullptr);
    s.coord->engine().setTickSource(&probe);
    s.coord->engine().setTickObserver(&probe);
    int64_t t1 = nowNs();
    size_t ran = s.coord->run(ticks);
    int64_t t2 = nowNs();
    if (spans)
        spans->close(run_span);
    s.coord->engine().setTickSource(nullptr);
    s.coord->engine().setTickObserver(nullptr);

    rep.threads = s.coord->engine().threads();
    rep.setup_s = secondsBetween(t0, t1);
    rep.run_s = secondsBetween(t1, t2);
    rep.ticks = ran;
    rep.samples = static_cast<uint64_t>(ran) * s.coord->cluster().numVms();
    rep.digest = summaryDigest(*s.coord);
    if (ran != ticks)
        rep.check = "short run: " + std::to_string(ran) + " of " +
                    std::to_string(ticks) + " ticks";
    res.actors = s.coord->engine().actors().size();
    res.servers = s.coord->cluster().numServers();
    if (!spans)
        res.tick_us.push_back(tickLatencyUs(probe, ran));
    return rep;
}

/** The serial batch digest of the same campaign (non-default seeds). */
std::string
referenceDigest(BuildFn build, uint64_t seed, core::CoordinationConfig cfg,
                size_t ticks)
{
    cfg.threads = 1;
    BatchSetup s = build(seed, cfg, nullptr, false);
    s.coord->run(ticks);
    return summaryDigest(*s.coord);
}

void
runBatch(const Options &opt, Results &res)
{
    const bool fleet = opt.workload == "fleet-10k";
    BuildFn build = fleet ? BuildFn(buildFleet) : BuildFn(buildPaper);
    core::CoordinationConfig cfg = fleet ? fleetCfg(0) : paperConfig(1);
    const size_t ticks = fleet ? kFleetTicks : kPaperTicks;

    if (opt.seed != kDefaultSeed)
        res.expected_digest = referenceDigest(build, opt.seed, cfg, ticks);

    SpanLog spans;
    const int64_t deadline =
        nowNs() + static_cast<int64_t>(opt.seconds * 1e9);
    // Traced runs cycle through untraced, traced and (fleet-10k only, for
    // pool.speedup) traced-serial repetitions, kMaxTraced cycles at most.
    const int cycle = fleet ? 3 : 2;
    const std::vector<int> cpus = allowedCpus();
    int rep_no = 0;
    while (rep_no < kMinReps || nowNs() < deadline) {
        int kind = opt.trace && rep_no < kMaxTraced * cycle
                       ? rep_no % cycle
                       : 0;
        // One CPU per cycle, so an untraced repetition and the traced
        // ones it is compared with share it; fleet-10k uses every CPU.
        if (!fleet)
            pinForRep(cpus, rep_no / cycle, 1);
        if (kind == 0) {
            res.reps.push_back(
                batchRep(build, opt.seed, cfg, ticks, nullptr, res));
        } else {
            core::CoordinationConfig c = cfg;
            const char *phase = "batch";
            if (kind == 2) {
                c.threads = 1;
                phase = "serial";
            }
            spans.setRep(rep_no, phase);
            Rep r = batchRep(build, opt.seed, c, ticks, &spans, res);
            r.mode = "traced";
            r.phase = phase;
            res.reps.push_back(r);
        }
        if (++rep_no == kMinReps)
            res.peak_rss_mb = peakRssMb();
    }
    // Repetition 0 always runs the workload's own thread count.
    res.threads = res.reps.front().threads;

    if (opt.trace) {
        spans.writeCsv(opt.out + ".spans.csv");
        BatchSetup s = build(opt.seed, cfg, nullptr, true);
        res.layers["sim.evaluate_ns_per_server"] = timeEvaluateNsPerServer(
            s.topo, s.traces, cfg, res.threads, fleet ? 50 : 500);
        res.layers["pool.fork_join_us"] = timeEmptyForkJoinUs(res.threads);
    }
}

// ---------------------------------------------------------------------
// serve-180: the paper campaign as NPSF frames over a socketpair.

/** The campaign pre-encoded as NPSF frames: hello, one slice per tick,
 * bye. Built before timing; every repetition replays the same bytes. */
struct Encoded
{
    std::vector<uint8_t> bytes;
    std::vector<size_t> cut; //!< cut[0] ends the hello, cut[t+1] tick t
    size_t streams = 0;
};

Encoded
encodeCampaign(uint64_t seed)
{
    trace::GeneratorConfig g;
    g.seed = seed;
    trace::WorkloadLibrary library(g);
    std::vector<trace::UtilizationTrace> traces =
        library.mix(trace::Mix::All180);
    Encoded e;
    e.streams = traces.size();
    stream::FrameWriter w;
    stream::HelloFrame h;
    h.streams = static_cast<uint32_t>(traces.size());
    h.total_ticks = kPaperTicks;
    w.hello(h);
    e.cut.push_back(w.size());
    for (size_t t = 0; t < kPaperTicks; ++t) {
        for (uint32_t vm = 0; vm < traces.size(); ++vm) {
            stream::SampleFrame s;
            s.tick = t;
            s.stream = vm;
            s.demand = traces[vm].at(t);
            w.sample(s);
        }
        w.tickEnd(t);
        e.cut.push_back(w.size());
    }
    w.bye(kPaperTicks);
    e.bytes = w.buffer();
    return e;
}

/**
 * The one feeder thread: writes the pre-encoded campaign into @p fd,
 * either as fast as the socket drains (@p rate 0) or tick t at
 * start + t / rate, recording how late each send started.
 */
void
feed(int fd, const Encoded &e, double rate, int64_t start,
     std::vector<double> *lag_us)
{
    if (rate > 0.0)
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const uint8_t *b = e.bytes.data();
    bool alive = stream::writeAll(fd, b, e.cut[0]);
    for (size_t t = 0; alive && t < kPaperTicks; ++t) {
        if (rate > 0.0) {
            int64_t due = start + static_cast<int64_t>(
                                      static_cast<double>(t) * 1e9 / rate);
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(due)));
            if (lag_us)
                lag_us->push_back(static_cast<double>(nowNs() - due) /
                                  1e3);
        }
        alive = stream::writeAll(fd, b + e.cut[t], e.cut[t + 1] - e.cut[t]);
    }
    if (alive)
        stream::writeAll(fd, b + e.cut.back(),
                         e.bytes.size() - e.cut.back());
    ::close(fd);
}

core::CoordinationConfig
serveConfig()
{
    core::CoordinationConfig cfg = paperConfig(1);
    cfg.stream.enabled = true;
    cfg.observability.metrics = true;
    return cfg;
}

Rep
serveRep(const Options &opt, const Encoded &enc, double rate,
         SpanLog *spans, Results &res)
{
    const core::CoordinationConfig cfg = serveConfig();
    Rep rep;
    rep.phase = rate > 0.0 ? "open" : "closed";
    int64_t t0 = nowNs();
    BatchSetup s = buildPaper(opt.seed, cfg, spans, false);
    core::Coordinator &coord = *s.coord;
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        util::fatal("npsbench: socketpair: %s", std::strerror(errno));
    stream::StreamSource source(fds[0], coord.cluster().numVms(),
                                cfg.stream);
    stream::ClusterFeed cluster_feed(coord.cluster(), source, cfg.stream);
    coord.attachStreamHealth(&cluster_feed);
    obs::MetricsRegistry *reg = coord.observability()->metrics();
    cluster_feed.attachObs(reg);
    const std::string http =
        "unix:.bench_run/npsbench-" + std::to_string(::getpid()) + ".sock";
    obs::live::LiveExporter exporter(http, 0);
    obs::live::LivePublisher publisher(
        reg, coord.profiler(), [&coord] { coord.updateRunGauges(); },
        &exporter, cfg.observability.publish_every, 0);
    long run_span = spans ? spans->open("run", -1) : -1;
    TickProbe probe(kPaperTicks, cfg.enable_vmc, spans, run_span,
                    &cluster_feed, &publisher, &source);
    coord.engine().setTickSource(&probe);
    coord.engine().setTickObserver(&probe);
    std::vector<double> lag;
    lag.reserve(kPaperTicks);
    int64_t start = nowNs();
    std::thread feeder(feed, fds[1], std::cref(enc), rate, start, &lag);
    int64_t t1 = nowNs();
    size_t ran = coord.run(kPaperTicks);
    int64_t t2 = nowNs();
    if (spans)
        spans->close(run_span);
    // Unblocks the feeder should the run have ended before the stream.
    ::shutdown(fds[0], SHUT_RDWR);
    feeder.join();
    coord.engine().setTickSource(nullptr);
    coord.engine().setTickObserver(nullptr);
    coord.updateRunGauges();
    publisher.publishFinal(ran ? ran - 1 : 0);

    rep.threads = coord.engine().threads();
    rep.setup_s = secondsBetween(t0, t1);
    rep.run_s = secondsBetween(t1, t2);
    rep.ticks = ran;
    rep.digest = summaryDigest(coord);
    const stream::ClusterFeed::Stats &fs = cluster_feed.stats();
    rep.samples = fs.staged_samples;
    const stream::IngestStats &in = *source.ingest();
    if (ran != kPaperTicks)
        rep.check = "short run: " + std::to_string(ran) + " ticks";
    else if (fs.missing_samples || fs.held_samples || fs.fallback_samples)
        rep.check = "missing/held/fallback samples in a clean campaign";
    else if (fs.staged_samples != kPaperTicks * enc.streams)
        rep.check = "staged " + std::to_string(fs.staged_samples) +
                    " samples";
    else if (in.late || in.duplicates || in.overflow || in.bad_stream ||
             in.timeouts || source.decodeStats().bad_crc)
        rep.check = "ingest anomalies in a clean campaign";
    res.threads = rep.threads;
    res.actors = coord.engine().actors().size();
    res.servers = coord.cluster().numServers();

    if (!spans && rate == 0.0)
        res.tick_us.push_back(tickLatencyUs(probe, ran));
    if (!spans && rate > 0.0) {
        std::vector<double> &us = res.open_us.emplace_back();
        for (size_t t = 0; t < ran; ++t) {
            int64_t due = start + static_cast<int64_t>(
                                      static_cast<double>(t) * 1e9 / rate);
            us.push_back(static_cast<double>(probe.ends()[t] - due) / 1e3);
        }
    }
    if (rate > 0.0 && spans)
        res.gen_lag_us.insert(res.gen_lag_us.end(), lag.begin(), lag.end());
    if (spans && rate == 0.0) {
        double &backlog = res.layers["stream.backlog_max"];
        backlog = std::max(backlog, static_cast<double>(probe.backlogMax()));
        res.layers["stream.staged_frac"] =
            static_cast<double>(fs.staged_samples) /
            static_cast<double>(fs.staged_samples + fs.missing_samples);
        res.layers["stream.crc_errors"] =
            static_cast<double>(source.decodeStats().bad_crc);
        std::ostringstream prom;
        int64_t a = nowNs();
        reg->writeProm(prom);
        res.export_us.push_back(static_cast<double>(nowNs() - a) / 1e3);
        std::istringstream lines(prom.str());
        double series = 0;
        for (std::string line; std::getline(lines, line);)
            if (!line.empty() && line[0] != '#')
                ++series;
        res.layers["obs.series"] = series;
    }
    return rep;
}

double
timeDecodeNsPerSample(const Encoded &enc)
{
    std::vector<double> per;
    for (int pass = 0; pass < 5; ++pass) {
        stream::FrameDecoder dec;
        stream::Frame f;
        size_t samples = 0;
        int64_t a = nowNs();
        for (size_t t = 0; t + 1 < enc.cut.size(); ++t) {
            size_t from = t == 0 ? 0 : enc.cut[t];
            dec.feed(enc.bytes.data() + from, enc.cut[t + 1] - from);
            while (dec.next(f))
                samples += f.type == stream::FrameType::Sample;
        }
        int64_t b = nowNs();
        if (samples != kPaperTicks * enc.streams)
            util::fatal("npsbench: decoded %zu samples", samples);
        per.push_back(static_cast<double>(b - a) /
                      static_cast<double>(samples));
    }
    return median(per);
}

void
runServe(const Options &opt, Results &res)
{
    if (opt.seed != kDefaultSeed)
        res.expected_digest = referenceDigest(buildPaper, opt.seed,
                                              paperConfig(1), kPaperTicks);
    const Encoded enc = encodeCampaign(opt.seed);

    SpanLog spans;
    const std::vector<int> cpus = allowedCpus();
    const int64_t deadline =
        nowNs() + static_cast<int64_t>(opt.seconds * 1e9);
    int rep_no = 0;
    while (rep_no < kMinReps || nowNs() < deadline) {
        bool traced = opt.trace && rep_no % 2 == 1 && rep_no < 2 * kMaxTraced;
        // The engine thread and the feeder, one pair per untraced/traced
        // cycle (see runBatch).
        pinForRep(cpus, rep_no / 2, 2);
        SpanLog *sp = traced ? &spans : nullptr;
        for (double rate : {0.0, kOpenLoopRate}) {
            spans.setRep(rep_no, rate > 0.0 ? "open" : "closed");
            Rep r = serveRep(opt, enc, rate, sp, res);
            if (traced)
                r.mode = "traced";
            res.reps.push_back(r);
        }
        if (++rep_no == kMinReps)
            res.peak_rss_mb = peakRssMb();
    }
    if (opt.trace) {
        spans.writeCsv(opt.out + ".spans.csv");
        res.layers["obs.export_us"] = median(res.export_us);
        res.layers["stream.decode_ns_per_sample"] =
            timeDecodeNsPerSample(enc);
        BatchSetup s = buildPaper(opt.seed, paperConfig(1), nullptr, true);
        res.layers["sim.evaluate_ns_per_server"] = timeEvaluateNsPerServer(
            s.topo, s.traces, paperConfig(1), 1, 500);
        res.layers["pool.fork_join_us"] = timeEmptyForkJoinUs(1);
    }
}

// ---------------------------------------------------------------------

void
writeResults(const Options &opt, const Results &res)
{
    std::ofstream out(opt.out);
    if (!out)
        util::fatal("npsbench: cannot write '%s'", opt.out.c_str());
    out << "{\n\"workload\": " << jsonStr(opt.workload)
        << ",\n\"seed\": " << opt.seed << ",\n\"trace\": " << opt.trace
        << ",\n\"host\": {\"nproc\": " << util::ThreadPool::hardwareThreads()
        << ", \"threads\": " << res.threads
        << ", \"build_type\": " << jsonStr(NPSB_BUILD_TYPE)
        << ", \"compiler\": " << jsonStr(NPSB_COMPILER) << "}"
        << ",\n\"actors\": " << res.actors
        << ",\n\"servers\": " << res.servers
        << ",\n\"expected_digest\": " << jsonStr(res.expected_digest)
        << ",\n\"peak_rss_mb\": " << jsonNum(res.peak_rss_mb)
        << ",\n\"reps\": [";
    for (size_t i = 0; i < res.reps.size(); ++i) {
        const Rep &r = res.reps[i];
        out << (i ? ",\n" : "\n") << "{\"mode\": " << jsonStr(r.mode)
            << ", \"phase\": " << jsonStr(r.phase)
            << ", \"threads\": " << r.threads
            << ", \"setup_s\": " << jsonNum(r.setup_s)
            << ", \"run_s\": " << jsonNum(r.run_s)
            << ", \"ticks\": " << r.ticks << ", \"samples\": " << r.samples
            << ", \"digest\": " << jsonStr(r.digest)
            << ", \"check\": " << jsonStr(r.check) << "}";
    }
    out << "\n],\n\"layers\": {";
    const char *sep = "";
    for (const auto &[name, value] : res.layers) {
        out << sep << jsonStr(name) << ": " << jsonNum(value);
        sep = ", ";
    }
    auto list = [&out](const std::vector<double> &v) {
        out << "[";
        for (size_t i = 0; i < v.size(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.3f", v[i]);
            out << (i ? "," : "") << buf;
        }
        out << "]";
    };
    auto rows = [&out, &list](const char *name,
                              const std::vector<std::vector<double>> &v) {
        out << ",\n" << jsonStr(name) << ": [";
        for (size_t i = 0; i < v.size(); ++i) {
            out << (i ? ",\n" : "\n");
            list(v[i]);
        }
        out << "]";
    };
    out << "}";
    rows("tick_us", res.tick_us);
    rows("open_us", res.open_us);
    out << ",\n\"gen_lag_us\": ";
    list(res.gen_lag_us);
    out << "\n}\n";
    if (!out)
        util::fatal("npsbench: write to '%s' failed", opt.out.c_str());
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            util::fatal("npsbench: %s needs a value", a.c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--out")
            opt.out = v;
        else
            util::fatal("npsbench: unknown argument '%s'", a.c_str());
    }
    if (opt.workload != "paper-180" && opt.workload != "fleet-10k" &&
        opt.workload != "serve-180")
        util::fatal("npsbench: unknown workload '%s'",
                    opt.workload.c_str());
    if (opt.out.empty() || !(opt.seconds > 0.0))
        util::fatal("npsbench: --out and a positive --seconds are needed");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    ::signal(SIGPIPE, SIG_IGN);
    Options opt = parse(argc, argv);
    Results res;
    if (opt.workload == "serve-180")
        runServe(opt, res);
    else
        runBatch(opt, res);
    writeResults(opt, res);
    return 0;
}
