/**
 * @file
 * macro_fleet: the fleet-scaling matrix (docs/PERFORMANCE.md).
 *
 * Runs the coordinated control plane over synthetic tiered fleets
 * (sim/fleetgen.h) across a fleet-size x thread-count matrix and reports
 * tick-loop throughput: wall time, ticks/sec, ns per server-tick, and
 * peak RSS. `--json` writes BENCH_macro_fleet.json, the artifact that is
 * committed in-repo so the perf trajectory stays visible PR over PR.
 *
 * Construction (topology + traces + controller wiring) is timed
 * separately from the tick loop; the per-cell tick count defaults to
 * whatever makes ticks x servers >= 1M so every cell measures at least a
 * million server-ticks.
 *
 * Usage:
 *   macro_fleet [--sizes 10000,100000] [--threads 1,4]
 *               [--ticks N] [--json [FILE]] [--quick]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/coordinator.h"
#include "core/scenarios.h"
#include "model/machine.h"
#include "sim/fleetgen.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace {

using namespace nps;

struct Cell
{
    unsigned servers = 0;
    unsigned threads = 0;
    size_t ticks = 0;
    double build_ms = 0.0;
    double wall_ms = 0.0;
    double ticks_per_sec = 0.0;
    double ns_per_server_tick = 0.0;
    double peak_rss_mb = 0.0;
};

double
peakRssMb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
#else
    return 0.0;
#endif
}

std::vector<unsigned>
parseList(const std::string &arg, const char *what)
{
    std::vector<unsigned> out;
    size_t pos = 0;
    while (pos < arg.size()) {
        size_t comma = arg.find(',', pos);
        if (comma == std::string::npos)
            comma = arg.size();
        unsigned long v = std::strtoul(arg.substr(pos, comma - pos).c_str(),
                                       nullptr, 10);
        if (v == 0)
            util::fatal("macro_fleet: bad %s list '%s'", what, arg.c_str());
        out.push_back(static_cast<unsigned>(v));
        pos = comma + 1;
    }
    if (out.empty())
        util::fatal("macro_fleet: empty %s list", what);
    return out;
}

/** Ticks per cell: at least 1M server-ticks, at least 10 ticks. */
size_t
ticksFor(unsigned servers, size_t override_ticks)
{
    if (override_ticks > 0)
        return override_ticks;
    const size_t floor_ticks = (1000000 + servers - 1) / servers;
    return std::max<size_t>(10, floor_ticks);
}

Cell
runCell(unsigned servers, unsigned threads, size_t ticks)
{
    using Clock = std::chrono::steady_clock;
    Cell cell;
    cell.servers = servers;
    cell.threads = threads;
    cell.ticks = ticks;

    Clock::time_point t0 = Clock::now();
    sim::FleetSpec spec;
    spec.servers = servers;
    sim::FleetGen gen(spec);

    core::CoordinationConfig config = core::fleetConfig();
    config.threads = threads;

    util::ThreadPool pool(threads);
    std::vector<trace::UtilizationTrace> traces =
        gen.traces(threads > 1 ? &pool : nullptr);
    core::Coordinator coord(config, gen.topology(), model::bladeA(),
                            traces);
    traces.clear();
    traces.shrink_to_fit();
    cell.build_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();

    t0 = Clock::now();
    coord.run(ticks);
    cell.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();

    const double secs = cell.wall_ms / 1000.0;
    cell.ticks_per_sec = secs > 0.0 ? ticks / secs : 0.0;
    const double server_ticks =
        static_cast<double>(servers) * static_cast<double>(ticks);
    cell.ns_per_server_tick =
        server_ticks > 0.0 ? cell.wall_ms * 1e6 / server_ticks : 0.0;
    cell.peak_rss_mb = peakRssMb();
    return cell;
}

void
writeJson(const std::string &path, const std::vector<Cell> &cells)
{
    std::ofstream out(path);
    if (!out)
        util::fatal("macro_fleet: cannot write '%s'", path.c_str());
    out << "{\n";
    out << "  \"bench\": \"macro_fleet\",\n";
    out << "  \"host_cpus\": " << util::ThreadPool::hardwareThreads()
        << ",\n";
    out << "  \"unit_note\": \"peak_rss_mb is process-wide and "
           "monotone across cells; threads > host_cpus cells measure "
           "oversubscription, not scaling\",\n";
    out << "  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        out << "    {\"servers\": " << c.servers
            << ", \"threads\": " << c.threads
            << ", \"ticks\": " << c.ticks
            << ", \"build_ms\": " << util::jsonNumber(c.build_ms)
            << ", \"wall_ms\": " << util::jsonNumber(c.wall_ms)
            << ", \"ticks_per_sec\": " << util::jsonNumber(c.ticks_per_sec)
            << ", \"ns_per_server_tick\": "
            << util::jsonNumber(c.ns_per_server_tick)
            << ", \"peak_rss_mb\": " << util::jsonNumber(c.peak_rss_mb)
            << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<unsigned> sizes = {10000, 100000};
    std::vector<unsigned> threads = {1, 4};
    size_t override_ticks = 0;
    bool json = false;
    std::string json_path = "BENCH_macro_fleet.json";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                util::fatal("macro_fleet: %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--sizes") {
            sizes = parseList(next(), "sizes");
        } else if (arg == "--threads") {
            threads = parseList(next(), "threads");
        } else if (arg == "--ticks") {
            override_ticks = util::parseUnsigned(next().c_str(), "--ticks");
        } else if (arg == "--json") {
            json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
        } else if (arg == "--quick") {
            sizes = {10000};
            threads = {1};
        } else {
            util::fatal("macro_fleet: unknown argument '%s'", arg.c_str());
        }
    }

    std::printf("macro_fleet: fleet-scaling matrix "
                "(sim/fleetgen.h, docs/PERFORMANCE.md)\n");
    std::printf("%10s %8s %8s %10s %10s %12s %14s %12s\n", "servers",
                "threads", "ticks", "build_ms", "wall_ms", "ticks/sec",
                "ns/srv-tick", "peakRSS_MB");

    std::vector<Cell> cells;
    for (unsigned servers : sizes) {
        const size_t ticks = ticksFor(servers, override_ticks);
        for (unsigned t : threads) {
            Cell c = runCell(servers, t, ticks);
            std::printf("%10u %8u %8zu %10.1f %10.1f %12.1f %14.1f "
                        "%12.1f\n",
                        c.servers, c.threads, c.ticks, c.build_ms,
                        c.wall_ms, c.ticks_per_sec, c.ns_per_server_tick,
                        c.peak_rss_mb);
            cells.push_back(c);
        }
    }

    if (json)
        writeJson(json_path, cells);
    return 0;
}
