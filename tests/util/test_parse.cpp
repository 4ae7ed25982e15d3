/**
 * @file
 * Tests for the strict numeric parsers behind the tools' flags and the
 * `[deployment] threads` key: whole-string decimal only, range-checked,
 * failing by name before any thread pool is built.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <utility>

#include "common/fixtures.h"
#include "core/config_io.h"
#include "sim/engine.h"
#include "util/ini.h"
#include "util/parse.h"
#include "util/thread_pool.h"

#ifndef NPS_NPSIM_BIN
#define NPS_NPSIM_BIN ""
#endif

namespace {

using namespace nps;

TEST(Parse, AcceptsWholeDecimalStrings)
{
    EXPECT_EQ(util::parseUnsigned("0", "--x"), 0u);
    EXPECT_EQ(util::parseUnsigned("42", "--x"), 42u);
    EXPECT_EQ(util::parseUnsigned("18446744073709551615", "--x"),
              18446744073709551615ull);
    EXPECT_EQ(util::parseUnsigned32("4294967295", "--x"), 4294967295u);
    EXPECT_EQ(util::parseThreads("0", "--threads"), 0u);
    EXPECT_EQ(util::parseThreads("1024", "--threads"), util::kMaxThreads);
}

TEST(ParseDeathTest, RejectsGarbageNamingTheFlag)
{
    EXPECT_DEATH(util::parseUnsigned("abc", "--ticks"),
                 "--ticks: 'abc' is not an unsigned integer");
    EXPECT_DEATH(util::parseUnsigned("", "--ticks"), "--ticks: empty");
    EXPECT_DEATH(util::parseUnsigned("12x", "--seed"), "--seed: '12x'");
    EXPECT_DEATH(util::parseUnsigned(" 7", "--seed"), "--seed: ' 7'");
    EXPECT_DEATH(util::parseUnsigned("7 ", "--seed"), "--seed: '7 '");
    EXPECT_DEATH(util::parseUnsigned("+7", "--seed"), "--seed: '\\+7'");
    EXPECT_DEATH(util::parseUnsigned("-1", "--ticks"),
                 "--ticks: '-1' is not an unsigned integer");
}

TEST(ParseDeathTest, RejectsOutOfRange)
{
    EXPECT_DEATH(util::parseUnsigned("18446744073709551616", "--seed"),
                 "--seed: '18446744073709551616' is out of range");
    EXPECT_DEATH(util::parseUnsigned32("4294967296", "--pace-ms"),
                 "--pace-ms: '4294967296' is out of range");
    EXPECT_DEATH(util::parseUnsigned("0", "--rank", 1, 9),
                 "--rank: '0' is out of range \\[1, 9\\]");
}

TEST(ParseDeathTest, ThreadCountsAreCapped)
{
    // The wrap-around values a bare strtoul produced from "-1".
    EXPECT_DEATH(util::parseThreads("-1", "--threads"),
                 "--threads: '-1' is not an unsigned integer");
    EXPECT_DEATH(util::parseThreads("4294967295", "--threads"),
                 "--threads: '4294967295' is out of range \\[0, 1024\\]");
    EXPECT_DEATH(util::parseThreads("1025", "--threads"),
                 "out of range \\[0, 1024\\]");
}

TEST(ParseDeathTest, ConfigThreadsKeyIsStrict)
{
    EXPECT_EQ(core::configFromIni(
                  util::parseIni("[deployment]\nthreads = 8\n"))
                  .threads,
              8u);
    EXPECT_DEATH(core::configFromIni(
                     util::parseIni("[deployment]\nthreads = -1\n")),
                 "\\[deployment\\] threads: '-1' is not an unsigned");
    EXPECT_DEATH(core::configFromIni(
                     util::parseIni("[deployment]\nthreads = 5000\n")),
                 "\\[deployment\\] threads: '5000' is out of range");
}

TEST(ParseDeathTest, PoolAndEngineRefuseHugeThreadCounts)
{
    // Checked before any worker is spawned.
    EXPECT_DEATH(util::ThreadPool pool(util::kMaxThreads + 1),
                 "at most 1024 allowed");
    sim::Cluster cluster = nps_test::smallCluster();
    sim::MetricsCollector metrics;
    sim::Engine engine(cluster, metrics);
    EXPECT_DEATH(engine.setThreads(util::kMaxThreads + 1),
                 "Engine::setThreads: 1025 threads requested");
}

/** Run npsim with @p args; @return exit status and combined output. */
std::pair<int, std::string>
runNpsim(const std::string &args)
{
    std::string cmd = std::string(NPS_NPSIM_BIN) + " " + args + " 2>&1";
    FILE *p = ::popen(cmd.c_str(), "r");
    std::string out;
    char buf[256];
    while (p && std::fgets(buf, sizeof buf, p))
        out += buf;
    int status = p ? ::pclose(p) : -1;
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(ParseCli, NpsimRejectsBadNumbersAtParseTime)
{
    if (std::string(NPS_NPSIM_BIN).empty())
        GTEST_SKIP() << "npsim path not wired into this build";
    auto [code, out] = runNpsim("--threads -1 --ticks 5");
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("--threads: '-1' is not an unsigned integer"),
              std::string::npos)
        << out;
    std::tie(code, out) = runNpsim("--ticks abc");
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("--ticks: 'abc' is not an unsigned integer"),
              std::string::npos)
        << out;
    std::tie(code, out) = runNpsim("--threads 4294967295 --ticks 5");
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("out of range [0, 1024]"), std::string::npos) << out;
}

} // namespace
