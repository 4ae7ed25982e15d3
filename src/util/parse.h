/**
 * @file
 * Strict numeric parsing for command-line flags and config keys.
 *
 * strtoul() and friends accept "abc" as 0, "12x" as 12 and "-1" as the
 * largest unsigned value. These helpers read the whole string, accept
 * only decimal digits, check the range, and otherwise fail with fatal()
 * naming the flag or key — before any value reaches the simulation.
 */

#ifndef NPS_UTIL_PARSE_H
#define NPS_UTIL_PARSE_H

#include <cstdint>
#include <limits>

namespace nps {
namespace util {

/**
 * Parse @p text as a decimal unsigned integer in [@p lo, @p hi].
 * fatal() naming @p what (e.g. "--ticks" or "[deployment] threads")
 * when @p text is empty, has a sign, space or any non-digit, or is out
 * of range.
 */
uint64_t parseUnsigned(const char *text, const char *what, uint64_t lo = 0,
                       uint64_t hi = std::numeric_limits<uint64_t>::max());

/** parseUnsigned() into an unsigned int, capped at UINT_MAX. */
unsigned parseUnsigned32(const char *text, const char *what);

/** A thread count: 0 (hardware concurrency) up to util::kMaxThreads
 * (util/thread_pool.h). */
unsigned parseThreads(const char *text, const char *what);

} // namespace util
} // namespace nps

#endif // NPS_UTIL_PARSE_H
