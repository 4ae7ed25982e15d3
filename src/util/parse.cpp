#include "util/parse.h"

#include "util/logging.h"
#include "util/thread_pool.h"

namespace nps {
namespace util {

uint64_t
parseUnsigned(const char *text, const char *what, uint64_t lo, uint64_t hi)
{
    if (text == nullptr || *text == '\0')
        fatal("%s: empty value, expected an unsigned integer", what);
    uint64_t value = 0;
    bool overflow = false;
    for (const char *c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9')
            fatal("%s: '%s' is not an unsigned integer", what, text);
        const auto digit = static_cast<uint64_t>(*c - '0');
        if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10)
            overflow = true;
        else
            value = value * 10 + digit;
    }
    if (overflow || value < lo || value > hi)
        fatal("%s: '%s' is out of range [%llu, %llu]", what, text,
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
    return value;
}

unsigned
parseUnsigned32(const char *text, const char *what)
{
    return static_cast<unsigned>(
        parseUnsigned(text, what, 0, std::numeric_limits<unsigned>::max()));
}

unsigned
parseThreads(const char *text, const char *what)
{
    return static_cast<unsigned>(parseUnsigned(text, what, 0, kMaxThreads));
}

} // namespace util
} // namespace nps
