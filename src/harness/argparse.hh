/**
 * @file
 * Strict numeric CLI-argument parsing.
 *
 * std::stol/std::stoull accept trailing garbage ("8x" parses as 8),
 * silently wrap negatives through unsigned conversions ("-1" becomes
 * 2^64-1), and throw bare std::invalid_argument with no mention of
 * which option was malformed. Every numeric option of the sweep
 * tooling parses through these helpers instead: the full string must
 * be consumed, the value must fit the target type and the caller's
 * range, and a violation throws ArgError naming the option, the
 * offending text, and the accepted range — turned into a clean
 * usage-error exit by the tool's top-level handler. The
 * TOKENSIM_THREADS environment knob parses through the same rules
 * (envInt).
 */

#ifndef TOKENSIM_HARNESS_ARGPARSE_HH
#define TOKENSIM_HARNESS_ARGPARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace tokensim {

/** A malformed or out-of-range command-line value. */
class ArgError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Parse @p text as an unsigned integer in [@p min, @p max].
 * @p what names the option in error messages ("--seeds").
 * @throws ArgError on empty input, non-digits, trailing garbage,
 *         a leading '-', or a value outside the range.
 */
inline std::uint64_t
parseU64(const std::string &what, const std::string &text,
         std::uint64_t min = 0,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::string range = "[" + std::to_string(min) + ", " +
        std::to_string(max) + "]";
    if (text.empty() || text[0] < '0' || text[0] > '9') {
        throw ArgError(what + " expects an unsigned integer in " +
                       range + ", got '" + text + "'");
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size()) {
        throw ArgError(what + " expects an unsigned integer in " +
                       range + ", got '" + text + "'");
    }
    if (v < min || v > max) {
        throw ArgError(what + " must be in " + range + ", got '" +
                       text + "'");
    }
    return v;
}

/**
 * Parse @p text as a signed integer in [@p min, @p max].
 * @throws ArgError like parseU64 (a leading '-' is accepted here).
 */
inline std::int64_t
parseI64(const std::string &what, const std::string &text,
         std::int64_t min = std::numeric_limits<std::int64_t>::min(),
         std::int64_t max = std::numeric_limits<std::int64_t>::max())
{
    const std::string range = "[" + std::to_string(min) + ", " +
        std::to_string(max) + "]";
    const bool has_digit = !text.empty() &&
        ((text[0] >= '0' && text[0] <= '9') ||
         (text[0] == '-' && text.size() > 1 && text[1] >= '0' &&
          text[1] <= '9'));
    if (!has_digit) {
        throw ArgError(what + " expects an integer in " + range +
                       ", got '" + text + "'");
    }
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size()) {
        throw ArgError(what + " expects an integer in " + range +
                       ", got '" + text + "'");
    }
    if (v < min || v > max) {
        throw ArgError(what + " must be in " + range + ", got '" +
                       text + "'");
    }
    return v;
}

/** parseI64 narrowed to int (the common option width). */
inline int
parseInt(const std::string &what, const std::string &text,
         int min = std::numeric_limits<int>::min(),
         int max = std::numeric_limits<int>::max())
{
    return static_cast<int>(parseI64(what, text, min, max));
}

/**
 * Environment knob @p name as an int in [@p min, @p max]; unset or
 * empty yields @p fallback.
 * @throws ArgError naming the variable, its text, and the range.
 */
inline int
envInt(const char *name, int fallback,
       int min = std::numeric_limits<int>::min(),
       int max = std::numeric_limits<int>::max())
{
    const char *s = std::getenv(name);
    return s && *s ? parseInt(name, s, min, max) : fallback;
}

} // namespace tokensim

#endif // TOKENSIM_HARNESS_ARGPARSE_HH
