/**
 * @file
 * Strict CLI numeric parsing (harness/argparse.hh): every malformed
 * form the sweep tool used to accept silently — trailing garbage,
 * wrapped negatives, empty strings, overflow — must throw ArgError
 * with a message naming the offending option. The TOKENSIM_*
 * environment knobs (envInt) follow the same rules.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>

#include "harness/argparse.hh"

using namespace tokensim;

namespace {

/** The thrown message names the option and echoes the bad text. */
void
expectArgError(const std::function<void()> &f, const char *what,
               const char *text)
{
    try {
        f();
        FAIL() << what << " should have rejected '" << text << "'";
    } catch (const ArgError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
            << e.what();
    }
}

TEST(ArgParse, U64AcceptsPlainIntegers)
{
    EXPECT_EQ(parseU64("--ops", "0"), 0u);
    EXPECT_EQ(parseU64("--ops", "1000"), 1000u);
    EXPECT_EQ(parseU64("--seed", "18446744073709551615"),
              ~std::uint64_t{0});
}

TEST(ArgParse, U64RejectsGarbage)
{
    expectArgError([] { parseU64("--ops", ""); }, "--ops", "''");
    expectArgError([] { parseU64("--ops", "12x"); }, "--ops", "12x");
    expectArgError([] { parseU64("--ops", "x12"); }, "--ops", "x12");
    expectArgError([] { parseU64("--ops", "1 2"); }, "--ops", "1 2");
    expectArgError([] { parseU64("--ops", "1.5"); }, "--ops", "1.5");
    expectArgError([] { parseU64("--ops", " 7"); }, "--ops", " 7");
}

TEST(ArgParse, U64RejectsNegativesInsteadOfWrapping)
{
    // std::stoull would wrap "-1" through to 2^64 - 1.
    expectArgError([] { parseU64("--seeds", "-1"); }, "--seeds", "-1");
    expectArgError([] { parseU64("--seeds", "-0"); }, "--seeds", "-0");
}

TEST(ArgParse, U64RejectsOverflow)
{
    expectArgError([] { parseU64("--seed", "18446744073709551616"); },
                   "--seed", "18446744073709551616");
    expectArgError([] { parseU64("--seed", "999999999999999999999"); },
                   "--seed", "999999999999999999999");
}

TEST(ArgParse, U64EnforcesCallerRange)
{
    EXPECT_EQ(parseU64("--seeds", "1", 1), 1u);
    expectArgError([] { parseU64("--seeds", "0", 1); }, "--seeds",
                   "0");
    expectArgError([] { parseU64("--w", "11", 0, 10); }, "--w", "11");
}

TEST(ArgParse, I64AcceptsSignedIntegers)
{
    EXPECT_EQ(parseI64("--t", "-1"), -1);
    EXPECT_EQ(parseI64("--t", "0"), 0);
    EXPECT_EQ(parseI64("--t", "9223372036854775807"),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(parseI64("--t", "-9223372036854775808"),
              std::numeric_limits<std::int64_t>::min());
}

TEST(ArgParse, I64RejectsGarbageAndOverflow)
{
    expectArgError([] { parseI64("--t", ""); }, "--t", "''");
    expectArgError([] { parseI64("--t", "-"); }, "--t", "'-'");
    expectArgError([] { parseI64("--t", "--2"); }, "--t", "--2");
    expectArgError([] { parseI64("--t", "3ms"); }, "--t", "3ms");
    expectArgError([] { parseI64("--t", "9223372036854775808"); },
                   "--t", "9223372036854775808");
}

TEST(ArgParse, I64EnforcesCallerRange)
{
    EXPECT_EQ(parseI64("--shard-timeout", "-1", -1), -1);
    expectArgError([] { parseI64("--shard-timeout", "-2", -1); },
                   "--shard-timeout", "-2");
}

TEST(ArgParse, IntNarrowsWithRangeCheck)
{
    EXPECT_EQ(parseInt("--nodes", "1024", 1), 1024);
    expectArgError([] { parseInt("--nodes", "0", 1); }, "--nodes",
                   "0");
    // Beyond int range is out of the (defaulted) caller range.
    expectArgError([] { parseInt("--nodes", "2147483648", 1); },
                   "--nodes", "2147483648");
}

/** Sets an environment variable for one test, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(ArgParse, EnvKnobUnsetOrEmptyYieldsTheFallback)
{
    {
        ScopedEnv env("TOKENSIM_TEST_KNOB", nullptr);
        EXPECT_EQ(envInt("TOKENSIM_TEST_KNOB", 7, 1), 7);
    }
    ScopedEnv env("TOKENSIM_TEST_KNOB", "");
    EXPECT_EQ(envInt("TOKENSIM_TEST_KNOB", 7, 1), 7);
}

TEST(ArgParse, EnvKnobParsesStrictly)
{
    ScopedEnv env("TOKENSIM_TEST_KNOB", "12");
    EXPECT_EQ(envInt("TOKENSIM_TEST_KNOB", 7, 1), 12);
}

TEST(ArgParse, EnvKnobGarbageNamesTheVariable)
{
    // strtoull read "abc" as 0 ops and "8x" as 8; both must now be
    // errors naming the variable and echoing its text.
    {
        ScopedEnv env("TOKENSIM_TEST_KNOB", "abc");
        expectArgError([] { envInt("TOKENSIM_TEST_KNOB", 2, 1); },
                       "TOKENSIM_TEST_KNOB", "abc");
    }
    ScopedEnv env("TOKENSIM_TEST_KNOB", "8x");
    expectArgError([] { envInt("TOKENSIM_TEST_KNOB", 0, 0); },
                   "TOKENSIM_TEST_KNOB", "8x");
}

TEST(ArgParse, EnvKnobEnforcesRange)
{
    ScopedEnv env("TOKENSIM_TEST_KNOB", "-1");
    expectArgError([] { envInt("TOKENSIM_TEST_KNOB", 0, 0); },
                   "TOKENSIM_TEST_KNOB", "[0, 2147483647]");
}

} // namespace
