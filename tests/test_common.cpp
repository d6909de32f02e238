/**
 * @file
 * Tests for the common utilities: formatting, strict count parsing,
 * tables, RNG and bit helpers.
 */
#include <gtest/gtest.h>

#include <set>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

using namespace reno;

TEST(StrPrintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("%d + %d = %d", 2, 3, 5), "2 + 3 = 5");
    EXPECT_EQ(strprintf("%s", "hello"), "hello");
    EXPECT_EQ(strprintf("%05x", 0xab), "000ab");
    EXPECT_EQ(strprintf(""), "");
}

TEST(ParseCount, AcceptsPlainDecimalCountsInRange)
{
    EXPECT_EQ(parseCount("--n", "1"), 1u);
    EXPECT_EQ(parseCount("--n", "5000"), 5000u);
    EXPECT_EQ(parseCount("--n", "007"), 7u);
    EXPECT_EQ(parseCount("--n", "18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(parseCount("--n", "0", 0), 0u);
    EXPECT_EQ(parseCount("--n", "8", 1, 8), 8u);
}

TEST(ParseCountDeath, RejectsSignJunkOverflowAndRangeNamingTheFlag)
{
    const auto dies = [](const char *text, const char *why) {
        EXPECT_EXIT(parseCount("--measure", text),
                    ::testing::ExitedWithCode(1),
                    "--measure expects a positive integer")
            << why;
    };
    dies("-1", "a sign must not wrap to 2^64-1");
    dies("+1", "no sign at all");
    dies(" 1", "no leading whitespace");
    dies("100x", "no trailing characters");
    dies("1.5", "no fraction");
    dies("", "empty");
    dies("0", "below the minimum");
    dies("18446744073709551616", "overflow");
    EXPECT_EXIT(parseCount("--warmup", "-1", 0),
                ::testing::ExitedWithCode(1),
                "--warmup expects a non-negative integer, got '-1'");
    EXPECT_EXIT(parseCount("--cores", "9", 1, 8),
                ::testing::ExitedWithCode(1),
                "--cores expects 1..8, got '9'");
}

TEST(SignExtend, Basics)
{
    EXPECT_EQ(signExtend(0x7fff, 16), 0x7fff);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0, 16), 0);
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0xffffffffULL, 32), -1);
}

TEST(FitsSigned, Boundaries)
{
    EXPECT_TRUE(fitsSigned(32767, 16));
    EXPECT_TRUE(fitsSigned(-32768, 16));
    EXPECT_FALSE(fitsSigned(32768, 16));
    EXPECT_FALSE(fitsSigned(-32769, 16));
    EXPECT_TRUE(fitsSigned(0, 16));
    EXPECT_TRUE(fitsSigned(127, 8));
    EXPECT_FALSE(fitsSigned(128, 8));
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0));
        EXPECT_TRUE(rng.chance(100));
    }
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("----"), std::string::npos);
    // Column alignment: "1" and "22" start at the same offset.
    const auto lines_at = [&](size_t n) {
        size_t pos = 0;
        for (size_t i = 0; i < n; ++i)
            pos = out.find('\n', pos) + 1;
        return out.substr(pos, out.find('\n', pos) - pos);
    };
    EXPECT_EQ(lines_at(2).find('1'), lines_at(3).find('2'));
}

TEST(TextTable, RaggedRowsTolerated)
{
    TextTable t;
    t.header({"a", "b", "c"});
    t.row({"only"});
    EXPECT_FALSE(t.render().empty());
}

TEST(Format, Percent)
{
    EXPECT_EQ(fmtPercent(0.123), "12.3");
    EXPECT_EQ(fmtPercent(1.0, 0), "100");
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
}
