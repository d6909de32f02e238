/**
 * @file
 * Tests for the common utilities: formatting, strict count parsing,
 * the on-disk record grammar and atomic file store, tables, RNG and
 * bit helpers.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/record.hpp"
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

namespace
{

/** A parser with one entry of each value kind, recording into @p log
 *  every handler call as "name=value". */
cli::Parser
kindsParser(std::vector<std::string> *log)
{
    cli::Parser p;
    const auto record = [log](const char *name) {
        return [log, name](const std::string &v) {
            log->push_back(std::string(name) + "=" + v);
        };
    };
    p.add("--none", cli::Value::None, "", record("none"));
    p.add("--req V", cli::Value::Required, "", record("req"));
    p.add("--opt[=V]", cli::Value::Optional, "", record("opt"));
    p.add("FILE", cli::Value::Positional, "", record("file"));
    return p;
}

void
parseArgs(const cli::Parser &p, std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    p.parse(static_cast<int>(argv.size()), const_cast<char **>(argv.data()));
}

} // namespace

TEST(Cli, OnePassInArgvOrderOverEveryValueKind)
{
    std::vector<std::string> log;
    const cli::Parser p = kindsParser(&log);
    // A detached value may start with one '-' (parseCount then names
    // a negative count); only "--" marks the next flag.
    parseArgs(p, {"--req", "a", "x.s", "--opt", "--none", "--req=b=c",
                  "--opt=d", "--req", "-5"});
    EXPECT_EQ(log, (std::vector<std::string>{"req=a", "file=x.s", "opt=",
                                             "none=", "req=b=c", "opt=d",
                                             "req=-5"}));
}

TEST(CliDeath, RejectsWithANamedReason)
{
    std::vector<std::string> log;
    const cli::Parser p = kindsParser(&log);
    const auto dies = [&](std::vector<const char *> argv,
                          const char *why) {
        EXPECT_EXIT(parseArgs(p, argv), ::testing::ExitedWithCode(1), why);
    };
    dies({"--jbos", "1"}, "unknown argument '--jbos' \\(try --help\\)");
    dies({"--req"}, "--req expects a value");
    dies({"--req", "--none"}, "--req expects a value");
    dies({"--req", ""}, "--req expects a value");
    dies({"--req="}, "--req= expects a value");
    dies({"--opt="}, "--opt= expects a value");
    dies({"--none=1"}, "--none takes no value");
    dies({"-x"}, "unknown argument '-x'");

    cli::Parser counts;
    unsigned jobs = 0;
    counts.count("--jobs N", "", &jobs);
    EXPECT_EXIT(parseArgs(counts, {"--jobs", "4x"}),
                ::testing::ExitedWithCode(1),
                "--jobs expects 1\\.\\.4294967295, got '4x'");
    EXPECT_EXIT(parseArgs(counts, {"stray"}), ::testing::ExitedWithCode(1),
                "unknown argument 'stray'");
    parseArgs(counts, {"--jobs=12"});
    EXPECT_EQ(jobs, 12u);
}

TEST(Record, WriterSpellsEveryValueKind)
{
    const std::string bytes = "\x01\xab", none;
    const std::vector<std::int64_t> words = {3, -1};
    const std::uint64_t regs[3] = {0, 7, 18446744073709551615ull};
    RecordWriter w;
    w.put("reno-thing v1");
    w.put("n", std::uint64_t{42}, -5, true, false);
    w.put("name", std::string("l2"), std::uint32_t{0});
    w.put("output", Hex{bytes});
    w.put("empty", Hex{none});
    w.put("dtab", words.size(), words);
    w.put("regs", regs);
    w.put("list", std::vector<unsigned>{});
    EXPECT_EQ(w.str(), "reno-thing v1\n"
                       "n 42 -5 1 0\n"
                       "name l2 0\n"
                       "output 01ab\n"
                       "empty \n"
                       "dtab 2 3 -1\n"
                       "regs 0 7 18446744073709551615\n"
                       "list\n");
}

TEST(Record, ReaderInvertsTheWriter)
{
    const std::string text = "reno-thing v1\n"
                             "n 42 -5 1\n"
                             "output 01ab\n"
                             "empty \n"
                             "dtab 2 3 -1\n"
                             "regs 0 7 18446744073709551615\n"
                             "list\n";
    RecordReader in(text);
    std::uint64_t n = 0, len = 0;
    int neg = 0;
    bool flag = false;
    std::string out = "stale", empty = "stale";
    std::vector<std::int64_t> words;
    std::uint64_t regs[3] = {};
    std::vector<unsigned> list = {9};
    ASSERT_TRUE(in.get("reno-thing v1"));
    ASSERT_TRUE(in.get("n", n, neg, flag));
    ASSERT_TRUE(in.get("output", Hex{out}));
    ASSERT_TRUE(in.get("empty", Hex{empty}));
    ASSERT_TRUE(in.get("dtab", len, words));
    ASSERT_TRUE(in.get("regs", regs));
    ASSERT_TRUE(in.get("list", list));
    EXPECT_TRUE(in.finish()) << in.error();
    EXPECT_EQ(n, 42u);
    EXPECT_EQ(neg, -5);
    EXPECT_TRUE(flag);
    EXPECT_EQ(out, "\x01\xab");
    EXPECT_EQ(empty, "");
    EXPECT_EQ(len, 2u);
    EXPECT_EQ(words, (std::vector<std::int64_t>{3, -1}));
    EXPECT_EQ(regs[2], 18446744073709551615ull);
    EXPECT_TRUE(list.empty());
}

TEST(Record, RejectsEveryNonCanonicalNumber)
{
    const auto rejects = [](const std::string &line, const char *why) {
        std::uint64_t u = 0;
        RecordReader in(line);
        EXPECT_FALSE(in.get("cycles", u)) << why << ": '" << line << "'";
        EXPECT_NE(in.error().find("line 1: "), std::string::npos) << why;
    };
    rejects("cycles 12x4\n", "trailing characters");
    rejects("cycles -1\n", "sign on an unsigned value");
    rejects("cycles +1\n", "plus sign");
    rejects("cycles  5\n", "padding");
    rejects("cycles 5 \n", "trailing padding");
    rejects("cycles 0012\n", "leading zero");
    rejects("cycles 0x10\n", "hex prefix");
    rejects("cycles 18446744073709551616\n", "overflow");
    rejects("cycles 99999999999999999999\n", "overflow");
    rejects("cycles \n", "empty value");
    rejects("cycles 1.5\n", "fraction");
    rejects("cycles\t5\n", "tab separator");

    std::int64_t s = 0;
    EXPECT_FALSE(RecordReader("v -0\n").get("v", s)) << "-0";
    EXPECT_FALSE(RecordReader("v -012\n").get("v", s)) << "-012";
    EXPECT_FALSE(RecordReader("v --1\n").get("v", s)) << "--1";
    EXPECT_FALSE(RecordReader("v 9223372036854775808\n").get("v", s));
    EXPECT_TRUE(RecordReader("v -9223372036854775808\n").get("v", s));
    EXPECT_EQ(s, INT64_MIN);

    std::uint32_t narrow = 0;
    EXPECT_FALSE(RecordReader("v 4294967296\n").get("v", narrow))
        << "overflow of the destination width";
    bool b = false;
    EXPECT_FALSE(RecordReader("v 2\n").get("v", b)) << "bools are 0/1";
    std::string bytes;
    EXPECT_FALSE(RecordReader("v AB\n").get("v", Hex{bytes}))
        << "hex is lowercase";
    EXPECT_FALSE(RecordReader("v abc\n").get("v", Hex{bytes}))
        << "hex has whole bytes";
}

TEST(Record, RejectsWrongShapeNamingLineAndKey)
{
    std::uint64_t a = 0, b = 0;
    RecordReader missing_nl("x 1\ncycles 5");
    EXPECT_TRUE(missing_nl.get("x", a));
    EXPECT_FALSE(missing_nl.get("cycles", a));
    EXPECT_EQ(missing_nl.error(), "line 2: missing newline (truncated "
                                  "input?)");

    RecordReader too_many("cycles 5 6\n");
    EXPECT_FALSE(too_many.get("cycles", a));
    EXPECT_EQ(too_many.error(), "line 1: too many values for 'cycles'");

    RecordReader too_few("cycles 5\n");
    EXPECT_FALSE(too_few.get("cycles", a, b));
    EXPECT_EQ(too_few.error(), "line 1: too few values for 'cycles'");

    RecordReader wrong_key("cyclesx 5\n");
    EXPECT_FALSE(wrong_key.get("cycles", a));
    EXPECT_EQ(wrong_key.error(), "line 1: expected record 'cycles'");

    RecordReader bad_value("x 1\ncycles 12x4\n");
    EXPECT_TRUE(bad_value.get("x", a));
    EXPECT_FALSE(bad_value.get("cycles", a));
    EXPECT_EQ(bad_value.error(), "line 2: malformed value 1 of 'cycles'");
    EXPECT_FALSE(bad_value.get("x", a)) << "the first failure sticks";

    RecordReader ended("x 1\n");
    EXPECT_TRUE(ended.get("x", a));
    EXPECT_FALSE(ended.get("x", a));
    EXPECT_EQ(ended.error(), "line 2: missing record 'x' (end of input)");

    RecordReader trailing("x 1\nx 1\n");
    EXPECT_TRUE(trailing.get("x", a));
    EXPECT_FALSE(trailing.finish());
    EXPECT_EQ(trailing.error(),
              "line 2: unexpected data after the last record");
}

TEST(Record, CountsInTheFileNeverSizeAllocations)
{
    // A hostile count is only a number: the vector holds what the
    // line holds, and the caller compares.
    std::uint64_t len = 0;
    std::vector<std::int64_t> words;
    RecordReader in("dtab 99999999999999\n");
    ASSERT_TRUE(in.get("dtab", len, words));
    EXPECT_EQ(len, 99999999999999u);
    EXPECT_TRUE(words.empty());
}

TEST(AtomicFileStore, WritesWholeFilesAndLeavesNoTemporary)
{
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "reno_record_store";
    fs::remove_all(dir);
    const std::string path = dir + "/nested/entry.result";
    std::string why;
    ASSERT_TRUE(writeFileAtomic(path, "a 1\n", &why)) << why;
    ASSERT_TRUE(writeFileAtomic(path, "a 2\n", &why)) << why;
    std::string back;
    ASSERT_TRUE(readFile(path, &back));
    EXPECT_EQ(back, "a 2\n");
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir + "/nested")) {
        EXPECT_EQ(e.path().filename(), "entry.result");
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    EXPECT_FALSE(readFile(dir + "/absent", &back));

    // A parent that is a regular file cannot become a directory.
    std::ofstream(dir + "/plain") << "x";
    EXPECT_FALSE(writeFileAtomic(dir + "/plain/entry", "a 1\n", &why));
    EXPECT_NE(why.find("cannot create"), std::string::npos) << why;
    fs::remove_all(dir);
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
