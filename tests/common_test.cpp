#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <iterator>
#include <set>
#include <sstream>
#include <thread>

#include "common/cli.h"
#include "common/error.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/table.h"

namespace wsan {
namespace {

// ---------------------------------------------------------------- rng --

TEST(Rng, IsDeterministicForSameSeed) {
  rng a(123);
  rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DiffersAcrossSeeds) {
  rng a(1);
  rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntStaysInRangeAndHitsEndpoints) {
  rng gen(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = gen.uniform_int(-3, 4);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 4);
    saw_lo |= (x == -3);
    saw_hi |= (x == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingletonRange) {
  rng gen(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(gen.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  rng gen(7);
  EXPECT_THROW(gen.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, Uniform01IsInHalfOpenUnitInterval) {
  rng gen(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = gen.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsAboutHalf) {
  rng gen(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += gen.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalHasRequestedMoments) {
  rng gen(17);
  const int n = 50000;
  double sum = 0.0;
  double ss = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = gen.normal(10.0, 2.0);
    sum += x;
    ss += x * x;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, NormalRejectsNegativeStddev) {
  rng gen(1);
  EXPECT_THROW(gen.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliMatchesProbability) {
  rng gen(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += gen.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerateCases) {
  rng gen(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(gen.bernoulli(0.0));
    EXPECT_TRUE(gen.bernoulli(1.0));
  }
  EXPECT_THROW(gen.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  rng gen(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  gen.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Rng, PickRejectsEmptyVector) {
  rng gen(31);
  std::vector<int> empty;
  EXPECT_THROW(gen.pick(empty), std::invalid_argument);
}

TEST(Rng, PickCoversAllElements) {
  rng gen(37);
  const std::vector<int> v{1, 2, 3};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(gen.pick(v));
  EXPECT_EQ(seen.size(), 3u);
}

// -------------------------------------------------------------- table --

TEST(Table, RejectsMismatchedRowWidth) {
  table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
}

TEST(Table, PrintsAlignedColumns) {
  table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCells) {
  table t({"a"});
  t.add_row({"hello, \"world\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a\n\"hello, \"\"world\"\"\"\n");
}

TEST(Table, CellFormatsDoubles) {
  EXPECT_EQ(cell(1.23456, 2), "1.23");
  EXPECT_EQ(cell(2.0, 0), "2");
  EXPECT_EQ(cell(42), "42");
}

// ---------------------------------------------------------- histogram --

TEST(Histogram, CountsAndProportions) {
  histogram h;
  h.add(1, 3);
  h.add(2);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(1), 3u);
  EXPECT_EQ(h.count(5), 0u);
  EXPECT_DOUBLE_EQ(h.proportion(1), 0.75);
  EXPECT_DOUBLE_EQ(h.proportion(2), 0.25);
}

TEST(Histogram, EmptyBehaviour) {
  histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.proportion(1), 0.0);
  EXPECT_THROW(h.min_value(), std::invalid_argument);
  EXPECT_THROW(h.mean(), std::invalid_argument);
}

TEST(Histogram, MergeAddsBins) {
  histogram a;
  a.add(1, 2);
  histogram b;
  b.add(1);
  b.add(3, 4);
  a.merge(b);
  EXPECT_EQ(a.count(1), 3u);
  EXPECT_EQ(a.count(3), 4u);
  EXPECT_EQ(a.total(), 7u);
}

TEST(Histogram, MinMaxMean) {
  histogram h;
  h.add(2, 2);
  h.add(8, 2);
  EXPECT_EQ(h.min_value(), 2);
  EXPECT_EQ(h.max_value(), 8);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(Histogram, ZeroWeightIsIgnored) {
  histogram h;
  h.add(1, 0);
  EXPECT_TRUE(h.empty());
}

TEST(Histogram, ToStringListsBins) {
  histogram h;
  h.add(1);
  h.add(3, 2);
  EXPECT_EQ(h.to_string(), "1:1 3:2");
}

// ---------------------------------------------------------------- cli --

TEST(Cli, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--flows", "40", "--testbed", "indriya"};
  cli_args args(5, argv);
  EXPECT_EQ(args.get_int("flows", 0), 40);
  EXPECT_EQ(args.get("testbed", ""), "indriya");
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Cli, ParsesBareBooleanFlags) {
  const char* argv[] = {"prog", "--verbose", "--n", "3"};
  cli_args args(4, argv);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("n", 0), 3);
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(cli_args(2, argv), std::invalid_argument);
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n", "abc"};
  cli_args args(3, argv);
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_bool("n", false), std::invalid_argument);

  // The whole token must parse: a numeric prefix is not a number.
  const char* prefixes[] = {"prog",    "--runs",  "1e3",  "--trials",
                            "3x",      "--duty",  "0.3abc", "--seed",
                            "-1",      "--big",   "99999999999999999999"};
  cli_args bad(static_cast<int>(std::size(prefixes)), prefixes);
  EXPECT_THROW(bad.get_int("runs", 0), std::invalid_argument);
  EXPECT_THROW(bad.get_int("trials", 0), std::invalid_argument);
  EXPECT_THROW(bad.get_double("duty", 0.0), std::invalid_argument);
  EXPECT_THROW(bad.get_uint64("seed", 0), std::invalid_argument);
  EXPECT_THROW(bad.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW(parse_int("9x", "node id"), std::invalid_argument);

  // std::stod reads these whole, but no flag takes a non-finite value.
  for (const char* text : {"nan", "inf", "-inf", "infinity"}) {
    const char* argv_nf[] = {"prog", "--rate", text};
    cli_args nonfinite(3, argv_nf);
    EXPECT_THROW(nonfinite.get_double("rate", 0.0), std::invalid_argument)
        << text;
  }

  // Integers must fit an int: a wider value used to be narrowed, so
  // "--channels 4294967300" ran as 4 channels.
  for (const char* text : {"2147483648", "-2147483649", "4294967300"}) {
    const char* argv_wide[] = {"prog", "--channels", text};
    cli_args wide(3, argv_wide);
    EXPECT_THROW(wide.get_int("channels", 0), std::invalid_argument) << text;
    EXPECT_THROW(parse_int(text, "node id"), std::invalid_argument) << text;
  }

  // Well-formed values still parse, signs and exponents where they fit.
  const char* good[] = {"prog", "--n", "-4", "--x", "1e3", "--u", "18",
                        "--max", "2147483647", "--min", "-2147483648"};
  cli_args ok(static_cast<int>(std::size(good)), good);
  EXPECT_EQ(ok.get_int("n", 0), -4);
  EXPECT_DOUBLE_EQ(ok.get_double("x", 0.0), 1000.0);
  EXPECT_EQ(ok.get_uint64("u", 0), 18u);
  EXPECT_EQ(ok.get_int("max", 0), INT_MAX);
  EXPECT_EQ(ok.get_int("min", 0), INT_MIN);
  EXPECT_EQ(parse_int("9", "node id"), 9);
}

TEST(Cli, RejectsDuplicateFlags) {
  // A repeated flag used to keep the last value and silently discard
  // the first — "--trials 2 --trials 200" ran 200 trials with no hint
  // the 2 was ignored.
  const char* dup_value[] = {"prog", "--n", "3", "--n", "4"};
  EXPECT_THROW(cli_args(5, dup_value), std::invalid_argument);
  const char* dup_bare[] = {"prog", "--verbose", "--verbose"};
  EXPECT_THROW(cli_args(3, dup_bare), std::invalid_argument);
  const char* bare_then_value[] = {"prog", "--json", "--json", "out.json"};
  EXPECT_THROW(cli_args(4, bare_then_value), std::invalid_argument);
}

TEST(Cli, RejectsSingleDashAndEmptyFlags) {
  // Unknown shapes fail loudly: single-dash flags and a bare "--" are
  // not silently swallowed as values or keys.
  const char* single_dash[] = {"prog", "-n", "3"};
  EXPECT_THROW(cli_args(3, single_dash), std::invalid_argument);
  const char* stray_value[] = {"prog", "--n", "3", "4"};
  EXPECT_THROW(cli_args(4, stray_value), std::invalid_argument);
}

TEST(Cli, ParsesDoubles) {
  const char* argv[] = {"prog", "--alpha", "0.05"};
  cli_args args(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.05);
}

TEST(Cli, RunMainTurnsAnEscapingErrorIntoExitOne) {
  // A malformed flag used to end the examples through std::terminate
  // (exit 134); run_main reports it and returns 1.
  const auto flows_flag = [](int argc, char** argv) {
    return cli_args(argc, argv).get_int("flows", 20);
  };
  char prog[] = "prog";
  char flag[] = "--flows";
  char bad[] = "abc";
  char good[] = "7";
  char* bad_argv[] = {prog, flag, bad};
  char* good_argv[] = {prog, flag, good};
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(flows_flag, 3, bad_argv), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: flag --flows expects an integer in [-2147483648, "
            "2147483647], got: abc\n");
  EXPECT_EQ(run_main(flows_flag, 3, good_argv), 7);
}

TEST(Cli, RunMainRejectsFlagsNothingRead) {
  // A misspelt flag used to be ignored: "quickstart --flow 5" scheduled
  // the default 20 flows and exited 0. run_main now fails a run that
  // leaves any given flag unread, whichever cli_args (and thread) it
  // was given to, and with the program's own error status.
  const auto flows_flag = [](int argc, char** argv) {
    return cli_args(argc, argv).get_int("flows", 20);
  };
  const auto flows_on_a_worker = [](int argc, char** argv) {
    const cli_args args(argc, argv);
    int flows = 0;
    std::thread worker([&] { flows = args.get_int("flows", 20); });
    worker.join();
    return flows;
  };
  char prog[] = "prog";
  char flows[] = "--flows";
  char flow[] = "--flow";
  char five[] = "5";
  char* misspelt[] = {prog, flow, five};
  char* both[] = {prog, flows, five, flow, five};
  char* correct[] = {prog, flows, five};

  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(flows_flag, 3, misspelt), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: unknown flag --flow\n");
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(flows_flag, 5, both, 2), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: unknown flag --flow\n");

  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(flows_flag, 3, correct), 5);
  EXPECT_EQ(run_main(flows_on_a_worker, 3, correct), 5);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Outside run_main nothing is checked or recorded: a cli_args on its
  // own keeps working, and its unread flag does not fail the next run.
  const cli_args unchecked(3, misspelt);
  EXPECT_EQ(unchecked.get_int("flows", 20), 20);
  EXPECT_EQ(run_main(flows_flag, 3, correct), 5);
}

// -------------------------------------------------------------- error --

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_THROW(WSAN_REQUIRE(false, "boom"), std::invalid_argument);
}

TEST(Error, CheckThrowsLogicError) {
  EXPECT_THROW(WSAN_CHECK(false, "boom"), std::logic_error);
}

TEST(Error, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(WSAN_REQUIRE(true, ""));
  EXPECT_NO_THROW(WSAN_CHECK(true, ""));
}

}  // namespace
}  // namespace wsan
