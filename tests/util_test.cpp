#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "util/cli.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace cq::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 9);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalMeanStddevScaled) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(9);
  Rng child = parent.split();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Rng, RandomPermutationIsPermutation) {
  Rng rng(13);
  const auto perm = random_permutation(50, rng);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Stats, SummarizeBasic) {
  const std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  const Summary s = summarize(std::span<const float>(v));
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-9);
}

TEST(Stats, SummarizeEmpty) {
  const Summary s = summarize(std::span<const float>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, HistogramBucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 9
  h.add(-5.0);  // clamped to bin 0
  h.add(50.0);  // clamped to bin 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Stats, HistogramBinCenter) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_NEAR(h.bin_center(0), 0.5, 1e-9);
  EXPECT_NEAR(h.bin_center(9), 9.5, 1e-9);
}

TEST(Stats, HistogramRenderContainsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1);
  h.add(0.9);
  h.add(0.95);
  const std::string rendered = h.render(10);
  EXPECT_NE(rendered.find("1"), std::string::npos);
  EXPECT_NE(rendered.find("2"), std::string::npos);
}

TEST(Stats, ArgsortAscendingAndDescending) {
  const std::vector<float> v = {3.0f, 1.0f, 2.0f};
  const auto asc = argsort(std::span<const float>(v));
  EXPECT_EQ(asc, (std::vector<std::size_t>{1, 2, 0}));
  const auto desc = argsort_desc(std::span<const float>(v));
  EXPECT_EQ(desc, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(Table, RendersHeaderAndRows) {
  Table t({"model", "acc"});
  t.add_row({"vgg", Table::num(0.925, 3)});
  const std::string s = t.render();
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("0.925"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, AsciiBarScales) {
  EXPECT_EQ(ascii_bar(5.0, 10.0, 10).size(), 5u);
  EXPECT_EQ(ascii_bar(10.0, 10.0, 10).size(), 10u);
  EXPECT_TRUE(ascii_bar(0.0, 10.0, 10).empty());
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = testing::TempDir() + "/cq_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.add_row({"plain", "with,comma"});
    w.add_row({"quote\"inside", "line\nbreak"});
    EXPECT_EQ(w.rows(), 2u);
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--epochs=5", "--verbose", "--lr=0.1", "--name=vgg"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("epochs", 0), 5);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cli.get_double("lr", 0.0), 0.1);
  EXPECT_EQ(cli.get("name", ""), "vgg");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_FALSE(cli.has("missing"));
}

// An integer flag is a whole decimal number in its range or an error
// naming --key=value: no strtol-style prefix ("4x" -> 4, "abc" -> 0).
TEST(Cli, IntegersAreWholeNumbersInRange) {
  const char* argv[] = {"prog", "--a=abc", "--b=4x", "--c=", "--d=-3", "--e=257", "--f=256",
                        "--g=99999999999999999999"};
  Cli cli(8, const_cast<char**>(argv));
  for (const char* key : {"a", "b", "c", "g"}) {
    EXPECT_THROW(cli.get_int(key, 1), std::invalid_argument) << key;
  }
  EXPECT_EQ(-3, cli.get_int("d", 0));
  EXPECT_THROW(cli.get_int("d", 0, 0, 10), std::invalid_argument);
  EXPECT_EQ(256, cli.get_int("f", 1, 1, 256));
  EXPECT_EQ(7, cli.get_int("missing", 7, 1, 256));  // the fallback is not checked
  try {
    cli.get_int("e", 1, 1, 256);
    FAIL() << "257 accepted in [1, 256]";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ("--e=257: expected a whole number in [1, 256]", e.what());
  }
}

}  // namespace
}  // namespace cq::util
