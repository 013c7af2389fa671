#include "stats/shard_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/hypothesis.h"
#include "table/table.h"

namespace scoded {
namespace {

// Bit-exact comparison of every TestResult field: the acceptance for the
// mergeable summaries is *identity* with the in-memory path, not
// closeness. EXPECT_EQ on doubles is deliberate.
void ExpectSameResult(const TestResult& expected, const TestResult& actual) {
  EXPECT_EQ(expected.method, actual.method);
  EXPECT_EQ(expected.statistic, actual.statistic);
  EXPECT_EQ(expected.p_value, actual.p_value);
  EXPECT_EQ(expected.dof, actual.dof);
  EXPECT_EQ(expected.n, actual.n);
  EXPECT_EQ(expected.effect, actual.effect);
  EXPECT_EQ(expected.used_exact, actual.used_exact);
  EXPECT_EQ(expected.strata_used, actual.strata_used);
  EXPECT_EQ(expected.strata_skipped, actual.strata_skipped);
  EXPECT_EQ(expected.approximation_suspect, actual.approximation_suspect);
  EXPECT_EQ(expected.min_expected, actual.min_expected);
}

// Rebuilds a shard with shard-local categorical dictionaries (first
// appearance within the shard), the way csv::ShardReader yields shards.
// Table::Gather keeps the parent dictionary, so without this the interning
// path through partial dictionaries would go untested.
Table LocalizeDictionaries(const Table& shard) {
  TableBuilder builder;
  for (size_t c = 0; c < shard.NumColumns(); ++c) {
    const Column& col = shard.column(c);
    const std::string& name = shard.schema().field(c).name;
    if (col.type() == ColumnType::kNumeric) {
      builder.AddColumn(name, col);
      continue;
    }
    std::vector<std::string> dict;
    std::vector<int32_t> codes(shard.NumRows(), -1);
    for (size_t row = 0; row < shard.NumRows(); ++row) {
      if (col.IsNull(row)) {
        continue;
      }
      const std::string& value = col.CategoryAt(row);
      int32_t code = -1;
      for (size_t d = 0; d < dict.size(); ++d) {
        if (dict[d] == value) {
          code = static_cast<int32_t>(d);
          break;
        }
      }
      if (code < 0) {
        code = static_cast<int32_t>(dict.size());
        dict.push_back(value);
      }
      codes[row] = code;
    }
    builder.AddColumn(name, Column::CategoricalFromCodes(std::move(codes), std::move(dict)));
  }
  Result<Table> rebuilt = std::move(builder).Build();
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  return std::move(rebuilt).value();
}

// Splits [0, n) at `cuts` (ascending, interior) into contiguous slices.
std::vector<std::vector<size_t>> SlicesOf(size_t n, const std::vector<size_t>& cuts) {
  std::vector<std::vector<size_t>> slices;
  size_t start = 0;
  auto flush = [&](size_t end) {
    std::vector<size_t> rows;
    for (size_t i = start; i < end; ++i) {
      rows.push_back(i);
    }
    slices.push_back(std::move(rows));
    start = end;
  };
  for (size_t cut : cuts) {
    flush(cut);
  }
  flush(n);
  return slices;
}

// Runs the out-of-core path over the given contiguous shards: FromShard
// per slice, fold (sequentially or as a left-leaning tree), Finish, and —
// when the permutation fallback triggers — the second row pass.
Result<TestResult> ShardedResult(const Table& table, int x, int y, std::vector<int> z,
                                 const TestOptions& options,
                                 const std::vector<std::vector<size_t>>& slices, bool localize,
                                 bool tree_merge) {
  PairwiseShardSummary::Spec spec{x, y, std::move(z)};
  std::vector<Table> shards;
  std::vector<PairwiseShardSummary> partials;
  uint64_t offset = 0;
  for (const std::vector<size_t>& slice : slices) {
    Table shard = table.Gather(slice);
    if (localize) {
      shard = LocalizeDictionaries(shard);
    }
    partials.push_back(PairwiseShardSummary::FromShard(shard, spec, offset));
    offset += slice.size();
    shards.push_back(std::move(shard));
  }
  PairwiseShardSummary folded;
  if (tree_merge) {
    // Pairwise tree reduction in order: (s0·s1)·(s2·s3)·... — associativity
    // over row-contiguous summaries is part of the contract.
    while (partials.size() > 1) {
      std::vector<PairwiseShardSummary> next;
      for (size_t i = 0; i < partials.size(); i += 2) {
        if (i + 1 < partials.size()) {
          partials[i].Merge(partials[i + 1]);
        }
        next.push_back(std::move(partials[i]));
      }
      partials = std::move(next);
    }
    folded = std::move(partials[0]);
  } else {
    folded = PairwiseShardSummary(table, spec);
    for (const PairwiseShardSummary& partial : partials) {
      folded.Merge(partial);
    }
  }
  EXPECT_EQ(folded.rows(), static_cast<int64_t>(table.NumRows()));
  SCODED_ASSIGN_OR_RETURN(PairwiseShardSummary::FinishOutcome outcome, folded.Finish(options));
  if (outcome.needs_row_pass) {
    std::vector<PermutationStratum> strata(folded.NumPermutationStrata());
    for (const Table& shard : shards) {
      folded.CollectPermutationCodes(shard, &strata);
    }
    outcome.result.p_value = GPermutationFallbackPValue(
        strata, options.permutation_fallback_iterations, options.permutation_seed);
    outcome.result.used_exact = true;
  }
  return outcome.result;
}

// The property at the heart of the out-of-core feature: for any contiguous
// sharding of the rows, merged summaries reproduce the whole-table test
// bit for bit — sequentially folded, tree-folded, with global or
// shard-local dictionaries.
void CheckShardingInvariance(const Table& table, int x, int y, const std::vector<int>& z,
                             const TestOptions& options, uint64_t seed) {
  Result<TestResult> expected = IndependenceTest(table, x, y, z, options);
  ASSERT_TRUE(expected.ok()) << expected.status().message();
  Rng rng(seed);
  size_t n = table.NumRows();
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<size_t> cuts;
    if (trial > 0 && n > 1) {
      size_t num_cuts = static_cast<size_t>(rng.UniformInt(1, 5));
      for (size_t c = 0; c < num_cuts; ++c) {
        cuts.push_back(static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(n) - 1)));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    }
    std::vector<std::vector<size_t>> slices = SlicesOf(n, cuts);
    bool localize = trial % 2 == 1;
    bool tree = trial % 3 == 2;
    Result<TestResult> actual = ShardedResult(table, x, y, z, options, slices, localize, tree);
    ASSERT_TRUE(actual.ok()) << actual.status().message();
    ExpectSameResult(*expected, *actual);
  }
}

// Builds categorical codes with a first-appearance dictionary — the order
// csv::ReadFile (and the ShardReader dictionary merge) produces. The
// bit-identity contract is stated against that canonical order; a
// hand-permuted dictionary yields the same statistic but possibly
// different low-order float bits (different summation order).
Column InternFirstAppearance(const std::vector<const char*>& values) {
  std::vector<std::string> dict;
  std::vector<int32_t> codes;
  for (const char* value : values) {
    if (value == nullptr) {
      codes.push_back(-1);
      continue;
    }
    int32_t code = -1;
    for (size_t d = 0; d < dict.size(); ++d) {
      if (dict[d] == value) {
        code = static_cast<int32_t>(d);
        break;
      }
    }
    if (code < 0) {
      code = static_cast<int32_t>(dict.size());
      dict.push_back(value);
    }
    codes.push_back(code);
  }
  return Column::CategoricalFromCodes(std::move(codes), std::move(dict));
}

Table CarsLikeTable(size_t n, uint64_t seed, bool with_nulls) {
  Rng rng(seed);
  std::vector<std::string> models = {"civic", "corolla", "focus", "golf", "a4"};
  std::vector<std::string> colors = {"red", "blue", "white"};
  std::vector<const char*> model_values;
  std::vector<const char*> color_values;
  std::vector<double> price(n);
  std::vector<double> mileage(n);
  std::vector<bool> price_valid(n, true);
  for (size_t i = 0; i < n; ++i) {
    int64_t m = rng.UniformInt(0, static_cast<int64_t>(models.size()) - 1);
    model_values.push_back(models[m].c_str());
    // Color depends weakly on model so the G path sees real structure.
    int64_t c = rng.UniformInt(0, 9) < 3 ? m % 3
                                         : rng.UniformInt(0, static_cast<int64_t>(colors.size()) - 1);
    color_values.push_back(colors[c].c_str());
    price[i] = static_cast<double>(10 + m * 3 + rng.UniformInt(0, 6));
    mileage[i] = static_cast<double>(rng.UniformInt(0, 14));
    if (with_nulls) {
      if (rng.UniformInt(0, 19) == 0) {
        model_values.back() = nullptr;
      }
      if (rng.UniformInt(0, 19) == 1) {
        color_values.back() = nullptr;
      }
      if (rng.UniformInt(0, 19) == 2) {
        price_valid[i] = false;
      }
      if (rng.UniformInt(0, 29) == 3) {
        price[i] = 0.0;  // exercise the -0.0/+0.0 key normalisation
      } else if (rng.UniformInt(0, 29) == 4) {
        price[i] = -0.0;
      }
    }
  }
  Result<Table> table =
      std::move(TableBuilder()
                    .AddColumn("Model", InternFirstAppearance(model_values))
                    .AddColumn("Color", InternFirstAppearance(color_values))
                    .AddNumericWithNulls("Price", std::move(price), std::move(price_valid))
                    .AddNumeric("Mileage", std::move(mileage)))
          .Build();
  EXPECT_TRUE(table.ok());
  return std::move(table).value();
}

TEST(ShardStatsTest, UnconditionalGTestMatchesAtAnySharding) {
  Table table = CarsLikeTable(200, 11, /*with_nulls=*/true);
  CheckShardingInvariance(table, 0, 1, {}, TestOptions{}, 101);
}

TEST(ShardStatsTest, MixedPairQuantileGMatches) {
  Table table = CarsLikeTable(150, 12, /*with_nulls=*/true);
  CheckShardingInvariance(table, 0, 2, {}, TestOptions{}, 102);  // Model vs Price
}

TEST(ShardStatsTest, UnconditionalTauWithTiesMatches) {
  Table table = CarsLikeTable(120, 13, /*with_nulls=*/true);
  CheckShardingInvariance(table, 2, 3, {}, TestOptions{}, 103);  // Price vs Mileage
}

TEST(ShardStatsTest, SmallTieFreeTauUsesExactNullInBothPaths) {
  std::vector<double> x = {3.5, 1.25, 7.0, 2.5, 9.75, 4.125, 6.5, 0.5};
  std::vector<double> y = {2.0, 8.5, 1.75, 6.25, 0.125, 5.5, 3.25, 9.0};
  Result<Table> table = std::move(TableBuilder()
                                      .AddNumeric("X", std::move(x))
                                      .AddNumeric("Y", std::move(y)))
                            .Build();
  ASSERT_TRUE(table.ok());
  Result<TestResult> whole = IndependenceTest(*table, 0, 1, {}, TestOptions{});
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->used_exact);
  CheckShardingInvariance(*table, 0, 1, {}, TestOptions{}, 104);
}

TEST(ShardStatsTest, ConditionalGOnCategoricalZMatches) {
  Table table = CarsLikeTable(220, 14, /*with_nulls=*/true);
  CheckShardingInvariance(table, 1, 2, {0}, TestOptions{}, 105);  // Color vs Price | Model
}

TEST(ShardStatsTest, ConditionalTauMatchesIncludingSkippedStrata) {
  Table table = CarsLikeTable(180, 15, /*with_nulls=*/true);
  TestOptions options;
  options.min_stratum_size = 16;  // force some strata to be skipped
  CheckShardingInvariance(table, 2, 3, {0}, options, 106);  // Price vs Mileage | Model
}

TEST(ShardStatsTest, NumericZIsQuantileBinnedIdentically) {
  Rng rng(16);
  size_t n = 240;
  std::vector<double> zv(n);
  std::vector<double> xv(n);
  std::vector<std::string> yv;
  for (size_t i = 0; i < n; ++i) {
    zv[i] = rng.Uniform(0.0, 100.0);  // far more than condition_max_distinct values
    xv[i] = static_cast<double>(rng.UniformInt(0, 8)) + zv[i] / 200.0;
    yv.push_back(rng.UniformInt(0, 1) == 0 ? "lo" : "hi");
  }
  Result<Table> table = std::move(TableBuilder()
                                      .AddNumeric("X", std::move(xv))
                                      .AddCategorical("Y", yv)
                                      .AddNumeric("Z", std::move(zv)))
                            .Build();
  ASSERT_TRUE(table.ok());
  Result<TestResult> whole = IndependenceTest(*table, 0, 1, {2}, TestOptions{});
  ASSERT_TRUE(whole.ok());
  EXPECT_GT(whole->strata_used, size_t{1});
  CheckShardingInvariance(*table, 0, 1, {2}, TestOptions{}, 107);
}

TEST(ShardStatsTest, NonNullNaNValuesFollowTheInMemoryConventions) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x = {1.0, 2.0, nan, 4.0, 5.0, nan, 7.0, 8.0, 2.0, 3.0, 1.5, 6.0};
  std::vector<double> y = {2.0, 1.0, 3.0, nan, 5.0, 6.0, 7.0, nan, 2.5, 3.5, 0.5, 4.0};
  std::vector<bool> all_valid(x.size(), true);  // NaN but NOT null
  std::vector<bool> all_valid2(x.size(), true);
  Result<Table> table =
      std::move(TableBuilder()
                    .AddNumericWithNulls("X", std::move(x), std::move(all_valid))
                    .AddNumericWithNulls("Y", std::move(y), std::move(all_valid2)))
          .Build();
  ASSERT_TRUE(table.ok());
  CheckShardingInvariance(*table, 0, 1, {}, TestOptions{}, 108);
}

// The general (non-dense) accumulation path pre-aggregates each shard's
// distinct cells; these shapes stress that table: every row its own cell
// (so it grows many times), mostly-null rows (few cells, huge counts), and
// the signed-zero and NaN keys whose bit patterns need care.
TEST(ShardStatsTest, EveryRowADistinctCellMatches) {
  Rng rng(21);
  size_t n = 3000;
  std::vector<std::string> x;
  std::vector<double> y(n);
  std::vector<std::string> z;
  for (size_t i = 0; i < n; ++i) {
    x.push_back("x" + std::to_string(rng.UniformInt(0, 40)));
    y[i] = static_cast<double>(i) + 0.25;  // unique, so every (z, x, y) tuple is too
    z.push_back(rng.UniformInt(0, 2) == 0 ? "a" : "b");
  }
  Result<Table> table = std::move(TableBuilder()
                                      .AddCategorical("X", x)
                                      .AddNumeric("Y", std::move(y))
                                      .AddCategorical("Z", z))
                            .Build();
  ASSERT_TRUE(table.ok());
  PairwiseShardSummary whole = PairwiseShardSummary::FromShard(*table, {0, 1, {2}}, 0);
  EXPECT_EQ(whole.num_cells(), n);
  CheckShardingInvariance(*table, 0, 1, {2}, TestOptions{}, 121);
}

TEST(ShardStatsTest, NullHeavyRowsMatch) {
  Rng rng(22);
  size_t n = 600;
  std::vector<const char*> x;
  std::vector<const char*> z;
  std::vector<double> y(n);
  std::vector<bool> y_valid(n);
  const char* const kValues[] = {"p", "q", "r"};
  for (size_t i = 0; i < n; ++i) {
    x.push_back(rng.UniformInt(0, 9) < 7 ? nullptr : kValues[rng.UniformInt(0, 2)]);
    z.push_back(rng.UniformInt(0, 9) < 7 ? nullptr : kValues[rng.UniformInt(0, 1)]);
    y[i] = static_cast<double>(rng.UniformInt(0, 5));
    y_valid[i] = rng.UniformInt(0, 9) >= 7;
  }
  Result<Table> table =
      std::move(TableBuilder()
                    .AddColumn("X", InternFirstAppearance(x))
                    .AddNumericWithNulls("Y", std::move(y), std::move(y_valid))
                    .AddColumn("Z", InternFirstAppearance(z)))
          .Build();
  ASSERT_TRUE(table.ok());
  CheckShardingInvariance(*table, 0, 1, {2}, TestOptions{}, 122);
  CheckShardingInvariance(*table, 0, 1, {}, TestOptions{}, 123);
}

TEST(ShardStatsTest, SignedZeroAndNaNKeysMatch) {
  Rng rng(23);
  double nan = std::numeric_limits<double>::quiet_NaN();
  const double kValues[] = {0.0, -0.0, nan, -nan, 1.0, -1.0};
  size_t n = 400;
  std::vector<double> x(n);
  std::vector<double> y(n);
  std::vector<double> z(n);
  std::vector<bool> x_valid(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = kValues[rng.UniformInt(0, 5)];
    x_valid[i] = rng.UniformInt(0, 9) != 0;  // NaN stays a value where valid
    y[i] = kValues[rng.UniformInt(0, 5)];     // no validity vector: NaN is null
    z[i] = rng.UniformInt(0, 1) == 0 ? 0.0 : -0.0;
  }
  Result<Table> table = std::move(TableBuilder()
                                      .AddNumericWithNulls("X", std::move(x), std::move(x_valid))
                                      .AddNumeric("Y", std::move(y))
                                      .AddNumeric("Z", std::move(z)))
                            .Build();
  ASSERT_TRUE(table.ok());
  CheckShardingInvariance(*table, 0, 1, {2}, TestOptions{}, 124);
  CheckShardingInvariance(*table, 0, 1, {}, TestOptions{}, 125);
}

TEST(ShardStatsTest, FisherRoutingMatches) {
  Rng rng(17);
  size_t n = 40;
  std::vector<std::string> a;
  std::vector<std::string> b;
  for (size_t i = 0; i < n; ++i) {
    bool flip = rng.UniformInt(0, 3) == 0;
    a.push_back(rng.UniformInt(0, 1) == 0 ? "yes" : "no");
    b.push_back(flip ? (a.back() == "yes" ? "up" : "down")
                     : (rng.UniformInt(0, 1) == 0 ? "up" : "down"));
  }
  Result<Table> table =
      std::move(TableBuilder().AddCategorical("A", a).AddCategorical("B", b)).Build();
  ASSERT_TRUE(table.ok());
  TestOptions options;
  options.use_fisher_for_2x2 = true;
  Result<TestResult> whole = IndependenceTest(*table, 0, 1, {}, options);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->used_exact);  // Fisher fired
  CheckShardingInvariance(*table, 0, 1, {}, options, 109);
}

TEST(ShardStatsTest, PermutationFallbackMatchesViaSecondPass) {
  // Near-unique categories: dof >= n makes the χ² approximation grossly
  // inadequate, forcing the Monte-Carlo fallback in both paths.
  Rng rng(18);
  size_t n = 60;
  std::vector<std::string> a;
  std::vector<std::string> b;
  for (size_t i = 0; i < n; ++i) {
    a.push_back("a" + std::to_string(rng.UniformInt(0, 29)));
    b.push_back("b" + std::to_string(rng.UniformInt(0, 29)));
  }
  Result<Table> table =
      std::move(TableBuilder().AddCategorical("A", a).AddCategorical("B", b)).Build();
  ASSERT_TRUE(table.ok());
  TestOptions options;
  options.permutation_fallback_iterations = 50;
  Result<TestResult> whole = IndependenceTest(*table, 0, 1, {}, options);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->used_exact);  // fallback fired
  CheckShardingInvariance(*table, 0, 1, {}, options, 110);
}

TEST(ShardStatsTest, StratifiedPermutationFallbackMatches) {
  Rng rng(19);
  size_t n = 90;
  std::vector<std::string> a;
  std::vector<std::string> b;
  std::vector<std::string> z;
  for (size_t i = 0; i < n; ++i) {
    a.push_back("a" + std::to_string(rng.UniformInt(0, 24)));
    b.push_back("b" + std::to_string(rng.UniformInt(0, 24)));
    z.push_back(rng.UniformInt(0, 1) == 0 ? "east" : "west");
  }
  Result<Table> table = std::move(TableBuilder()
                                      .AddCategorical("A", a)
                                      .AddCategorical("B", b)
                                      .AddCategorical("Z", z))
                            .Build();
  ASSERT_TRUE(table.ok());
  TestOptions options;
  options.permutation_fallback_iterations = 50;
  Result<TestResult> whole = IndependenceTest(*table, 0, 1, {2}, options);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->used_exact);
  CheckShardingInvariance(*table, 0, 1, {2}, options, 111);
}

TEST(ShardStatsTest, SpearmanIsRefused) {
  Table table = CarsLikeTable(30, 20, /*with_nulls=*/false);
  PairwiseShardSummary summary(table, {2, 3, {}});
  summary.Accumulate(table, 0);
  TestOptions options;
  options.numeric_method = NumericMethod::kSpearman;
  Result<PairwiseShardSummary::FinishOutcome> outcome = summary.Finish(options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnimplemented);
}

TEST(ShardStatsTest, EmptyTableMatches) {
  Result<Table> table = std::move(TableBuilder()
                                      .AddNumeric("X", {})
                                      .AddNumeric("Y", {})
                                      .AddCategorical("Z", {}))
                            .Build();
  ASSERT_TRUE(table.ok());
  for (const std::vector<int>& z : std::vector<std::vector<int>>{{}, {2}}) {
    Result<TestResult> whole = IndependenceTest(*table, 0, 1, z, TestOptions{});
    ASSERT_TRUE(whole.ok());
    PairwiseShardSummary summary(*table, {0, 1, z});
    Result<PairwiseShardSummary::FinishOutcome> outcome = summary.Finish(TestOptions{});
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_FALSE(outcome->needs_row_pass);
    ExpectSameResult(*whole, outcome->result);
  }
}

}  // namespace
}  // namespace scoded
