#include <cerrno>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <set>

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace scoded {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, ErrnoMessageMatchesKnownErrnos) {
  // The exact wording is libc's business; non-empty and distinct per errno
  // is what callers rely on when stitching messages together.
  std::string enoent = ErrnoMessage(ENOENT);
  std::string eacces = ErrnoMessage(EACCES);
  EXPECT_FALSE(enoent.empty());
  EXPECT_FALSE(eacces.empty());
  EXPECT_NE(enoent, eacces);
  EXPECT_EQ(enoent, "No such file or directory");
  // Bogus errno values still come back as printable text.
  EXPECT_FALSE(ErrnoMessage(999999).empty());
}

TEST(StatusTest, OkCodeDropsMessage) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFoundError("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusWithoutValueBecomesInternalError) {
  Result<int> r{Status()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Doubled(Result<int> input) {
  SCODED_ASSIGN_OR_RETURN(int v, input);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_EQ(Doubled(NotFoundError("nope")).status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, CategoricalRespectsZeroWeights) {
  Rng rng(7);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(RngTest, CategoricalRoughlyProportional) {
  Rng rng(42);
  std::vector<double> weights = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  double ratio = static_cast<double>(counts[1]) / counts[0];
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 3.6);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(9);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) {
    EXPECT_LT(s, 100u);
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(5);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"one"}, ","), "one");
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" -2e3 ").value(), -2000.0);
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

// The strtod-only ParseDouble that the from_chars fast path must agree
// with, bit for bit.
std::optional<double> StrtodParseDouble(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) {
    return std::nullopt;
  }
  std::string buffer(trimmed);
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return value;
}

void ExpectSameParse(const std::string& input) {
  std::optional<double> expected = StrtodParseDouble(input);
  std::optional<double> actual = ParseDouble(input);
  ASSERT_EQ(actual.has_value(), expected.has_value()) << "'" << input << "'";
  if (expected.has_value()) {
    uint64_t expected_bits = 0;
    uint64_t actual_bits = 0;
    std::memcpy(&expected_bits, &*expected, sizeof(double));
    std::memcpy(&actual_bits, &*actual, sizeof(double));
    EXPECT_EQ(actual_bits, expected_bits) << "'" << input << "'";
  }
}

TEST(StringUtilTest, ParseDoubleMatchesStrtodBitForBit) {
  // A leading '+', hex, out-of-range values and NaN payloads are the cases
  // from_chars treats differently from strtod.
  for (const char* input :
       {"+1", "0x1p3", "1e400", "-1e400", "1e-400", "4.9e-324", "-0", "nan", "NaN", "-nan",
        "nan(123)", "inf", "-Infinity", " 12 ", "1.", ".5", "1e", "--1", "1,0", "", " ",
        "0", "-0.0", "1e308", "2.2250738585072014e-308", "123456789012345678901234567890"}) {
    ExpectSameParse(input);
  }
  Rng rng(20200614);
  const std::string digits = "0123456789";
  for (int i = 0; i < 10000; ++i) {
    std::string text;
    if (rng.Bernoulli(0.3)) {
      text.push_back('-');
    }
    int64_t int_digits = rng.UniformInt(0, 20);
    for (int64_t d = 0; d < int_digits; ++d) {
      text.push_back(digits[static_cast<size_t>(rng.UniformInt(0, 9))]);
    }
    if (rng.Bernoulli(0.6)) {
      text.push_back('.');
      int64_t frac_digits = rng.UniformInt(0, 20);
      for (int64_t d = 0; d < frac_digits; ++d) {
        text.push_back(digits[static_cast<size_t>(rng.UniformInt(0, 9))]);
      }
    }
    if (rng.Bernoulli(0.4)) {
      text.push_back(rng.Bernoulli(0.5) ? 'e' : 'E');
      if (rng.Bernoulli(0.5)) {
        text.push_back(rng.Bernoulli(0.5) ? '-' : '+');
      }
      text += std::to_string(rng.UniformInt(0, 330));
    }
    ExpectSameParse(text);
  }
}

TEST(StringUtilTest, ParseInt) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -17 ").value(), -17);
  EXPECT_FALSE(ParseInt("3.5").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

TEST(StringUtilTest, ParseCheckedIntAcceptsInRangeIntegers) {
  EXPECT_EQ(ParseCheckedInt("42", 0, 100, "--k").value(), 42);
  EXPECT_EQ(ParseCheckedInt(" -17 ", -100, 0, "--k").value(), -17);
  EXPECT_EQ(ParseCheckedInt("0", 0, 0, "--k").value(), 0);
  EXPECT_EQ(ParseCheckedInt("9223372036854775807", INT64_MIN, INT64_MAX, "cell").value(),
            INT64_MAX);
  EXPECT_EQ(ParseCheckedInt("-9223372036854775808", INT64_MIN, INT64_MAX, "cell").value(),
            INT64_MIN);
}

TEST(StringUtilTest, ParseCheckedIntRejectsJunkAndOverflow) {
  for (const char* bad : {"", "   ", "3.5", "42x", "x42", "4 2", "0x10",
                          "9223372036854775808", "--", "nope"}) {
    Result<int64_t> parsed = ParseCheckedInt(bad, INT64_MIN, INT64_MAX, "--flag");
    EXPECT_FALSE(parsed.ok()) << "input: '" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(StringUtilTest, ParseCheckedIntEnforcesTheRangeAndNamesTheSetting) {
  Result<int64_t> high = ParseCheckedInt("70000", 0, 65535, "--port");
  ASSERT_FALSE(high.ok());
  EXPECT_NE(high.status().message().find("--port"), std::string::npos)
      << high.status().message();
  EXPECT_NE(high.status().message().find("65535"), std::string::npos)
      << high.status().message();
  Result<int64_t> low = ParseCheckedInt("-1", 0, 65535, "SCODED_SHARD_ROWS");
  ASSERT_FALSE(low.ok());
  EXPECT_NE(low.status().message().find("SCODED_SHARD_ROWS"), std::string::npos);
}

TEST(StringUtilTest, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("hello world", "hello"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
}

}  // namespace
}  // namespace scoded
