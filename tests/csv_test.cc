#include "table/csv.h"

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "table/csv_stream.h"

#include <gtest/gtest.h>

namespace scoded::csv {
namespace {

TEST(CsvReadTest, BasicTypesInferred) {
  Table t = ReadString("name,age\nalice,30\nbob,25\n").value();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.schema().field(0).type, ColumnType::kCategorical);
  EXPECT_EQ(t.schema().field(1).type, ColumnType::kNumeric);
  EXPECT_DOUBLE_EQ(t.ColumnByName("age").NumericAt(0), 30.0);
  EXPECT_EQ(t.ColumnByName("name").CategoryAt(1), "bob");
}

TEST(CsvReadTest, EmptyCellsBecomeNulls) {
  Table t = ReadString("a,b\n1,x\n,y\n3,\n").value();
  EXPECT_TRUE(t.ColumnByName("a").IsNull(1));
  EXPECT_TRUE(t.ColumnByName("b").IsNull(2));
  EXPECT_EQ(t.ColumnByName("a").NullCount(), 1u);
}

TEST(CsvReadTest, MixedColumnFallsBackToCategorical) {
  Table t = ReadString("v\n1\ntwo\n3\n").value();
  EXPECT_EQ(t.schema().field(0).type, ColumnType::kCategorical);
  EXPECT_EQ(t.column(0).CategoryAt(1), "two");
}

TEST(CsvReadTest, NoHeaderGeneratesColumnNames) {
  ReadOptions options;
  options.has_header = false;
  Table t = ReadString("1,2\n3,4\n", options).value();
  EXPECT_EQ(t.schema().field(0).name, "c0");
  EXPECT_EQ(t.schema().field(1).name, "c1");
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(CsvReadTest, QuotedFieldsWithDelimitersAndEscapes) {
  Table t = ReadString("a,b\n\"x,y\",\"say \"\"hi\"\"\"\n").value();
  EXPECT_EQ(t.column(0).CategoryAt(0), "x,y");
  EXPECT_EQ(t.column(1).CategoryAt(0), "say \"hi\"");
}

TEST(CsvReadTest, CrLfLineEndings) {
  Table t = ReadString("a\r\n1\r\n2\r\n").value();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(t.column(0).NumericAt(1), 2.0);
}

TEST(CsvReadTest, RaggedRowIsError) {
  Result<Table> r = ReadString("a,b\n1\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvReadTest, EmptyInputIsError) {
  EXPECT_FALSE(ReadString("").ok());
}

TEST(CsvReadTest, CustomDelimiter) {
  ReadOptions options;
  options.delimiter = ';';
  Table t = ReadString("a;b\n1;2\n", options).value();
  EXPECT_EQ(t.NumColumns(), 2u);
  EXPECT_DOUBLE_EQ(t.column(1).NumericAt(0), 2.0);
}

TEST(CsvWriteTest, RoundTrip) {
  Table t = ReadString("name,score\nann,1.5\n\"b,c\",2\n").value();
  std::string text = WriteString(t);
  Table back = ReadString(text).value();
  EXPECT_EQ(back.NumRows(), t.NumRows());
  EXPECT_EQ(back.ColumnByName("name").CategoryAt(1), "b,c");
  EXPECT_DOUBLE_EQ(back.ColumnByName("score").NumericAt(0), 1.5);
}

TEST(CsvWriteTest, NullsRenderEmpty) {
  Table t = ReadString("a,b\n1,x\n,y\n2,z\n").value();
  std::string text = WriteString(t);
  EXPECT_EQ(text, "a,b\n1,x\n,y\n2,z\n");
}

TEST(CsvReadTest, BlankLinesAreSkipped) {
  Table t = ReadString("a\n1\n\n2\n").value();
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(CsvFileTest, WriteAndReadBack) {
  std::string path = ::testing::TempDir() + "/scoded_csv_test.csv";
  Table t = ReadString("x,y\n1,a\n2,b\n").value();
  ASSERT_TRUE(WriteFile(t, path).ok());
  Table back = ReadFile(path).value();
  EXPECT_EQ(back.NumRows(), 2u);
  EXPECT_EQ(back.ColumnByName("y").CategoryAt(1), "b");
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsNotFound) {
  Result<Table> r = ReadFile("/nonexistent/definitely/missing.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CsvReadTest, QuotedNewlinesStayInsideField) {
  // A raw newline inside a quoted field is field content, not a record
  // terminator; the naive line-splitting reader used to break here.
  Table t = ReadString("a,b\n\"line1\nline2\",x\n1,y\n").value();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.column(0).CategoryAt(0), "line1\nline2");
  EXPECT_EQ(t.column(1).CategoryAt(1), "y");
}

TEST(CsvReadTest, QuotedCrLfStaysInsideField) {
  Table t = ReadString("a\r\n\"x\r\ny\"\r\n").value();
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.column(0).CategoryAt(0), "x\r\ny");
}

TEST(CsvReadTest, WhitespacePreservedInsideQuotes) {
  // Unquoted fields are trimmed; quoted content is verbatim.
  Table t = ReadString("a,b\n  plain  ,\"  padded  \"\n").value();
  EXPECT_EQ(t.column(0).CategoryAt(0), "plain");
  EXPECT_EQ(t.column(1).CategoryAt(0), "  padded  ");
}

TEST(CsvReadTest, UnterminatedQuoteIsError) {
  Result<Table> r = ReadString("a\n\"oops\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvWriteTest, RoundTripPreservesNewlinesQuotesAndPadding) {
  const std::vector<std::string> nasty = {
      "plain",       "comma,inside", "quote\"inside", "newline\ninside",
      "crlf\r\nin",  "  padded  ",   "\ttabbed\t",    "both\",\nof them",
      "trailing\n",  "\"quoted\"",   "a,\"b\",c",     "ends with space ",
  };
  TableBuilder builder;
  builder.AddCategorical("v", nasty);
  Table t = std::move(builder).Build().value();
  std::string text = WriteString(t);
  Table back = ReadString(text).value();
  ASSERT_EQ(back.NumRows(), nasty.size());
  for (size_t i = 0; i < nasty.size(); ++i) {
    EXPECT_EQ(back.column(0).CategoryAt(i), nasty[i]) << "row " << i;
  }
  // Fixpoint: a second write of the re-read table is byte-identical.
  EXPECT_EQ(WriteString(back), text);
}

TEST(CsvWriteTest, HeaderNamesSurviveRoundTrip) {
  TableBuilder builder;
  builder.AddNumeric("with,comma", {1.0});
  builder.AddNumeric(" padded name ", {2.0});
  builder.AddNumeric("multi\nline", {3.0});
  Table t = std::move(builder).Build().value();
  Table back = ReadString(WriteString(t)).value();
  EXPECT_EQ(back.schema().field(0).name, "with,comma");
  EXPECT_EQ(back.schema().field(1).name, " padded name ");
  EXPECT_EQ(back.schema().field(2).name, "multi\nline");
  EXPECT_DOUBLE_EQ(back.ColumnByName(" padded name ").NumericAt(0), 2.0);
}

TEST(CsvWriteTest, RandomizedRoundTripProperty) {
  // Deterministic pseudo-random strings over a hostile alphabet; every
  // WriteString -> ReadString round trip must reproduce the table exactly.
  const std::string alphabet = "ab,\"\n\r \t;x";
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::string> col_a;
  std::vector<std::string> col_b;
  for (int r = 0; r < 60; ++r) {
    std::string a;
    std::string b;
    size_t len_a = next() % 8;
    size_t len_b = 1 + next() % 6;  // non-empty so no nulls complicate equality
    for (size_t i = 0; i < len_a; ++i) {
      a.push_back(alphabet[next() % alphabet.size()]);
    }
    for (size_t i = 0; i < len_b; ++i) {
      b.push_back(alphabet[next() % alphabet.size()]);
    }
    // An empty or all-whitespace unquoted value reads back as null, which
    // is by design; normalise those to a sentinel for exact comparison.
    if (a.empty()) {
      a = "x";
    }
    col_a.push_back(a);
    col_b.push_back(b);
  }
  TableBuilder builder;
  builder.AddCategorical("a", col_a);
  builder.AddCategorical("b", col_b);
  Table t = std::move(builder).Build().value();
  std::string text = WriteString(t);
  Table back = ReadString(text).value();
  ASSERT_EQ(back.NumRows(), t.NumRows());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if (t.column(0).IsNull(r)) {
      EXPECT_TRUE(back.column(0).IsNull(r));
    } else {
      EXPECT_EQ(back.column(0).CategoryAt(r), t.column(0).CategoryAt(r)) << "row " << r;
    }
    if (t.column(1).IsNull(r)) {
      EXPECT_TRUE(back.column(1).IsNull(r));
    } else {
      EXPECT_EQ(back.column(1).CategoryAt(r), t.column(1).CategoryAt(r)) << "row " << r;
    }
  }
  EXPECT_EQ(WriteString(back), text);
}

// ---------------------------------------------------------------------------
// ShardReader change detection: the reader's two passes verify, rather than
// trust, that the file stayed put in between.

namespace {

void WriteRows(const std::string& path, int rows, const char* tag) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good());
  out << "name,score\n";
  for (int i = 0; i < rows; ++i) {
    out << tag << i % 7 << ',' << i * 3 << '\n';
  }
}

// Drains the reader and returns the terminal status (OK when the file
// streamed to a clean end-of-input).
Status Drain(ShardReader& reader) {
  for (int guard = 0; guard < 1000; ++guard) {
    Result<std::optional<Table>> shard = reader.Next();
    if (!shard.ok()) {
      return shard.status();
    }
    if (!shard->has_value()) {
      return OkStatus();
    }
  }
  return InternalError("reader never terminated");
}

}  // namespace

TEST(ShardReaderChangeDetectionTest, UnchangedFileStreamsCleanly) {
  std::string path = ::testing::TempDir() + "/shard_reader_stable.csv";
  WriteRows(path, 50, "row");
  ShardReaderOptions options;
  options.shard_rows = 8;
  options.buffer_bytes = 64;  // small chunks: pass 2 reads the disk lazily
  Result<ShardReader> reader = ShardReader::Open(path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_TRUE(Drain(*reader).ok());
  std::remove(path.c_str());
}

TEST(ShardReaderChangeDetectionTest, TruncationBetweenPassesIsDataLoss) {
  std::string path = ::testing::TempDir() + "/shard_reader_truncated.csv";
  WriteRows(path, 50, "row");
  ShardReaderOptions options;
  options.shard_rows = 8;
  options.buffer_bytes = 64;
  Result<ShardReader> reader = ShardReader::Open(path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  WriteRows(path, 10, "row");  // rewritten shorter after the first pass
  Status status = Drain(*reader);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("changed between passes"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(ShardReaderChangeDetectionTest, AppendBetweenPassesIsDataLoss) {
  std::string path = ::testing::TempDir() + "/shard_reader_appended.csv";
  WriteRows(path, 50, "row");
  ShardReaderOptions options;
  options.shard_rows = 8;
  options.buffer_bytes = 64;
  Result<ShardReader> reader = ShardReader::Open(path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  {
    std::ofstream out(path, std::ios::app);
    ASSERT_TRUE(out.good());
    for (int i = 0; i < 20; ++i) {
      out << "extra" << i % 5 << ',' << i << '\n';
    }
  }
  Status status = Drain(*reader);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("changed between passes"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(ShardReaderChangeDetectionTest, SameLengthNumericToTextRewriteIsDataLoss) {
  // Every byte and row total still holds; only a cell that pass 1 typed
  // numeric stops parsing as a number.
  std::string path = ::testing::TempDir() + "/shard_reader_retyped.csv";
  WriteRows(path, 50, "row");
  ShardReaderOptions options;
  options.shard_rows = 8;
  options.buffer_bytes = 64;
  Result<ShardReader> reader = ShardReader::Open(path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(static_cast<std::streamoff>(std::string("name,score\nrow0,").size()));
    file << 'x';  // row 0's score "0" becomes "x"
  }
  Status status = Drain(*reader);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("changed between passes"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scoded::csv
