// Differential test of CSV ingest. csv::ReadString and ShardReader parse
// through SpanScanner and ColumnBuilder; the oracle here is the
// record-at-a-time path they replaced: RecordScanner + the width check and
// type inference of the old ReadString + BuildTableFromRecords. Seeded
// random inputs (well-formed CSV with every quoting and line-ending quirk,
// plus raw byte soup) must give the same Table — types, double bit
// patterns, codes, dictionaries, nulls — or the same error code and text.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "table/csv.h"
#include "table/csv_scan.h"
#include "table/csv_stream.h"

namespace scoded::csv {
namespace {

struct OracleParse {
  std::vector<RawRecord> records;  // every record, header included
  size_t first_data_row = 0;
  std::vector<std::string> names;
  std::vector<bool> numeric;
};

// The pre-span ReadString, up to (not including) the table build.
Result<OracleParse> OracleScan(std::string_view text, const ReadOptions& options) {
  OracleParse parse;
  RecordScanner scanner(options.delimiter);
  scanner.Consume(text, &parse.records);
  SCODED_RETURN_IF_ERROR(scanner.Finish(&parse.records));
  const std::vector<RawRecord>& rows = parse.records;
  if (rows.empty()) {
    return InvalidArgumentError("CSV input is empty");
  }
  if (options.has_header) {
    for (const RawField& name : rows[0]) {
      parse.names.push_back(name.text);
    }
    parse.first_data_row = 1;
  } else {
    for (size_t i = 0; i < rows[0].size(); ++i) {
      parse.names.push_back("c" + std::to_string(i));
    }
  }
  size_t num_cols = parse.names.size();
  for (size_t r = parse.first_data_row; r < rows.size(); ++r) {
    if (rows[r].size() != num_cols) {
      return InvalidArgumentError("CSV row " + std::to_string(r + 1) + " has " +
                                  std::to_string(rows[r].size()) + " fields, expected " +
                                  std::to_string(num_cols));
    }
  }
  for (size_t c = 0; c < num_cols; ++c) {
    bool is_numeric = options.infer_types;
    bool any_value = false;
    for (size_t r = parse.first_data_row; is_numeric && r < rows.size(); ++r) {
      const std::string& cell = rows[r][c].text;
      if (cell.empty()) {
        continue;
      }
      any_value = true;
      is_numeric = ParseDouble(cell).has_value();
    }
    parse.numeric.push_back(is_numeric && any_value);
  }
  return parse;
}

Result<Table> OracleReadString(std::string_view text, const ReadOptions& options) {
  SCODED_ASSIGN_OR_RETURN(OracleParse parse, OracleScan(text, options));
  return BuildTableFromRecords(parse.records, parse.first_data_row, parse.names, parse.numeric);
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Field-for-field equality, down to the bit patterns of the doubles.
void ExpectSameTable(const Table& actual, const Table& expected, const std::string& context) {
  ASSERT_EQ(actual.NumColumns(), expected.NumColumns()) << context;
  ASSERT_EQ(actual.NumRows(), expected.NumRows()) << context;
  for (size_t c = 0; c < expected.NumColumns(); ++c) {
    ASSERT_EQ(actual.schema().field(c).name, expected.schema().field(c).name) << context;
    ASSERT_EQ(actual.schema().field(c).type, expected.schema().field(c).type)
        << context << " column " << c;
    const Column& a = actual.column(c);
    const Column& e = expected.column(c);
    for (size_t r = 0; r < e.size(); ++r) {
      ASSERT_EQ(a.IsNull(r), e.IsNull(r)) << context << " column " << c << " row " << r;
    }
    if (e.type() == ColumnType::kNumeric) {
      for (size_t r = 0; r < e.size(); ++r) {
        ASSERT_EQ(Bits(a.NumericAt(r)), Bits(e.NumericAt(r)))
            << context << " column " << c << " row " << r;
      }
    } else {
      ASSERT_EQ(a.codes(), e.codes()) << context << " column " << c;
      ASSERT_EQ(a.dictionary(), e.dictionary()) << context << " column " << c;
    }
  }
}

// ------------------------------------------------------------ generators

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
}

// A cell's text before quoting.
std::string CellValue(Rng& rng, int kind) {
  static const std::vector<std::string> kNumbers = {
      "0", "12", "-3.5", "1e3", "4.25", ".5", "1.", "-0", "+7", "0x10", "1e400", "nan",
      "inf", "-Infinity", "3.000000000000000000001", "99999999999999999999"};
  static const std::vector<std::string> kWords = {
      "red", "blue", "a b", "x,y", "say \"hi\"", "two\nlines", "cr\rhere", "crlf\r\nin",
      "  padded  ", "\t", "   ", "1e", "--1", "1,0", "NaN(", "\"", ""};
  switch (kind) {
    case 0:  // numeric, with nulls
      return rng.Bernoulli(0.15) ? "" : Pick(rng, kNumbers);
    case 1:  // categorical
      return rng.Bernoulli(0.1) ? "" : Pick(rng, kWords);
    case 2:  // mixed: mostly numbers, the odd word
      return rng.Bernoulli(0.1) ? Pick(rng, kWords) : Pick(rng, kNumbers);
    default:  // all null
      return "";
  }
}

// Renders a value in one of the ways a CSV writer or a hand edit might.
std::string Encode(Rng& rng, const std::string& value, char delimiter) {
  bool must_quote = value.find_first_of(std::string("\"\n\r") + delimiter) != std::string::npos;
  int style = static_cast<int>(rng.UniformInt(0, 9));
  if (!must_quote && style < 5) {
    return style == 0 ? " " + value + "  " : value;  // plain, or padded outside
  }
  std::string quoted = "\"";
  for (char c : value) {
    quoted += c == '"' ? "\"\"" : std::string(1, c);
  }
  quoted += "\"";
  switch (style) {
    case 5:
      return "  " + quoted + " ";  // padding outside the quotes
    case 6:
      return "ab" + quoted + "cd";  // a quote in mid-field
    case 7:
      return rng.Bernoulli(0.2) ? quoted.substr(0, quoted.size() - 1) : quoted;  // unterminated
    default:
      return quoted;
  }
}

std::string LineEnd(Rng& rng) {
  switch (rng.UniformInt(0, 9)) {
    case 0:
    case 1:
      return "\r\n";
    case 2:
      return "\n\n";  // blank line
    case 3:
      return "\n   \n";  // a line of spaces: a one-field record
    case 4:
      return "\r\n\r\n";
    default:
      return "\n";
  }
}

struct Generated {
  std::string text;
  ReadOptions options;
};

// A CSV shaped like real data, with every quirk the reader must keep.
Generated GenerateCsv(Rng& rng) {
  Generated out;
  out.options.delimiter = rng.Bernoulli(0.8) ? ',' : (rng.Bernoulli(0.5) ? ';' : '\t');
  out.options.has_header = rng.Bernoulli(0.85);
  out.options.infer_types = rng.Bernoulli(0.9);
  char delimiter = out.options.delimiter;
  int64_t num_cols = rng.UniformInt(1, 5);
  std::vector<int> kinds;
  for (int64_t c = 0; c < num_cols; ++c) {
    kinds.push_back(static_cast<int>(rng.UniformInt(0, 3)));
  }
  if (out.options.has_header) {
    for (int64_t c = 0; c < num_cols; ++c) {
      out.text += (c > 0 ? std::string(1, delimiter) : "") +
                  Encode(rng, c % 2 == 0 ? "col" + std::to_string(c) : "name, " + std::to_string(c),
                         delimiter);
    }
    out.text += LineEnd(rng);
  }
  int64_t rows = rng.UniformInt(0, 40);
  for (int64_t r = 0; r < rows; ++r) {
    int64_t width = rng.Bernoulli(0.02) ? num_cols + rng.UniformInt(-1, 1) : num_cols;  // ragged
    for (int64_t c = 0; c < width; ++c) {
      out.text += (c > 0 ? std::string(1, delimiter) : "") +
                  Encode(rng, CellValue(rng, kinds[static_cast<size_t>(c % num_cols)]), delimiter);
    }
    if (r + 1 < rows || rng.Bernoulli(0.7)) {
      out.text += LineEnd(rng);
    } else if (rng.Bernoulli(0.3)) {
      out.text += "\r";  // a '\r' at end of input closes the record
    }
  }
  return out;
}

// Unstructured input over the bytes the scanner treats specially.
Generated GenerateSoup(Rng& rng) {
  static const std::string kAlphabet = "a1,\"\n\r .e-;\t";
  Generated out;
  out.options.has_header = rng.Bernoulli(0.7);
  out.options.delimiter = rng.Bernoulli(0.8) ? ',' : ';';
  int64_t length = rng.UniformInt(0, 60);
  for (int64_t i = 0; i < length; ++i) {
    out.text.push_back(kAlphabet[static_cast<size_t>(rng.UniformInt(0, 12))]);
  }
  return out;
}

// -------------------------------------------------------------- checks

void CheckReadString(const Generated& input, const std::string& context) {
  Result<Table> expected = OracleReadString(input.text, input.options);
  Result<Table> actual = ReadString(input.text, input.options);
  ASSERT_EQ(actual.ok(), expected.ok())
      << context << ": new " << actual.status().ToString() << " vs oracle "
      << expected.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << context;
    EXPECT_EQ(actual.status().message(), expected.status().message()) << context;
    return;
  }
  ExpectSameTable(*actual, *expected, context);
}

// Reads windows of `reader`'s shard index with WindowReader, from a cold
// start and with a different read-buffer size than the first pass: every
// single-shard window, every window that runs to the end of the file, and
// the whole file. Each must yield exactly the matching Next() shards, then
// verify its end.
void CheckWindows(const ShardReader& reader, const std::string& path, ShardReaderOptions options,
                  const std::vector<Table>& shards, const std::string& context) {
  options.buffer_bytes = options.buffer_bytes % 5 + 1;
  const size_t n = shards.size();
  std::vector<std::pair<size_t, size_t>> ranges = {{0, n}};
  for (size_t b = 0; b < n; ++b) {
    ranges.emplace_back(b, b + 1);
    ranges.emplace_back(b, n);
  }
  for (const auto& [begin, end] : ranges) {
    std::string where = context + " window [" + std::to_string(begin) + ", " +
                        std::to_string(end) + ")";
    ByteWindow window = reader.Window(begin, end);
    EXPECT_EQ(window.to_eof, end == n) << where;
    Result<WindowReader> opened = WindowReader::Open(path, reader.schema(), window, options);
    ASSERT_TRUE(opened.ok()) << where << ": " << opened.status().ToString();
    for (size_t k = begin;; ++k) {
      Result<std::optional<Table>> got = opened->Next();
      ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
      if (!got->has_value()) {
        EXPECT_EQ(k, end) << where;
        break;
      }
      ASSERT_LT(k, end) << where;
      ExpectSameTable(**got, shards[k], where + " shard " + std::to_string(k));
    }
  }
}

// Streams `input` through ShardReader and checks each shard against
// BuildTableFromRecords over the same slice of records.
void CheckShardReader(const Generated& input, const std::string& path, size_t shard_rows,
                      size_t buffer_bytes, const std::string& context) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(input.text.data(), static_cast<std::streamsize>(input.text.size()));
  }
  ShardReaderOptions options;
  options.csv = input.options;
  options.shard_rows = shard_rows;
  options.buffer_bytes = buffer_bytes;
  Result<OracleParse> expected = OracleScan(input.text, input.options);
  Result<ShardReader> reader = ShardReader::Open(path, options);
  ASSERT_EQ(reader.ok(), expected.ok())
      << context << ": new " << reader.status().ToString() << " vs oracle "
      << expected.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(reader.status().code(), expected.status().code()) << context;
    EXPECT_EQ(reader.status().message(), expected.status().message()) << context;
    return;
  }
  ASSERT_EQ(reader->column_names(), expected->names) << context;
  ASSERT_EQ(reader->numeric(), expected->numeric) << context;
  size_t data_rows = expected->records.size() - expected->first_data_row;
  ASSERT_EQ(reader->num_data_rows(), data_rows) << context;
  Result<Table> empty = reader->EmptyTable();
  ASSERT_TRUE(empty.ok()) << context;
  ExpectSameTable(*empty, BuildTableFromRecords({}, 0, expected->names, expected->numeric).value(),
                  context + " empty table");
  size_t next_row = expected->first_data_row;
  std::vector<Table> shards;
  for (int shard = 0;; ++shard) {
    Result<std::optional<Table>> got = reader->Next();
    ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
    if (!got->has_value()) {
      break;
    }
    size_t end = std::min(next_row + shard_rows, expected->records.size());
    std::vector<RawRecord> slice(expected->records.begin() + static_cast<ptrdiff_t>(next_row),
                                 expected->records.begin() + static_cast<ptrdiff_t>(end));
    Result<Table> want = BuildTableFromRecords(slice, 0, expected->names, expected->numeric);
    ASSERT_TRUE(want.ok()) << context;
    ExpectSameTable(**got, *want, context + " shard " + std::to_string(shard));
    shards.push_back(std::move(**got));
    next_row = end;
  }
  EXPECT_EQ(next_row, expected->records.size()) << context;
  ASSERT_EQ(reader->num_shards(), shards.size()) << context;
  CheckWindows(*reader, path, options, shards, context);
}

TEST(CsvIngestOracleTest, RandomCsvMatchesOracle) {
  Rng rng(1902093711);
  std::string path = ::testing::TempDir() + "/csv_ingest_oracle.csv";
  static const size_t kBufferBytes[] = {1, 2, 3, 7, 64, 1 << 18};
  for (int i = 0; i < 3000; ++i) {
    Generated input = i % 3 == 2 ? GenerateSoup(rng) : GenerateCsv(rng);
    std::string context = "case " + std::to_string(i);
    CheckReadString(input, context);
    if (i % 2 == 0) {
      size_t shard_rows = static_cast<size_t>(rng.UniformInt(1, 6));
      size_t buffer_bytes = kBufferBytes[rng.UniformInt(0, 5)];
      CheckShardReader(input, path, shard_rows, buffer_bytes,
                       context + " shard_rows=" + std::to_string(shard_rows) +
                           " buffer_bytes=" + std::to_string(buffer_bytes));
    }
    if (HasFatalFailure()) {
      ADD_FAILURE() << "input: '" << input.text << "'";
      break;
    }
  }
  std::remove(path.c_str());
}

// Quoting, padding and line-ending rules, spelt out.
TEST(CsvIngestOracleTest, EdgeCasesMatchOracle) {
  const char* const kInputs[] = {
      "",
      "\n\n\r\n",
      "a\n",
      "a",
      "a\r",
      "a\r\n1\r",
      "a,b\n\" 12 \",\"   \"\n",     // quoted " 12 " is numeric, quoted spaces are not
      "a\n   \n1\n",               // a line of spaces is a (null) record
      "a\n1\r2\n",                 // a lone '\r' is a literal byte
      "a,b\n\"x\"\"y\",  \"p q\"  \n",
      "a,b\nab\"c,d\"ef,1\n",
      "a,b\n1,2\n3\n\"open",       // the unterminated quote outranks the ragged row
      "a,b\n1,2\n3\n",
      "a\n\"",
      "a\n\"\"\"",
      "x\n1\n\n\n2\n",
      "\"a\nb\",c\r\n1,2\r\n",
  };
  for (const char* text : kInputs) {
    for (bool header : {true, false}) {
      Generated input;
      input.text = text;
      input.options.has_header = header;
      CheckReadString(input, std::string("'") + text + "'");
      CheckShardReader(input, ::testing::TempDir() + "/csv_ingest_edge.csv", 2, 1,
                       std::string("'") + text + "'");
    }
  }
}

// A column that reads as numeric for 10k rows and then meets a word is
// re-encoded from its text, not from the parsed numbers.
TEST(CsvIngestOracleTest, LateDemotionKeepsOriginalText) {
  std::string text = "id,v,w\n";
  for (int i = 0; i < 10000; ++i) {
    text += std::to_string(i) + "," + (i % 3 == 0 ? "" : std::to_string(i % 7) + ".0") + "," +
            (i % 2 == 0 ? "1" : " 1.50 ") + "\n";
  }
  text += "10000,seven,\"x\"\"\"\n10001,7,2\n";
  Generated input;
  input.text = text;
  CheckReadString(input, "late demotion");
  Table table = ReadString(text).value();
  EXPECT_EQ(table.column(0).type(), ColumnType::kNumeric);
  EXPECT_EQ(table.column(1).type(), ColumnType::kCategorical);
  EXPECT_EQ(table.column(1).CategoryAt(1), "1.0");
  EXPECT_EQ(table.column(2).CategoryAt(1), "1.50");
  CheckShardReader(input, ::testing::TempDir() + "/csv_ingest_late.csv", 4096, 1000,
                   "late demotion, sharded");
}

}  // namespace
}  // namespace scoded::csv
