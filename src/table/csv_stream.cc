#include "table/csv_stream.h"

#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"

namespace scoded::csv {

ShardReader::ShardReader(std::string path, ShardReaderOptions options,
                         std::vector<std::string> names, std::vector<bool> numeric,
                         size_t num_data_rows, uint64_t total_bytes, RecordStream input)
    : path_(std::move(path)),
      options_(std::move(options)),
      names_(std::move(names)),
      numeric_(std::move(numeric)),
      num_data_rows_(num_data_rows),
      total_bytes_(total_bytes),
      input_(std::move(input)) {}

Result<ShardReader> ShardReader::Open(const std::string& path, const ShardReaderOptions& options) {
  obs::ScopedSpan span("table/shard_open");
  if (options.shard_rows == 0) {
    return InvalidArgumentError("shard_rows must be positive");
  }
  const ReadOptions& csv = options.csv;
  SCODED_ASSIGN_OR_RETURN(RecordStream records,
                          RecordStream::OpenFile(path, options.buffer_bytes, csv.delimiter));
  SCODED_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          ReadColumnNames(records, csv.has_header));
  // Type inference over every row, as csv::ReadFile does it, but keeping
  // only a verdict per column.
  std::vector<bool> numeric(names.size(), csv.infer_types);
  std::vector<bool> any_value(names.size(), false);
  size_t data_rows = 0;
  SCODED_RETURN_IF_ERROR(ForEachDataRecord(
      records, names.size(), csv.has_header, [&](const std::vector<std::string_view>& fields) {
        ++data_rows;
        for (size_t c = 0; c < fields.size(); ++c) {
          if (fields[c].empty()) {
            continue;
          }
          any_value[c] = true;
          if (numeric[c] && !ParseDouble(fields[c]).has_value()) {
            numeric[c] = false;
          }
        }
      }));
  for (size_t c = 0; c < numeric.size(); ++c) {
    if (!any_value[c]) {
      numeric[c] = false;  // all-null columns default to categorical
    }
  }
  SCODED_ASSIGN_OR_RETURN(RecordStream second,
                          RecordStream::OpenFile(path, options.buffer_bytes, csv.delimiter));
  return ShardReader(path, options, std::move(names), std::move(numeric), data_rows,
                     records.bytes_read(), std::move(second));
}

Status ShardReader::ChangedBetweenPasses(const std::string& what) const {
  return DataLossError("CSV file '" + path_ + "' changed between passes: " + what);
}

Result<std::optional<Table>> ShardReader::Next() {
  std::vector<ColumnBuilder> columns = MakeColumnBuilders(numeric_);
  size_t rows = 0;
  while (rows < options_.shard_rows) {
    SpanScanner::Step step = input_.Next();
    if (step == SpanScanner::Step::kUnterminatedQuote) {
      return UnterminatedQuoteError();
    }
    if (step == SpanScanner::Step::kEnd) {
      break;
    }
    if (options_.csv.has_header && !header_skipped_) {
      header_skipped_ = true;
      continue;
    }
    const std::vector<std::string_view>& fields = input_.fields();
    if (fields.size() != names_.size()) {
      return ChangedBetweenPasses("a record has " + std::to_string(fields.size()) +
                                  " fields, expected " + std::to_string(names_.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      if (!columns[c].Append(fields[c])) {
        columns[c].AppendNull();  // typed numeric by the first pass
      }
    }
    ++rows;
  }
  if (rows == 0) {
    // Exhausted: the second pass must have seen exactly the file the first
    // pass typed. A concurrent truncation, append, or rewrite shows up as
    // a byte- or row-count mismatch here rather than as silently
    // mis-shaped shards.
    if (input_.bytes_read() != total_bytes_ || rows_yielded_ != num_data_rows_) {
      return ChangedBetweenPasses(
          "first pass saw " + std::to_string(num_data_rows_) + " data rows in " +
          std::to_string(total_bytes_) + " bytes, second pass saw " +
          std::to_string(rows_yielded_) + " rows in " + std::to_string(input_.bytes_read()) +
          " bytes");
    }
    return std::optional<Table>();
  }
  rows_yielded_ += rows;
  SCODED_ASSIGN_OR_RETURN(Table table, BuildTable(names_, std::move(columns)));
  return std::optional<Table>(std::move(table));
}

Result<Table> ShardReader::EmptyTable() const {
  return BuildTable(names_, MakeColumnBuilders(numeric_));
}

}  // namespace scoded::csv
