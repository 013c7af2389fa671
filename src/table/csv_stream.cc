#include "table/csv_stream.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"

namespace scoded::csv {

WindowReader::WindowReader(std::string path, ShardSchema schema, const ByteWindow& window,
                           size_t shard_rows, RecordStream input)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      window_(window),
      shard_rows_(shard_rows),
      input_(std::move(input)) {}

Result<WindowReader> WindowReader::Open(const std::string& path, ShardSchema schema,
                                        const ByteWindow& window,
                                        const ShardReaderOptions& options) {
  if (options.shard_rows == 0) {
    return InvalidArgumentError("shard_rows must be positive");
  }
  if (schema.numeric.size() != schema.names.size() || window.byte_end < window.byte_begin) {
    return InvalidArgumentError("malformed schema or byte window");
  }
  SCODED_ASSIGN_OR_RETURN(
      RecordStream input,
      RecordStream::OpenFile(path, options.buffer_bytes, options.csv.delimiter,
                             window.byte_begin, window.to_eof ? UINT64_MAX : window.byte_end));
  return WindowReader(path, std::move(schema), window, options.shard_rows, std::move(input));
}

Status WindowReader::Changed(const std::string& what) const {
  return DataLossError("CSV file '" + path_ + "' changed between passes: bytes [" +
                       std::to_string(window_.byte_begin) + ", " +
                       std::to_string(window_.byte_end) + "): " + what);
}

Result<std::optional<Table>> WindowReader::Next() {
  const size_t want =
      static_cast<size_t>(std::min<uint64_t>(shard_rows_, window_.rows - rows_read_));
  if (want == 0) {
    // Every row the first pass saw is read: the window must end here.
    SpanScanner::Step step = input_.Next();
    if (step == SpanScanner::Step::kRecord) {
      return Changed("hold more than the " + std::to_string(window_.rows) +
                     " data rows the first pass saw");
    }
    if (step == SpanScanner::Step::kUnterminatedQuote) {
      return Changed("end inside a quoted field");
    }
    if (input_.offset() != window_.byte_end) {
      return Changed("the last record ends at byte " + std::to_string(input_.offset()));
    }
    return std::optional<Table>();
  }
  std::vector<ColumnBuilder> columns = MakeColumnBuilders(schema_.numeric);
  for (size_t row = 0; row < want; ++row) {
    SpanScanner::Step step = input_.Next();
    if (step == SpanScanner::Step::kUnterminatedQuote) {
      return Changed("end inside a quoted field");
    }
    if (step == SpanScanner::Step::kEnd) {
      return Changed("hold " + std::to_string(rows_read_ + row) + " data rows, the first pass saw " +
                     std::to_string(window_.rows));
    }
    const std::vector<std::string_view>& fields = input_.fields();
    if (fields.size() != schema_.names.size()) {
      return Changed("a record has " + std::to_string(fields.size()) + " fields, expected " +
                     std::to_string(schema_.names.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      if (!columns[c].Append(fields[c])) {
        return Changed("a cell of numeric column '" + schema_.names[c] +
                       "' no longer parses as a number");
      }
    }
  }
  rows_read_ += want;
  SCODED_ASSIGN_OR_RETURN(Table table, BuildTable(schema_.names, std::move(columns)));
  return std::optional<Table>(std::move(table));
}

ShardReader::ShardReader(std::string path, ShardReaderOptions options, ShardSchema schema,
                         size_t num_data_rows, uint64_t data_begin, uint64_t total_bytes,
                         std::vector<ShardStart> shard_starts)
    : path_(std::move(path)),
      options_(std::move(options)),
      schema_(std::move(schema)),
      num_data_rows_(num_data_rows),
      data_begin_(data_begin),
      total_bytes_(total_bytes),
      shard_starts_(std::move(shard_starts)) {}

Result<ShardReader> ShardReader::Open(const std::string& path, const ShardReaderOptions& options) {
  obs::ScopedSpan span("table/shard_open");
  if (options.shard_rows == 0) {
    return InvalidArgumentError("shard_rows must be positive");
  }
  const ReadOptions& csv = options.csv;
  SCODED_ASSIGN_OR_RETURN(RecordStream records,
                          RecordStream::OpenFile(path, options.buffer_bytes, csv.delimiter));
  ShardSchema schema;
  SCODED_ASSIGN_OR_RETURN(schema.names, ReadColumnNames(records, csv.has_header));
  // Type inference over every row, as csv::ReadFile does it, but keeping
  // only a verdict per column, plus where each shard starts.
  std::vector<bool>& numeric = schema.numeric;
  numeric.assign(schema.names.size(), csv.infer_types);
  std::vector<bool> any_value(schema.names.size(), false);
  const uint64_t data_begin = csv.has_header ? records.offset() : 0;
  uint64_t record_begin = data_begin;
  std::vector<ShardStart> shard_starts;
  size_t data_rows = 0;
  SCODED_RETURN_IF_ERROR(ForEachDataRecord(
      records, schema.names.size(), csv.has_header,
      [&](const std::vector<std::string_view>& fields) {
        if (data_rows % options.shard_rows == 0) {
          shard_starts.push_back({record_begin, data_rows});
        }
        record_begin = records.offset();
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
  return ShardReader(path, options, std::move(schema), data_rows, data_begin, records.offset(),
                     std::move(shard_starts));
}

ByteWindow ShardReader::Window(size_t begin, size_t end) const {
  const size_t shards = shard_starts_.size();
  ByteWindow window;
  window.byte_begin = begin == 0       ? data_begin_
                      : begin < shards ? shard_starts_[begin].byte
                                       : total_bytes_;
  window.row_begin = begin < shards ? shard_starts_[begin].row : num_data_rows_;
  window.to_eof = end >= shards;
  window.byte_end = window.to_eof ? total_bytes_ : shard_starts_[end].byte;
  window.rows = (window.to_eof ? num_data_rows_ : shard_starts_[end].row) - window.row_begin;
  return window;
}

Result<std::optional<Table>> ShardReader::Next() {
  if (!second_.has_value()) {
    SCODED_ASSIGN_OR_RETURN(WindowReader second,
                            WindowReader::Open(path_, schema_, Window(0, num_shards()), options_));
    second_.emplace(std::move(second));
  }
  return second_->Next();
}

Result<Table> ShardReader::EmptyTable() const {
  return BuildTable(schema_.names, MakeColumnBuilders(schema_.numeric));
}

}  // namespace scoded::csv
