#include "table/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "obs/trace.h"
#include "table/csv_scan.h"

namespace scoded::csv {

namespace {

// Reads the whole file into one buffer sized by fstat, one byte over so the
// read that sees end of file needs no growth. A file that reports no size,
// or grows while being read, doubles the buffer as it fills.
Result<std::string> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("cannot open CSV file '" + path + "'");
  }
  struct stat st {};
  bool sized = ::fstat(fd, &st) == 0 && st.st_size > 0;
  std::string text(sized ? static_cast<size_t>(st.st_size) + 1 : 4096, '\0');
  size_t size = 0;
  while (true) {
    if (size == text.size()) {
      text.resize(2 * size);
    }
    ssize_t got = ::read(fd, text.data() + size, text.size() - size);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      break;  // a read error (a directory, say) ends the input, as in ShardReader
    }
    size += static_cast<size_t>(got);
  }
  ::close(fd);
  text.resize(size);
  return text;
}

// Re-encodes column `c`, numeric so far, as categorical: its first `rows`
// cells are read again from the records at byte `begin`, unless all were
// null.
void DemoteColumn(std::string_view text, size_t begin, size_t rows, size_t c, char delimiter,
                  ColumnBuilder* column) {
  ColumnBuilder categorical(/*numeric=*/false);
  SpanScanner rescan(delimiter);
  for (size_t r = 0; r < rows; ++r) {
    if (column->has_value()) {
      rescan.Next(text, &begin, /*final=*/true);
      categorical.Append(rescan.fields()[c]);
    } else {
      categorical.AppendNull();
    }
  }
  *column = std::move(categorical);
}

// Parses every cell once: a column stays numeric while its non-empty cells
// parse, and only a column that meets one that does not is re-encoded.
Result<Table> ParseCsv(std::string_view text, const ReadOptions& options) {
  RecordStream records(text, options.delimiter);
  SCODED_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          ReadColumnNames(records, options.has_header));
  size_t data_begin = options.has_header ? records.offset() : 0;
  std::vector<ColumnBuilder> columns(names.size(), ColumnBuilder(options.infer_types));
  size_t rows = 0;
  SCODED_RETURN_IF_ERROR(ForEachDataRecord(
      records, names.size(), options.has_header,
      [&](const std::vector<std::string_view>& fields) {
        for (size_t c = 0; c < fields.size(); ++c) {
          if (!columns[c].Append(fields[c])) {
            DemoteColumn(text, data_begin, rows, c, options.delimiter, &columns[c]);
            columns[c].Append(fields[c]);
          }
        }
        ++rows;
      }));
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].numeric() && !columns[c].has_value()) {
      // All-null columns default to categorical.
      DemoteColumn(text, data_begin, rows, c, options.delimiter, &columns[c]);
    }
  }
  return BuildTable(names, std::move(columns));
}

bool NeedsQuoting(std::string_view value, char delimiter) {
  if (value.empty()) {
    return false;
  }
  // Leading/trailing whitespace must be quoted to survive the reader's
  // unquoted-field trim; '\r' must be quoted to survive line-end handling.
  bool edge_space = Trim(value).size() != value.size();
  return edge_space || value.find(delimiter) != std::string_view::npos ||
         value.find('"') != std::string_view::npos ||
         value.find('\n') != std::string_view::npos ||
         value.find('\r') != std::string_view::npos;
}

std::string QuoteField(std::string_view value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

Result<Table> ReadString(std::string_view text, const ReadOptions& options) {
  obs::ScopedSpan span("table/read_file");
  return ParseCsv(text, options);
}

Result<Table> ReadFile(const std::string& path, const ReadOptions& options) {
  obs::ScopedSpan span("table/read_file");
  SCODED_ASSIGN_OR_RETURN(std::string text, ReadWholeFile(path));
  return ParseCsv(text, options);
}

std::string WriteString(const Table& table, char delimiter) {
  std::ostringstream os;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) {
      os << delimiter;
    }
    const std::string& name = table.schema().field(c).name;
    os << (NeedsQuoting(name, delimiter) ? QuoteField(name) : name);
  }
  os << "\n";
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) {
        os << delimiter;
      }
      std::string value = table.column(c).ValueToString(r);
      os << (NeedsQuoting(value, delimiter) ? QuoteField(value) : value);
    }
    os << "\n";
  }
  return os.str();
}

Status WriteFile(const Table& table, const std::string& path, char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return InvalidArgumentError("cannot open '" + path + "' for writing");
  }
  out << WriteString(table, delimiter);
  if (!out) {
    return DataLossError("failed while writing '" + path + "'");
  }
  return OkStatus();
}

}  // namespace scoded::csv
