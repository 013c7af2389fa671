#ifndef SCODED_TABLE_CSV_STREAM_H_
#define SCODED_TABLE_CSV_STREAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/csv.h"
#include "table/csv_scan.h"
#include "table/table.h"

namespace scoded::csv {

/// Options for the out-of-core shard reader.
struct ShardReaderOptions {
  ReadOptions csv;
  /// Maximum data rows per shard table. 0 is invalid.
  size_t shard_rows = 65536;
  /// Bytes read from disk per chunk while scanning.
  size_t buffer_bytes = 1 << 18;
};

/// The column names and fixed types every shard of a file is built with.
struct ShardSchema {
  std::vector<std::string> names;
  std::vector<bool> numeric;
};

/// A byte range of a CSV file that holds a run of whole data records, as
/// located by ShardReader's first pass.
struct ByteWindow {
  uint64_t byte_begin = 0;
  uint64_t byte_end = 0;
  uint64_t row_begin = 0;  // global index of the window's first data row
  uint64_t rows = 0;       // data rows the first pass saw in the window
  /// byte_end is where the file ended: the window is read to the end of
  /// the file, under the end-of-input rules (a last record may lack its
  /// newline), and any byte past byte_end is a change.
  bool to_eof = false;
};

/// Streams the data records of one ByteWindow as shard Tables under a
/// fixed schema. It makes no first pass of its own: bounds, row count and
/// schema come from a ShardReader's first pass, possibly in another
/// process. Shards hold shard_rows rows, counted from the window's start,
/// so a window that starts at a shard boundary yields exactly the shards
/// ShardReader::Next would.
///
/// The window is verified against that first pass, not trusted: Next()
/// fails with kDataLoss "changed between passes" when a record is ragged,
/// a numeric column's cell no longer parses as a number, a quoted field
/// runs past the window, the window holds more or fewer rows than the
/// first pass saw, or its last record does not end exactly at byte_end.
/// The last of these checks runs on the Next() that returns nullopt, so a
/// caller must read to nullopt to have the window verified.
class WindowReader {
 public:
  /// Of `options`, only shard_rows, buffer_bytes and the delimiter apply:
  /// the window holds no header and its types are the schema's.
  static Result<WindowReader> Open(const std::string& path, ShardSchema schema,
                                   const ByteWindow& window, const ShardReaderOptions& options);

  /// Returns the next shard, or nullopt once the window is read and
  /// verified.
  Result<std::optional<Table>> Next();

 private:
  WindowReader(std::string path, ShardSchema schema, const ByteWindow& window,
               size_t shard_rows, RecordStream input);

  Status Changed(const std::string& what) const;

  std::string path_;
  ShardSchema schema_;
  ByteWindow window_;
  size_t shard_rows_;
  RecordStream input_;
  uint64_t rows_read_ = 0;
};

/// Streams a CSV file as a sequence of bounded-size shard Tables without
/// ever materialising the whole file as rows.
///
/// Open() makes a first streaming pass over the file that validates the
/// record structure (field counts, quoting) and infers the column types
/// from *all* rows — exactly the types csv::ReadFile would infer — so every
/// shard uses the same schema regardless of which values it happens to
/// contain. That pass keeps no values and builds no dictionaries; it
/// records where each shard starts (byte offset and first row), so any run
/// of shards can later be read as a ByteWindow without re-scanning what
/// comes before it. Next() then makes a second pass, a WindowReader over
/// every shard, building each shard's columns, with the types fixed,
/// straight from the records' field spans; a shard holds at most
/// shard_rows data rows. Categorical dictionaries are shard-local
/// (first-appearance order within the shard); callers that need global
/// codes remap them (see PairwiseShardSummary in stats/shard_stats.h).
///
/// The two passes assume the file does not change in between. That
/// assumption is verified as WindowReader describes: a concurrent
/// truncation, append or rewrite surfaces as kDataLoss instead of silently
/// mis-shaped shards (rows typed under one inference but materialised from
/// another file).
///
/// Peak memory is O(buffer_bytes + longest record + shard_rows * row width
/// + number of shards), independent of the file size in practice.
class ShardReader {
 public:
  /// Validates and types `path`; fails with the same errors csv::ReadFile
  /// would produce (missing file, empty input, ragged rows, bad quoting).
  static Result<ShardReader> Open(const std::string& path,
                                  const ShardReaderOptions& options = {});

  /// Returns the next shard, or nullopt once the file is exhausted.
  Result<std::optional<Table>> Next();

  /// A zero-row table with the full schema; useful for binding constraints
  /// before any shard has been read.
  Result<Table> EmptyTable() const;

  const ShardSchema& schema() const { return schema_; }
  const std::vector<std::string>& column_names() const { return schema_.names; }
  const std::vector<bool>& numeric() const { return schema_.numeric; }
  /// Total data rows in the file (excludes the header), from the first pass.
  size_t num_data_rows() const { return num_data_rows_; }
  /// Shards in the file: ceil(num_data_rows / shard_rows).
  size_t num_shards() const { return shard_starts_.size(); }

  /// The window holding shards [begin, end), begin <= end <= num_shards().
  ByteWindow Window(size_t begin, size_t end) const;

 private:
  /// Where one shard's records start, from the first pass.
  struct ShardStart {
    uint64_t byte = 0;  // just past the record before the shard's first
    uint64_t row = 0;   // global index of the shard's first data row
  };

  ShardReader(std::string path, ShardReaderOptions options, ShardSchema schema,
              size_t num_data_rows, uint64_t data_begin, uint64_t total_bytes,
              std::vector<ShardStart> shard_starts);

  std::string path_;
  ShardReaderOptions options_;
  ShardSchema schema_;
  size_t num_data_rows_ = 0;
  uint64_t data_begin_ = 0;   // first byte after the header
  uint64_t total_bytes_ = 0;  // bytes the first pass consumed
  std::vector<ShardStart> shard_starts_;

  std::optional<WindowReader> second_;  // the second pass, opened by Next()
};

}  // namespace scoded::csv

#endif  // SCODED_TABLE_CSV_STREAM_H_
