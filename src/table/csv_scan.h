#ifndef SCODED_TABLE_CSV_SCAN_H_
#define SCODED_TABLE_CSV_SCAN_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace scoded::csv {

/// Splits a CSV buffer into records whose fields are spans of the buffer.
///
/// The record and field rules are RecordScanner's (below), which stays the
/// reference they are tested against: a quoted field may hold delimiters,
/// newlines and "" escapes; a record ends at '\n' or '\r\n' outside quotes; a
/// '\r' not followed by '\n' is a literal byte, except at end of input;
/// zero-byte lines are skipped; unquoted fields are Trim()med, quoted ones are
/// kept verbatim.
///
/// A record without '"' or '\r' is split in place: each field is a
/// string_view into the input. A record that has either is walked byte by
/// byte and its fields are unescaped into a side arena, the only copy the
/// scanner makes. A record is only returned whole; one that runs past the
/// end of a non-final buffer is reported as kNeedMore and rescanned from its
/// first byte once the caller has appended more input.
class SpanScanner {
 public:
  enum class Step {
    kRecord,             // fields() holds the record; *pos is past it
    kNeedMore,           // the record at *pos continues past the buffer
    kEnd,                // no record left (final buffers only)
    kUnterminatedQuote,  // the input ends inside a quoted field
  };

  explicit SpanScanner(char delimiter = ',');

  /// Scans the next non-blank record of `text` at `*pos`. Blank lines before
  /// it are consumed even on kNeedMore. `final` says that no input follows
  /// `text`.
  Step Next(std::string_view text, size_t* pos, bool final);

  /// Fields of the last kRecord. They point into the input or into the
  /// arena and stay valid until the next call.
  const std::vector<std::string_view>& fields() const { return fields_; }

 private:
  enum class Scan { kRecord, kBlank, kNeedMore, kUnterminatedQuote, kSlow };
  Scan ScanFast(std::string_view text, size_t* pos, bool final);
  Scan ScanSlow(std::string_view text, size_t* pos, bool final);

  char delimiter_;
  bool special_[256] = {};  // delimiter, '"', '\n', '\r'
  std::vector<std::string_view> fields_;
  std::string arena_;                                  // unescaped text, slow path
  std::vector<std::pair<size_t, bool>> field_ends_;   // arena end offset, quoted
};

/// The records of a CSV input, one at a time: either a buffer held in
/// memory, or a file read in chunks. A record that straddles a chunk
/// boundary is carried to the front of the buffer and rescanned once the
/// next chunk is appended; each read is at least as large as that carried
/// prefix, so a record longer than a chunk costs O(its length) to rescan and
/// the buffer never holds more than twice max(chunk, longest record).
class RecordStream {
 public:
  /// Streams the records of `text`, which must outlive the stream.
  RecordStream(std::string_view text, char delimiter);

  /// Streams the records of the file at `path`, `buffer_bytes` at a time,
  /// from byte `begin`. Reading stops at byte `end` when one is given: the
  /// stream then ends there without applying the end-of-input rules, so a
  /// record cut by `end` is not returned and offset() stays at its first
  /// byte. Without an `end` the stream runs to the end of the file.
  static Result<RecordStream> OpenFile(const std::string& path, size_t buffer_bytes,
                                       char delimiter, uint64_t begin = 0,
                                       uint64_t end = UINT64_MAX);

  /// Advances to the next record: kRecord, kEnd or kUnterminatedQuote.
  SpanScanner::Step Next();
  /// Makes the next Next() return the current record again.
  void Unread() { replay_ = true; }

  /// The current record's fields, valid until the next Next().
  const std::vector<std::string_view>& fields() const { return scanner_.fields(); }
  /// Byte offset (in the input or the file) just past the current record,
  /// or of the first byte not yet consumed once the stream has ended.
  uint64_t offset() const { return origin_ + pos_; }

 private:
  void Refill();

  SpanScanner scanner_;
  std::string_view text_;  // the in-memory input
  std::ifstream in_;       // the file, when streaming one
  std::string buffer_;     // its carried record plus the latest chunk
  bool from_file_ = false;
  bool final_ = true;      // no input follows the current buffer
  bool at_end_ = false;    // the buffer reaches the `end` OpenFile was given
  bool replay_ = false;
  size_t pos_ = 0;
  size_t chunk_bytes_ = 0;
  uint64_t origin_ = 0;    // file offset of buffer_[0]
  uint64_t end_ = UINT64_MAX;
};

/// Reads the column names: the header record's fields, or "c0", "c1", ...
/// sized by the first record, which is then left for the data. Fails on
/// empty input.
Result<std::vector<std::string>> ReadColumnNames(RecordStream& records, bool has_header);

/// The error for input that ends inside a quoted field.
Status UnterminatedQuoteError();

/// The error for a record whose field count differs from the header's.
/// `record` counts from 1 and includes the header record.
Status RaggedRowError(size_t record, size_t fields, size_t expected);

/// Accumulates one column cell by cell, parsing or hashing each cell once.
/// A numeric column parses non-empty cells with ParseDouble; a categorical
/// one encodes them against a dictionary in first-appearance order. Empty
/// cells are nulls.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(bool numeric) : numeric_(numeric) {}

  bool numeric() const { return numeric_; }
  /// True once a non-empty cell has been appended.
  bool has_value() const { return has_value_; }

  /// Appends `cell`. Returns false, appending nothing, when the column is
  /// numeric and the cell is non-empty but not a number.
  bool Append(std::string_view cell);
  /// Appends a null cell.
  void AppendNull();

  Column Finish() &&;

 private:
  int32_t Intern(std::string_view cell);

  bool numeric_;
  bool has_value_ = false;
  std::vector<double> values_;
  std::vector<size_t> null_rows_;
  std::vector<int32_t> codes_;
  std::vector<std::string> dictionary_;
  // Open-addressing index of dictionary_: a code per slot, -1 when empty.
  // Linear probing; the table is at most half full.
  std::vector<int32_t> slots_;
};

/// Calls `visit(fields)` on each remaining record. A record that is not
/// `num_cols` wide fails with RaggedRowError (numbered as if the header is
/// record 1 when `has_header`), unless the input ends inside a quoted field,
/// which outranks it as it does in a scan of the whole input.
template <typename Visit>
Status ForEachDataRecord(RecordStream& records, size_t num_cols, bool has_header,
                         Visit&& visit) {
  size_t record = has_header ? 1 : 0;
  SpanScanner::Step step;
  while ((step = records.Next()) == SpanScanner::Step::kRecord) {
    ++record;
    if (records.fields().size() != num_cols) {
      Status ragged = RaggedRowError(record, records.fields().size(), num_cols);
      while ((step = records.Next()) == SpanScanner::Step::kRecord) {
      }
      return step == SpanScanner::Step::kUnterminatedQuote ? UnterminatedQuoteError() : ragged;
    }
    visit(records.fields());
  }
  return step == SpanScanner::Step::kUnterminatedQuote ? UnterminatedQuoteError() : OkStatus();
}

/// One empty builder per column, numeric where `numeric` says so.
std::vector<ColumnBuilder> MakeColumnBuilders(const std::vector<bool>& numeric);

/// Builds a table of the named, finished columns.
Result<Table> BuildTable(const std::vector<std::string>& names,
                         std::vector<ColumnBuilder> columns);

// ---------------------------------------------------------------------------
// Reference implementation. The record-at-a-time scanner and builder below
// are what SpanScanner and ColumnBuilder replaced; they are kept, unchanged
// in behaviour, as the oracle the ingest tests compare against.

/// One parsed cell: quoted fields keep their content verbatim (including
/// whitespace and newlines); unquoted fields are whitespace-trimmed.
struct RawField {
  std::string text;
  bool quoted = false;
};

using RawRecord = std::vector<RawField>;

/// Incremental RFC-4180 record scanner. Feed arbitrary byte chunks with
/// Consume() — complete records are emitted as they close — then call
/// Finish() once at end of input to flush the trailing record and detect an
/// unterminated quote. Field/record semantics are identical to scanning the
/// concatenated input in one pass: a quoted field may contain newlines,
/// delimiters, and "" quote escapes; record terminators are '\n' or
/// '\r\n' outside quotes; completely empty records (blank lines) are
/// skipped. The two characters that need lookahead ('"' inside quotes,
/// '\r' outside) are carried across chunk boundaries as pending state, so
/// splitting the input at any byte offset cannot change the output.
class RecordScanner {
 public:
  explicit RecordScanner(char delimiter = ',') : delimiter_(delimiter) {}

  /// Scans `chunk`, appending every record completed within it to
  /// `*records`.
  void Consume(std::string_view chunk, std::vector<RawRecord>* records);

  /// Ends the input: resolves pending lookahead, flushes a trailing
  /// unterminated record, and fails if the input ends inside quotes.
  Status Finish(std::vector<RawRecord>* records);

 private:
  void EndField();
  void EndRecord(std::vector<RawRecord>* records);

  char delimiter_;
  std::string current_;
  RawRecord record_;
  bool current_quoted_ = false;
  bool in_quotes_ = false;
  bool record_has_chars_ = false;
  bool pending_quote_ = false;  // saw '"' inside quotes; "" escape needs the next byte
  bool pending_cr_ = false;     // saw '\r' outside quotes; terminator iff the next byte is '\n'
};

/// Builds a Table from scanned records with the column types already
/// decided: `numeric[c]` forces column c numeric (non-empty cells must
/// parse as doubles; empty cells are nulls) or categorical (empty cells
/// are nulls, the dictionary is built in first-appearance order). Records
/// must all have names.size() fields; rows before `first_data_row` are
/// skipped.
Result<Table> BuildTableFromRecords(const std::vector<RawRecord>& rows, size_t first_data_row,
                                    const std::vector<std::string>& names,
                                    const std::vector<bool>& numeric);

}  // namespace scoded::csv

#endif  // SCODED_TABLE_CSV_SCAN_H_
