#include "table/csv_scan.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/string_util.h"

namespace scoded::csv {

SpanScanner::SpanScanner(char delimiter) : delimiter_(delimiter) {
  for (char c : {delimiter, '"', '\n', '\r'}) {
    special_[static_cast<unsigned char>(c)] = true;
  }
}

SpanScanner::Step SpanScanner::Next(std::string_view text, size_t* pos, bool final) {
  while (*pos < text.size()) {
    Scan scan = ScanFast(text, pos, final);
    if (scan == Scan::kSlow) {
      scan = ScanSlow(text, pos, final);
    }
    switch (scan) {
      case Scan::kRecord:
        return Step::kRecord;
      case Scan::kNeedMore:
        return Step::kNeedMore;
      case Scan::kUnterminatedQuote:
        return Step::kUnterminatedQuote;
      case Scan::kBlank:
      case Scan::kSlow:
        break;
    }
  }
  return final ? Step::kEnd : Step::kNeedMore;
}

// Splits the record at *pos in place, up to its end or its first '"' or
// '\r' (kSlow). The checks run in RecordScanner's order, so a delimiter that
// is also one of the special bytes keeps that scanner's precedence.
SpanScanner::Scan SpanScanner::ScanFast(std::string_view text, size_t* pos, bool final) {
  const char* const record = text.data() + *pos;
  const char* const end = text.data() + text.size();
  const char* field = record;
  fields_.clear();
  for (const char* p = record;; ++p) {
    while (p != end && !special_[static_cast<unsigned char>(*p)]) {
      ++p;
    }
    if (p == end) {
      if (!final) {
        return Scan::kNeedMore;
      }
      fields_.push_back(Trim(std::string_view(field, static_cast<size_t>(end - field))));
      *pos = text.size();
      return Scan::kRecord;
    }
    if (*p == '"') {
      return Scan::kSlow;
    }
    std::string_view value = Trim(std::string_view(field, static_cast<size_t>(p - field)));
    if (*p == delimiter_) {
      fields_.push_back(value);
      field = p + 1;
    } else if (*p == '\n') {
      *pos = static_cast<size_t>(p + 1 - text.data());
      if (p == record) {
        return Scan::kBlank;
      }
      fields_.push_back(value);
      return Scan::kRecord;
    } else {
      return Scan::kSlow;  // '\r'
    }
  }
}

// RecordScanner's state machine over one record, writing field text to the
// arena. Returns kNeedMore, leaving *pos at the record, when the buffer ends
// before the record does and more input follows.
SpanScanner::Scan SpanScanner::ScanSlow(std::string_view text, size_t* pos, bool final) {
  arena_.clear();
  field_ends_.clear();
  bool quoted = false;
  bool in_quotes = false;
  bool has_chars = false;
  bool pending_quote = false;  // '"' inside quotes; "" escape needs the next byte
  bool pending_cr = false;     // '\r' outside quotes; terminator iff '\n' follows
  auto end_field = [&] {
    field_ends_.emplace_back(arena_.size(), quoted);
    quoted = false;
  };
  auto publish = [&] {
    end_field();
    fields_.clear();
    size_t start = 0;
    for (const auto& [end, was_quoted] : field_ends_) {
      std::string_view value(arena_.data() + start, end - start);
      fields_.push_back(was_quoted ? value : Trim(value));
      start = end;
    }
  };
  for (size_t i = *pos; i < text.size(); ++i) {
    char c = text[i];
    if (pending_quote) {
      pending_quote = false;
      if (c == '"') {
        arena_.push_back('"');
        continue;
      }
      in_quotes = false;
    }
    if (pending_cr) {
      pending_cr = false;
      if (c != '\n') {
        arena_.push_back('\r');
        has_chars = true;
      }
    }
    if (in_quotes) {
      if (c == '"') {
        pending_quote = true;
      } else {
        arena_.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
      quoted = true;
      has_chars = true;
    } else if (c == delimiter_) {
      end_field();
      has_chars = true;
    } else if (c == '\n') {
      *pos = i + 1;
      if (!has_chars) {
        return Scan::kBlank;
      }
      publish();
      return Scan::kRecord;
    } else if (c == '\r') {
      pending_cr = true;
    } else {
      arena_.push_back(c);
      has_chars = true;
    }
  }
  if (!final) {
    return Scan::kNeedMore;
  }
  if (in_quotes && !pending_quote) {
    return Scan::kUnterminatedQuote;
  }
  *pos = text.size();  // a trailing '\r' or closing '"' ends the record
  if (!has_chars) {
    return Scan::kBlank;
  }
  publish();
  return Scan::kRecord;
}

RecordStream::RecordStream(std::string_view text, char delimiter)
    : scanner_(delimiter), text_(text) {}

Result<RecordStream> RecordStream::OpenFile(const std::string& path, size_t buffer_bytes,
                                            char delimiter, uint64_t begin, uint64_t end) {
  RecordStream stream(std::string_view(), delimiter);
  stream.in_.open(path, std::ios::binary);
  if (!stream.in_) {
    return NotFoundError("cannot open CSV file '" + path + "'");
  }
  if (begin > 0 && !stream.in_.seekg(static_cast<std::streamoff>(begin))) {
    return DataLossError("cannot seek to byte " + std::to_string(begin) + " of CSV file '" +
                         path + "'");
  }
  stream.from_file_ = true;
  stream.final_ = false;
  stream.chunk_bytes_ = std::max<size_t>(1, buffer_bytes);
  stream.origin_ = begin;
  stream.end_ = std::max(begin, end);
  return stream;
}

SpanScanner::Step RecordStream::Next() {
  if (replay_) {
    replay_ = false;
    return SpanScanner::Step::kRecord;
  }
  while (true) {
    std::string_view text = from_file_ ? std::string_view(buffer_) : text_;
    SpanScanner::Step step = scanner_.Next(text, &pos_, final_);
    if (step != SpanScanner::Step::kNeedMore) {
      return step;
    }
    if (at_end_) {
      return SpanScanner::Step::kEnd;  // a record cut by `end` stays unread
    }
    Refill();
  }
}

void RecordStream::Refill() {
  origin_ += pos_;
  buffer_.erase(0, pos_);
  pos_ = 0;
  size_t kept = buffer_.size();
  uint64_t next = origin_ + kept;  // file offset of the next byte to read
  size_t want = static_cast<size_t>(std::min<uint64_t>(std::max(chunk_bytes_, kept), end_ - next));
  buffer_.resize(kept + want);
  in_.read(buffer_.data() + kept, static_cast<std::streamsize>(want));
  size_t got = static_cast<size_t>(in_.gcount());
  buffer_.resize(kept + got);
  if (next + got == end_) {
    at_end_ = true;
  } else if (in_.eof() || got == 0) {
    final_ = true;
  }
}

Result<std::vector<std::string>> ReadColumnNames(RecordStream& records, bool has_header) {
  SpanScanner::Step step = records.Next();
  if (step == SpanScanner::Step::kUnterminatedQuote) {
    return UnterminatedQuoteError();
  }
  if (step == SpanScanner::Step::kEnd) {
    return InvalidArgumentError("CSV input is empty");
  }
  std::vector<std::string> names;
  for (size_t c = 0; c < records.fields().size(); ++c) {
    names.push_back(has_header ? std::string(records.fields()[c]) : "c" + std::to_string(c));
  }
  if (!has_header) {
    records.Unread();
  }
  return names;
}

std::vector<ColumnBuilder> MakeColumnBuilders(const std::vector<bool>& numeric) {
  std::vector<ColumnBuilder> columns;
  columns.reserve(numeric.size());
  for (bool is_numeric : numeric) {
    columns.emplace_back(is_numeric);
  }
  return columns;
}

Result<Table> BuildTable(const std::vector<std::string>& names,
                         std::vector<ColumnBuilder> columns) {
  TableBuilder builder;
  for (size_t c = 0; c < names.size(); ++c) {
    builder.AddColumn(names[c], std::move(columns[c]).Finish());
  }
  return std::move(builder).Build();
}

Status UnterminatedQuoteError() {
  return InvalidArgumentError("CSV input ends inside a quoted field");
}

Status RaggedRowError(size_t record, size_t fields, size_t expected) {
  return InvalidArgumentError("CSV row " + std::to_string(record) + " has " +
                              std::to_string(fields) + " fields, expected " +
                              std::to_string(expected));
}

namespace {

template <typename T>
T Load(const char* bytes) {
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 31)) * 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 29);
}

// A hash of a category's bytes with fixed-size loads only: short keys are
// covered by two overlapping loads, longer ones eight bytes at a time.
uint64_t HashBytes(std::string_view bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  uint64_t hash = n * 0x9E3779B97F4A7C15ull;
  if (n >= 8) {
    for (size_t i = 0; i + 8 < n; i += 8) {
      hash = Mix(hash ^ Load<uint64_t>(p + i));
    }
    return Mix(hash ^ Load<uint64_t>(p + n - 8));
  }
  uint64_t word = 0;
  if (n >= 4) {
    word = uint64_t{Load<uint32_t>(p)} << 32 | Load<uint32_t>(p + n - 4);
  } else if (n > 0) {
    word = uint64_t{static_cast<unsigned char>(p[0])} << 16 |
           uint64_t{static_cast<unsigned char>(p[n / 2])} << 8 |
           static_cast<unsigned char>(p[n - 1]);
  }
  return Mix(hash ^ word);
}

}  // namespace

int32_t ColumnBuilder::Intern(std::string_view cell) {
  if (2 * (dictionary_.size() + 1) > slots_.size()) {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), -1);
    for (size_t code = 0; code < dictionary_.size(); ++code) {
      size_t i = HashBytes(dictionary_[code]) & (slots_.size() - 1);
      while (slots_[i] >= 0) {
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = static_cast<int32_t>(code);
    }
  }
  for (size_t i = HashBytes(cell) & (slots_.size() - 1);; i = (i + 1) & (slots_.size() - 1)) {
    int32_t code = slots_[i];
    if (code < 0) {
      slots_[i] = static_cast<int32_t>(dictionary_.size());
      dictionary_.emplace_back(cell);
      return slots_[i];
    }
    if (dictionary_[static_cast<size_t>(code)] == cell) {
      return code;
    }
  }
}

bool ColumnBuilder::Append(std::string_view cell) {
  if (cell.empty()) {
    AppendNull();
    return true;
  }
  if (numeric_) {
    std::optional<double> value = ParseDouble(cell);
    if (!value.has_value()) {
      return false;
    }
    values_.push_back(*value);
  } else {
    codes_.push_back(Intern(cell));
  }
  has_value_ = true;
  return true;
}

void ColumnBuilder::AppendNull() {
  if (numeric_) {
    null_rows_.push_back(values_.size());
    values_.push_back(0.0);
  } else {
    codes_.push_back(-1);
  }
}

Column ColumnBuilder::Finish() && {
  if (!numeric_) {
    return Column::CategoricalFromCodes(std::move(codes_), std::move(dictionary_));
  }
  if (null_rows_.empty()) {
    return Column::Numeric(std::move(values_));
  }
  std::vector<bool> valid(values_.size(), true);
  for (size_t row : null_rows_) {
    valid[row] = false;
  }
  return Column::NumericWithNulls(std::move(values_), std::move(valid));
}

void RecordScanner::EndField() {
  RawField field;
  field.quoted = current_quoted_;
  field.text = current_quoted_ ? std::move(current_) : std::string(Trim(current_));
  record_.push_back(std::move(field));
  current_.clear();
  current_quoted_ = false;
}

void RecordScanner::EndRecord(std::vector<RawRecord>* records) {
  EndField();
  if (record_has_chars_) {
    records->push_back(std::move(record_));
  }
  record_.clear();
  record_has_chars_ = false;
}

void RecordScanner::Consume(std::string_view chunk, std::vector<RawRecord>* records) {
  for (char c : chunk) {
    if (pending_quote_) {
      // A '"' inside a quoted field: doubled means one literal quote, any
      // other byte means the quote closed and that byte is reprocessed.
      pending_quote_ = false;
      if (c == '"') {
        current_.push_back('"');
        continue;
      }
      in_quotes_ = false;
    }
    if (pending_cr_) {
      // '\r' is part of a record terminator only when followed by '\n'
      // (or end of input); otherwise it was a literal character.
      pending_cr_ = false;
      if (c != '\n') {
        current_.push_back('\r');
        record_has_chars_ = true;
      }
    }
    if (in_quotes_) {
      if (c == '"') {
        pending_quote_ = true;
      } else {
        current_.push_back(c);
      }
    } else if (c == '"') {
      in_quotes_ = true;
      current_quoted_ = true;
      record_has_chars_ = true;
    } else if (c == delimiter_) {
      EndField();
      record_has_chars_ = true;
    } else if (c == '\n') {
      EndRecord(records);
    } else if (c == '\r') {
      pending_cr_ = true;
    } else {
      current_.push_back(c);
      record_has_chars_ = true;
    }
  }
}

Status RecordScanner::Finish(std::vector<RawRecord>* records) {
  if (pending_quote_) {
    pending_quote_ = false;
    in_quotes_ = false;  // the '"' was a closing quote at end of input
  }
  if (in_quotes_) {
    return UnterminatedQuoteError();
  }
  pending_cr_ = false;  // a trailing '\r' closes the record below
  if (record_has_chars_ || !record_.empty() || !current_.empty()) {
    EndRecord(records);
  }
  return OkStatus();
}

Result<Table> BuildTableFromRecords(const std::vector<RawRecord>& rows, size_t first_data_row,
                                    const std::vector<std::string>& names,
                                    const std::vector<bool>& numeric) {
  size_t num_cols = names.size();
  for (size_t r = first_data_row; r < rows.size(); ++r) {
    if (rows[r].size() != num_cols) {
      return InternalError("BuildTableFromRecords: record " + std::to_string(r) + " has " +
                           std::to_string(rows[r].size()) + " fields, expected " +
                           std::to_string(num_cols));
    }
  }
  TableBuilder builder;
  for (size_t c = 0; c < num_cols; ++c) {
    if (numeric[c]) {
      std::vector<double> values;
      std::vector<bool> valid;
      values.reserve(rows.size() - first_data_row);
      valid.reserve(rows.size() - first_data_row);
      bool has_null = false;
      for (size_t r = first_data_row; r < rows.size(); ++r) {
        std::optional<double> value = ParseDouble(rows[r][c].text);
        values.push_back(value.value_or(0.0));
        valid.push_back(value.has_value());
        has_null = has_null || !value.has_value();
      }
      if (has_null) {
        builder.AddNumericWithNulls(names[c], std::move(values), std::move(valid));
      } else {
        builder.AddNumeric(names[c], std::move(values));
      }
    } else {
      // Categorical: empty cells become nulls (code -1).
      std::vector<int32_t> codes;
      std::vector<std::string> dictionary;
      std::unordered_map<std::string, int32_t> index;
      codes.reserve(rows.size() - first_data_row);
      for (size_t r = first_data_row; r < rows.size(); ++r) {
        const std::string& value = rows[r][c].text;
        if (value.empty()) {
          codes.push_back(-1);
          continue;
        }
        auto [it, inserted] = index.emplace(value, static_cast<int32_t>(dictionary.size()));
        if (inserted) {
          dictionary.push_back(value);
        }
        codes.push_back(it->second);
      }
      builder.AddColumn(names[c],
                        Column::CategoricalFromCodes(std::move(codes), std::move(dictionary)));
    }
  }
  return std::move(builder).Build();
}

}  // namespace scoded::csv
