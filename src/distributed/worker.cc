#include "distributed/worker.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/framing.h"
#include "serve/wire.h"
#include "stats/shard_stats.h"
#include "table/csv_stream.h"

namespace scoded::dist {

namespace {

struct SummarizeRequest {
  std::string path;
  csv::ShardReaderOptions reader;
  csv::ShardSchema schema;
  csv::ByteWindow window;
  std::vector<PairwiseShardSummary::Spec> specs;
};

Result<uint64_t> MemberUint(const JsonValue& parent, const std::string& name) {
  const JsonValue* value = parent.Find(name);
  if (value == nullptr || !value->is_number() || value->number < 0 ||
      static_cast<double>(static_cast<uint64_t>(value->number)) != value->number) {
    return InvalidArgumentError("summarize request needs a non-negative integer '" + name + "'");
  }
  return static_cast<uint64_t>(value->number);
}

Result<const JsonValue*> MemberOfKind(const JsonValue& parent, const std::string& name,
                                      bool (JsonValue::*is_kind)() const, const char* kind) {
  const JsonValue* value = parent.Find(name);
  if (value == nullptr || !(value->*is_kind)()) {
    return InvalidArgumentError(std::string("summarize request needs ") + kind + " '" + name +
                                "'");
  }
  return value;
}

Result<SummarizeRequest> ParseSummarizeRequest(const JsonValue& request) {
  SummarizeRequest out;
  SCODED_ASSIGN_OR_RETURN(const JsonValue* path,
                          MemberOfKind(request, "path", &JsonValue::is_string, "a string"));
  out.path = path->string_value;
  SCODED_ASSIGN_OR_RETURN(const JsonValue* reader,
                          MemberOfKind(request, "reader", &JsonValue::is_object, "an object"));
  SCODED_ASSIGN_OR_RETURN(uint64_t shard_rows, MemberUint(*reader, "shard_rows"));
  SCODED_ASSIGN_OR_RETURN(uint64_t buffer_bytes, MemberUint(*reader, "buffer_bytes"));
  out.reader.shard_rows = static_cast<size_t>(shard_rows);
  out.reader.buffer_bytes = static_cast<size_t>(buffer_bytes);
  const JsonValue* delimiter = reader->Find("delimiter");
  if (delimiter == nullptr || !delimiter->is_string() || delimiter->string_value.size() != 1) {
    return InvalidArgumentError("reader options need a one-character 'delimiter'");
  }
  out.reader.csv.delimiter = delimiter->string_value[0];
  SCODED_ASSIGN_OR_RETURN(const JsonValue* schema,
                          MemberOfKind(request, "schema", &JsonValue::is_object, "an object"));
  SCODED_ASSIGN_OR_RETURN(const JsonValue* names,
                          MemberOfKind(*schema, "names", &JsonValue::is_array, "an array"));
  SCODED_ASSIGN_OR_RETURN(const JsonValue* numeric,
                          MemberOfKind(*schema, "numeric", &JsonValue::is_array, "an array"));
  if (names->array.size() != numeric->array.size()) {
    return InvalidArgumentError("schema names and numeric flags differ in length");
  }
  for (size_t c = 0; c < names->array.size(); ++c) {
    if (!names->array[c].is_string() || !numeric->array[c].is_bool()) {
      return InvalidArgumentError("schema needs string names and boolean numeric flags");
    }
    out.schema.names.push_back(names->array[c].string_value);
    out.schema.numeric.push_back(numeric->array[c].bool_value);
  }
  SCODED_ASSIGN_OR_RETURN(const JsonValue* window,
                          MemberOfKind(request, "window", &JsonValue::is_object, "an object"));
  SCODED_ASSIGN_OR_RETURN(out.window.byte_begin, MemberUint(*window, "byte_begin"));
  SCODED_ASSIGN_OR_RETURN(out.window.byte_end, MemberUint(*window, "byte_end"));
  SCODED_ASSIGN_OR_RETURN(out.window.row_begin, MemberUint(*window, "row_begin"));
  SCODED_ASSIGN_OR_RETURN(out.window.rows, MemberUint(*window, "rows"));
  SCODED_ASSIGN_OR_RETURN(const JsonValue* to_eof,
                          MemberOfKind(*window, "to_eof", &JsonValue::is_bool, "a boolean"));
  out.window.to_eof = to_eof->bool_value;
  SCODED_ASSIGN_OR_RETURN(const JsonValue* specs,
                          MemberOfKind(request, "specs", &JsonValue::is_array, "an array"));
  out.specs.reserve(specs->array.size());
  for (const JsonValue& spec : specs->array) {
    const JsonValue* x = spec.Find("x");
    const JsonValue* y = spec.Find("y");
    const JsonValue* z = spec.Find("z");
    if (x == nullptr || !x->is_number() || y == nullptr || !y->is_number() || z == nullptr ||
        !z->is_array()) {
      return InvalidArgumentError("component specs need numeric x, y and a z array");
    }
    PairwiseShardSummary::Spec parsed;
    parsed.x_col = static_cast<int>(x->number);
    parsed.y_col = static_cast<int>(y->number);
    parsed.z_cols.reserve(z->array.size());
    for (const JsonValue& col : z->array) {
      if (!col.is_number()) {
        return InvalidArgumentError("component spec z entries must be numeric");
      }
      parsed.z_cols.push_back(static_cast<int>(col.number));
    }
    out.specs.push_back(std::move(parsed));
  }
  return out;
}

// Column-bound checks the PairwiseShardSummary constructor would enforce
// with a process-fatal SCODED_CHECK; a worker fed a bad spec must reply
// with an error instead.
Status ValidateSpec(const PairwiseShardSummary::Spec& spec, const Table& schema) {
  auto ok = [&](int col) { return col >= 0 && static_cast<size_t>(col) < schema.NumColumns(); };
  if (!ok(spec.x_col) || !ok(spec.y_col) || spec.x_col == spec.y_col) {
    return InvalidArgumentError("component spec has invalid x/y columns");
  }
  for (int z : spec.z_cols) {
    if (!ok(z) || z == spec.x_col || z == spec.y_col) {
      return InvalidArgumentError("component spec has invalid conditioning columns");
    }
  }
  return OkStatus();
}

// Reads the request's byte window, and only it: the coordinator's first
// pass located the window and fixed the schema, so the worker neither
// re-types the file nor parses the shards before its own. The window
// verifies its bytes and row count as it ends (csv::WindowReader).
Result<std::string> HandleSummarize(const JsonValue& request) {
  SCODED_ASSIGN_OR_RETURN(SummarizeRequest req, ParseSummarizeRequest(request));
  obs::ScopedSpan span("dist/worker_summarize");
  if (span.active()) {
    span.Arg("window_bytes", static_cast<int64_t>(req.window.byte_end - req.window.byte_begin))
        .Arg("rows", static_cast<int64_t>(req.window.rows))
        .Arg("specs", static_cast<int64_t>(req.specs.size()));
  }
  SCODED_ASSIGN_OR_RETURN(Table schema, csv::BuildTable(req.schema.names, csv::MakeColumnBuilders(
                                                                              req.schema.numeric)));
  std::vector<PairwiseShardSummary> summaries;
  summaries.reserve(req.specs.size());
  for (const PairwiseShardSummary::Spec& spec : req.specs) {
    SCODED_RETURN_IF_ERROR(ValidateSpec(spec, schema));
    summaries.emplace_back(schema, spec);
  }
  SCODED_ASSIGN_OR_RETURN(
      csv::WindowReader reader,
      csv::WindowReader::Open(req.path, std::move(req.schema), req.window, req.reader));
  static obs::Counter* const worker_rows =
      obs::Metrics::Global().FindOrCreateCounter("dist.worker_rows");
  static obs::Counter* const worker_shards =
      obs::Metrics::Global().FindOrCreateCounter("dist.worker_shards");
  uint64_t row_offset = req.window.row_begin;
  uint64_t shards = 0;
  for (;;) {
    std::optional<Table> shard;
    {
      obs::ScopedSpan read_span("dist/window_read");
      SCODED_ASSIGN_OR_RETURN(shard, reader.Next());
      if (read_span.active() && shard.has_value()) {
        read_span.Arg("rows", static_cast<int64_t>(shard->NumRows()));
      }
    }
    if (!shard.has_value()) {
      break;
    }
    for (PairwiseShardSummary& summary : summaries) {
      summary.Accumulate(*shard, row_offset);
    }
    row_offset += shard->NumRows();
    ++shards;
    worker_rows->Add(static_cast<int64_t>(shard->NumRows()));
    worker_shards->Add();
    obs::Heartbeat("dist.worker_shard", static_cast<int64_t>(shards));
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("shards").Uint(shards);
  json.Key("rows").String(std::to_string(row_offset - req.window.row_begin));
  json.Key("summaries").BeginArray();
  for (const PairwiseShardSummary& summary : summaries) {
    serve::WriteShardSummaryJson(summary.ToSnapshot(), json);
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string ErrorEnvelope(const Status& status) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(false);
  json.Key("code").String(StatusCodeToString(status.code()));
  json.Key("message").String(status.message());
  json.EndObject();
  return json.str();
}

}  // namespace

Status ServeWorker(net::TcpConn& conn) {
  for (;;) {
    Result<std::string> frame = serve::ReadFrame(conn);
    if (!frame.ok()) {
      // A departed coordinator is the normal end of a worker's life.
      return frame.status().code() == StatusCode::kUnavailable ? OkStatus() : frame.status();
    }
    Result<JsonValue> request = ParseJson(*frame);
    std::string op;
    if (request.ok()) {
      const JsonValue* op_value = request->Find("op");
      if (op_value != nullptr && op_value->is_string()) {
        op = op_value->string_value;
      }
    }
    std::string reply;
    bool shutdown = false;
    if (!request.ok()) {
      reply = ErrorEnvelope(request.status());
    } else if (op == "ping" || op == "shutdown") {
      JsonWriter json;
      json.BeginObject();
      json.Key("ok").Bool(true);
      json.EndObject();
      reply = json.str();
      shutdown = op == "shutdown";
    } else if (op == "summarize") {
      Result<std::string> response = HandleSummarize(*request);
      reply = response.ok() ? *response : ErrorEnvelope(response.status());
    } else {
      reply = ErrorEnvelope(InvalidArgumentError("unknown op '" + op + "'"));
    }
    SCODED_RETURN_IF_ERROR(serve::WriteFrame(conn, reply));
    if (shutdown) {
      return OkStatus();
    }
  }
}

}  // namespace scoded::dist
