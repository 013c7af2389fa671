#include "distributed/coordinator.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/wire.h"
#include "table/csv_stream.h"

namespace scoded::dist {

namespace {

// Reverse of StatusCodeToString, for reconstructing a worker's Status from
// its error envelope (same table as the serve client).
StatusCode StatusCodeFromString(const std::string& name) {
  if (name == "InvalidArgument") return StatusCode::kInvalidArgument;
  if (name == "NotFound") return StatusCode::kNotFound;
  if (name == "OutOfRange") return StatusCode::kOutOfRange;
  if (name == "FailedPrecondition") return StatusCode::kFailedPrecondition;
  if (name == "Unimplemented") return StatusCode::kUnimplemented;
  if (name == "AlreadyExists") return StatusCode::kAlreadyExists;
  if (name == "DataLoss") return StatusCode::kDataLoss;
  if (name == "DeadlineExceeded") return StatusCode::kDeadlineExceeded;
  if (name == "ResourceExhausted") return StatusCode::kResourceExhausted;
  if (name == "Unavailable") return StatusCode::kUnavailable;
  return StatusCode::kInternal;
}

struct TaskRange {
  uint64_t begin = 0;  // shard indices [begin, end)
  uint64_t end = 0;
};

// A fully validated task response: summaries restored through the codec
// and checked against the plan, ready to fold.
struct TaskResult {
  std::vector<PairwiseShardSummary> summaries;
  uint64_t rows = 0;
  uint64_t bytes = 0;  // wire payload size, for the per-worker gauge
};

// Outcome of dispatching one task to one worker.
struct Attempt {
  enum class Kind { kOk, kRetry, kFatal };
  Kind kind = Kind::kRetry;
  TaskResult result;  // kOk only
  Status status;      // kRetry / kFatal
};

Attempt RetryAttempt(Status status) {
  Attempt attempt;
  attempt.kind = Attempt::Kind::kRetry;
  attempt.status = std::move(status);
  return attempt;
}

std::string BuildSummarizeRequest(const std::string& path, const csv::ShardReaderOptions& reader,
                                  const std::string& schema_json, const std::string& specs_json,
                                  const csv::ByteWindow& window) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op").String("summarize");
  json.Key("path").String(path);
  json.Key("reader").BeginObject();
  json.Key("shard_rows").Uint(std::max<size_t>(1, reader.shard_rows));
  json.Key("buffer_bytes").Uint(std::max<size_t>(1, reader.buffer_bytes));
  json.Key("delimiter").String(std::string(1, reader.csv.delimiter));
  json.EndObject();
  json.Key("schema").Raw(schema_json);
  json.Key("window").BeginObject();
  json.Key("byte_begin").Uint(window.byte_begin);
  json.Key("byte_end").Uint(window.byte_end);
  json.Key("row_begin").Uint(window.row_begin);
  json.Key("rows").Uint(window.rows);
  json.Key("to_eof").Bool(window.to_eof);
  json.EndObject();
  json.Key("specs").Raw(specs_json);
  json.EndObject();
  return json.str();
}

// Sends one task and fully validates the response. Anything that smells
// like a broken worker or transport — dead channel, deadline, torn or
// malformed frame, summaries that fail restoration — is kRetry; a
// well-formed error envelope is the worker correctly reporting a problem
// retrying elsewhere cannot cure, so it is kFatal.
Attempt RunTask(WorkerChannel& channel, const std::string& request, int deadline_millis,
                const Table& schema, const std::vector<ShardedComponent>& components) {
  Status sent = channel.Send(request);
  if (!sent.ok()) {
    return RetryAttempt(sent);
  }
  Result<std::string> payload = channel.Receive(deadline_millis);
  if (!payload.ok()) {
    if (payload.status().code() == StatusCode::kDeadlineExceeded) {
      channel.Kill();  // a stalled worker keeps the socket open; cut it
    }
    return RetryAttempt(payload.status());
  }
  Result<JsonValue> response = ParseJson(*payload);
  if (!response.ok()) {
    return RetryAttempt(response.status());
  }
  const JsonValue* ok = response->Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return RetryAttempt(InternalError("worker response has no ok field"));
  }
  if (!ok->bool_value) {
    const JsonValue* code = response->Find("code");
    const JsonValue* message = response->Find("message");
    Attempt attempt;
    attempt.kind = Attempt::Kind::kFatal;
    attempt.status = Status(code != nullptr && code->is_string()
                                ? StatusCodeFromString(code->string_value)
                                : StatusCode::kInternal,
                            "worker: " + (message != nullptr && message->is_string()
                                              ? message->string_value
                                              : std::string("unspecified error")));
    return attempt;
  }
  const JsonValue* rows = response->Find("rows");
  const JsonValue* summaries = response->Find("summaries");
  if (rows == nullptr || !rows->is_string() || summaries == nullptr || !summaries->is_array()) {
    return RetryAttempt(InternalError("worker response is missing rows or summaries"));
  }
  Result<int64_t> range_rows = ParseCheckedInt(rows->string_value, 0, INT64_MAX, "worker rows");
  if (!range_rows.ok()) {
    return RetryAttempt(range_rows.status());
  }
  if (summaries->array.size() != components.size()) {
    return RetryAttempt(InternalError("worker returned " +
                                      std::to_string(summaries->array.size()) +
                                      " summaries, expected " +
                                      std::to_string(components.size())));
  }
  Attempt attempt;
  attempt.result.rows = static_cast<uint64_t>(*range_rows);
  attempt.result.bytes = payload->size();
  attempt.result.summaries.reserve(components.size());
  for (size_t c = 0; c < components.size(); ++c) {
    Result<PairwiseShardSummary::Snapshot> snapshot =
        serve::ParseShardSummaryJson(summaries->array[c]);
    if (!snapshot.ok()) {
      return RetryAttempt(snapshot.status());
    }
    const PairwiseShardSummary::Spec& want = components[c].spec;
    if (snapshot->spec.x_col != want.x_col || snapshot->spec.y_col != want.y_col ||
        snapshot->spec.z_cols != want.z_cols) {
      return RetryAttempt(InternalError("worker summary answers the wrong component"));
    }
    if (snapshot->rows != *range_rows) {
      return RetryAttempt(InternalError("worker summaries disagree on the row count"));
    }
    Result<PairwiseShardSummary> restored =
        PairwiseShardSummary::FromSnapshot(schema, *snapshot);
    if (!restored.ok()) {
      return RetryAttempt(restored.status());
    }
    attempt.result.summaries.push_back(std::move(*restored));
  }
  attempt.kind = Attempt::Kind::kOk;
  return attempt;
}

obs::Gauge* WorkerGauge(size_t worker, const char* what) {
  return obs::Metrics::Global().FindOrCreateGauge("dist.worker" + std::to_string(worker) + "." +
                                                  what);
}

}  // namespace

Result<ShardedCheckResult> DistributedCheckAll(const std::string& path,
                                               const std::vector<ApproximateSc>& constraints,
                                               Substrate& substrate,
                                               const DistributedCheckOptions& options) {
  obs::ScopedSpan span("dist/check_all");
  if (span.active()) {
    span.Arg("constraints", static_cast<int64_t>(constraints.size()))
        .Arg("workers", static_cast<int64_t>(options.workers));
  }
  if (options.workers < 1) {
    return InvalidArgumentError("distributed check needs at least one worker");
  }
  if (options.base.threads > 0) {
    parallel::SetThreads(options.base.threads);
  }
  static obs::Gauge* const progress_shards_total =
      obs::Metrics::Global().FindOrCreateGauge("progress.shards_total");
  static obs::Gauge* const progress_shards_done =
      obs::Metrics::Global().FindOrCreateGauge("progress.shards_done");
  static obs::Gauge* const progress_rows_total =
      obs::Metrics::Global().FindOrCreateGauge("progress.rows_total");
  static obs::Gauge* const progress_rows =
      obs::Metrics::Global().FindOrCreateGauge("progress.rows_ingested");
  static obs::Gauge* const progress_constraints_total =
      obs::Metrics::Global().FindOrCreateGauge("progress.constraints_total");
  static obs::Gauge* const progress_constraints =
      obs::Metrics::Global().FindOrCreateGauge("progress.constraints_checked");
  static obs::Gauge* const progress_min_p =
      obs::Metrics::Global().FindOrCreateGauge("progress.current_min_p");
  static obs::Gauge* const workers_live_gauge =
      obs::Metrics::Global().FindOrCreateGauge("dist.workers_live");
  static obs::Counter* const tasks_retried =
      obs::Metrics::Global().FindOrCreateCounter("dist.tasks_retried");
  static obs::Counter* const workers_lost =
      obs::Metrics::Global().FindOrCreateCounter("dist.workers_lost");

  // The coordinator runs the only first pass: it binds constraints to the
  // schema, cuts shard ranges by the row count, and hands each worker the
  // byte window of its range, which the worker verifies against this pass.
  SCODED_ASSIGN_OR_RETURN(csv::ShardReader reader,
                          csv::ShardReader::Open(path, options.base.reader));
  SCODED_ASSIGN_OR_RETURN(Table schema, reader.EmptyTable());
  const uint64_t num_shards = reader.num_shards();
  progress_shards_total->Set(static_cast<double>(num_shards));
  progress_rows_total->Set(static_cast<double>(reader.num_data_rows()));
  progress_shards_done->Set(0.0);
  progress_rows->Set(0.0);
  progress_constraints_total->Set(static_cast<double>(constraints.size()));
  progress_constraints->Set(0.0);
  progress_min_p->Set(1.0);

  SCODED_ASSIGN_OR_RETURN(ShardedCheckPlan plan,
                          PrepareShardedCheck(schema, constraints, options.base.test));

  if (plan.components.empty() || num_shards == 0) {
    // Nothing to summarise; no fleet needed.
    return FinishShardedCheck(path, constraints, options.base, std::move(plan),
                              static_cast<size_t>(num_shards), reader.num_data_rows());
  }

  // Cut the shard range into contiguous tasks, several per worker, so a
  // lost worker forfeits a task, not its whole share.
  const uint64_t num_tasks =
      std::min<uint64_t>(num_shards, static_cast<uint64_t>(options.workers) *
                                         std::max(1, options.tasks_per_worker));
  std::vector<TaskRange> tasks(num_tasks);
  for (uint64_t t = 0; t < num_tasks; ++t) {
    tasks[t] = {t * num_shards / num_tasks, (t + 1) * num_shards / num_tasks};
  }
  std::string schema_json;
  {
    JsonWriter json;
    json.BeginObject();
    json.Key("names").BeginArray();
    for (const std::string& name : reader.column_names()) {
      json.String(name);
    }
    json.EndArray();
    json.Key("numeric").BeginArray();
    for (bool numeric : reader.numeric()) {
      json.Bool(numeric);
    }
    json.EndArray();
    json.EndObject();
    schema_json = json.str();
  }
  std::string specs_json;
  {
    JsonWriter json;
    json.BeginArray();
    for (const ShardedComponent& component : plan.components) {
      json.BeginObject();
      json.Key("x").Int(component.spec.x_col);
      json.Key("y").Int(component.spec.y_col);
      json.Key("z").BeginArray();
      for (int z : component.spec.z_cols) {
        json.Int(z);
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    specs_json = json.str();
  }

  const size_t num_workers = static_cast<size_t>(options.workers);
  std::vector<std::unique_ptr<WorkerChannel>> channels;
  channels.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    SCODED_ASSIGN_OR_RETURN(std::unique_ptr<WorkerChannel> channel, substrate.Spawn(w));
    channels.push_back(std::move(channel));
  }
  workers_live_gauge->Set(static_cast<double>(num_workers));

  // Dispatch state. Completed results are folded by this thread strictly
  // in task order — contiguous ascending ranges, so fold order equals
  // file order and the result cannot depend on scheduling.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<uint64_t> queue;
  for (uint64_t t = 0; t < num_tasks; ++t) {
    queue.push_back(t);
  }
  std::vector<std::optional<TaskResult>> results(num_tasks);
  uint64_t completed = 0;
  size_t live_workers = num_workers;
  bool aborted = false;
  Status abort_status;

  std::vector<std::thread> pumps;
  pumps.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    pumps.emplace_back([&, w] {
      WorkerChannel& channel = *channels[w];
      obs::Gauge* const assigned_gauge = WorkerGauge(w, "shards_assigned");
      obs::Gauge* const done_gauge = WorkerGauge(w, "shards_done");
      obs::Gauge* const bytes_gauge = WorkerGauge(w, "bytes");
      obs::Gauge* const rows_gauge = WorkerGauge(w, "rows");
      uint64_t assigned = 0;
      uint64_t done = 0;
      uint64_t bytes = 0;
      uint64_t rows = 0;
      for (;;) {
        uint64_t task;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !queue.empty() || completed == num_tasks || aborted; });
          if (completed == num_tasks || aborted) {
            return;
          }
          // Any task costs a worker only its own window, so the queue
          // head is always the right pick.
          task = queue.front();
          queue.pop_front();
        }
        const TaskRange& range = tasks[task];
        assigned += range.end - range.begin;
        assigned_gauge->Set(static_cast<double>(assigned));
        std::string request =
            BuildSummarizeRequest(path, options.base.reader, schema_json, specs_json,
                                  reader.Window(range.begin, range.end));
        Attempt attempt;
        {
          obs::ScopedSpan dispatch_span("dist/dispatch");
          if (dispatch_span.active()) {
            dispatch_span.Arg("worker", static_cast<int64_t>(w))
                .Arg("task", static_cast<int64_t>(task))
                .Arg("begin", static_cast<int64_t>(range.begin))
                .Arg("end", static_cast<int64_t>(range.end));
          }
          attempt = RunTask(channel, request, options.deadline_millis, schema, plan.components);
        }
        std::lock_guard<std::mutex> lock(mu);
        if (attempt.kind == Attempt::Kind::kOk) {
          done += range.end - range.begin;
          bytes += attempt.result.bytes;
          rows += attempt.result.rows;
          done_gauge->Set(static_cast<double>(done));
          bytes_gauge->Set(static_cast<double>(bytes));
          rows_gauge->Set(static_cast<double>(rows));
          results[task] = std::move(attempt.result);
          ++completed;
          obs::Heartbeat("dist.task_done", static_cast<int64_t>(completed));
          cv.notify_all();
          continue;
        }
        // Retry earliest-first so the in-order fold unblocks soonest.
        queue.push_front(task);
        if (attempt.kind == Attempt::Kind::kFatal) {
          if (!aborted) {
            aborted = true;
            abort_status = attempt.status;
          }
        } else {
          tasks_retried->Add();
          workers_lost->Add();
          --live_workers;
          workers_live_gauge->Set(static_cast<double>(live_workers));
          channel.Kill();
          if (live_workers == 0 && !aborted) {
            aborted = true;
            abort_status = UnavailableError(
                "all workers lost with work outstanding; last failure: " +
                attempt.status.ToString());
          }
        }
        cv.notify_all();
        return;
      }
    });
  }

  // Fold in task order as results land.
  uint64_t folded_rows = 0;
  size_t folded_shards = 0;
  Status fold_error;
  for (uint64_t t = 0; t < num_tasks && fold_error.ok(); ++t) {
    std::optional<TaskResult> result;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return results[t].has_value() || aborted; });
      if (aborted && !results[t].has_value()) {
        break;
      }
      result = std::move(results[t]);
      results[t].reset();  // folded summaries free as we go
    }
    obs::ScopedSpan fold_span("dist/fold");
    if (fold_span.active()) {
      fold_span.Arg("task", static_cast<int64_t>(t))
          .Arg("rows", static_cast<int64_t>(result->rows));
    }
    for (size_t c = 0; c < plan.components.size(); ++c) {
      plan.components[c].summary.Merge(result->summaries[c]);
    }
    folded_rows += result->rows;
    folded_shards += static_cast<size_t>(tasks[t].end - tasks[t].begin);
    progress_shards_done->MaxWith(static_cast<double>(folded_shards));
    progress_rows->MaxWith(static_cast<double>(folded_rows));
  }

  {
    // Wake every pump that is still waiting for work or results.
    std::lock_guard<std::mutex> lock(mu);
    if (completed != num_tasks && !aborted) {
      aborted = true;
      abort_status = fold_error;
    }
    cv.notify_all();
  }
  if (aborted) {
    for (std::unique_ptr<WorkerChannel>& channel : channels) {
      channel->Kill();  // unblocks pumps waiting on a response
    }
  }
  for (std::thread& pump : pumps) {
    pump.join();
  }
  bool failed;
  {
    std::lock_guard<std::mutex> lock(mu);
    failed = aborted || completed != num_tasks;
  }
  if (!failed) {
    // Dismiss the fleet politely, every worker before waiting on any;
    // workers also exit on channel close, so failures here are not errors.
    std::vector<bool> sent(channels.size());
    for (size_t w = 0; w < channels.size(); ++w) {
      sent[w] = channels[w]->Send("{\"op\":\"shutdown\"}").ok();
    }
    for (size_t w = 0; w < channels.size(); ++w) {
      if (sent[w]) {
        (void)channels[w]->Receive(/*deadline_millis=*/2000);
      }
    }
  }
  // Close every channel before reaping any, so the workers exit together.
  for (std::unique_ptr<WorkerChannel>& channel : channels) {
    channel->Close();
  }
  channels.clear();
  workers_live_gauge->Set(0.0);
  if (failed) {
    return abort_status.ok() ? UnavailableError("distributed check aborted") : abort_status;
  }
  if (folded_rows != reader.num_data_rows()) {
    return DataLossError("folded " + std::to_string(folded_rows) + " rows but the file has " +
                         std::to_string(reader.num_data_rows()) +
                         " — changed during the run?");
  }

  return FinishShardedCheck(path, constraints, options.base, std::move(plan), folded_shards,
                            folded_rows);
}

}  // namespace scoded::dist
