// e2e_trace: the benchmark's traced run. It repeats each timed operation
// in process, calling the layers' public functions directly, and records a
// span around every call: name, start, end, parent, run id, wall time and
// process CPU time (CLOCK_PROCESS_CPUTIME_ID), so wall − cpu is waiting.
// The whole sequence runs --repeat times and each metric is the median.
// Counters are deltas of the obs registry taken around each call. Spans
// stay in memory and are written once, to --spans-out, at the end; the
// per-layer metrics and each operation's traced total go to stdout as one
// JSON object.
//
// Operations (run ids) and the layer calls traced for each:
//   check_inmem    csv::ReadFile, Scoded::CheckViolation; decomposed
//                  separately into ReadTextFile, RecordScanner, and
//                  BuildTableFromRecords
//   check_sharded  ShardedCheckAll; decomposed into ShardReader::Open and
//                  a full pass of ShardReader::Next
//   check_workers  dist::DistributedCheckAll over a timing decorator of
//                  ForkExecSubstrate and its WorkerChannels
//   drill          csv::ReadFile, Scoded::DrillDown
//   monitor        csv::ReadFile, StreamMonitor::Create/Append/States
//   serve_check    serve::Client::Connect/Check against the live daemon,
//                  plus csv::ReadString + CheckViolation on the same text
//   serve_monitor  serve::Client session calls; WriteBatchJson separately
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/fileio.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "core/scoded.h"
#include "core/sharded_check.h"
#include "core/stream_monitor.h"
#include "distributed/coordinator.h"
#include "distributed/substrate.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/render.h"
#include "serve/wire.h"
#include "table/csv.h"
#include "table/csv_scan.h"
#include "table/csv_stream.h"

namespace e2ebench {
namespace {

using scoded::ApproximateSc;
using scoded::JsonWriter;
using scoded::Result;
using scoded::Status;
using scoded::Table;

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// In-memory span store. Begin/End may be called from any thread; the
// main thread's nesting is tracked with a stack so its spans get parents
// implicitly, other threads pass their parent explicitly.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string run;
    int repeat = 0;
    int id = 0;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
    double cpu_ms = 0.0;
    double wall_ms() const { return end_ms - start_ms; }
  };

  explicit SpanLog(int64_t origin_ns) : origin_ns_(origin_ns) {}

  void SetRun(std::string run) { run_ = std::move(run); }
  void SetRepeat(int repeat) { repeat_ = repeat; }

  int Begin(const std::string& name, int parent) {
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = name;
    span.run = run_;
    span.repeat = repeat_;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.start_ms = static_cast<double>(NowNs() - origin_ns_) / 1e6;
    span.cpu_ms = CpuMs();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  double End(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ms = static_cast<double>(NowNs() - origin_ns_) / 1e6;
    span.cpu_ms = CpuMs() - span.cpu_ms;
    return span.wall_ms();
  }

  // Main-thread nesting.
  int Push(const std::string& name) {
    int id = Begin(name, stack_.empty() ? -1 : stack_.back());
    stack_.push_back(id);
    return id;
  }
  double Pop() {
    int id = stack_.back();
    stack_.pop_back();
    return End(id);
  }
  int Current() const { return stack_.empty() ? -1 : stack_.back(); }

  std::string Json() const {
    JsonWriter json;
    json.BeginArray();
    for (const Span& span : spans_) {
      json.BeginObject();
      json.Key("name").String(span.name);
      json.Key("run").String(span.run);
      json.Key("repeat").Int(span.repeat);
      json.Key("id").Int(span.id);
      json.Key("parent").Int(span.parent);
      json.Key("start_ms").DoubleFull(span.start_ms);
      json.Key("end_ms").DoubleFull(span.end_ms);
      json.Key("wall_ms").DoubleFull(span.wall_ms());
      json.Key("cpu_ms").DoubleFull(span.cpu_ms);
      json.EndObject();
    }
    json.EndArray();
    return json.str();
  }

 private:
  int64_t origin_ns_;
  std::mutex mu_;
  std::string run_;
  int repeat_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Times one main-thread call as a child span of the current span.
template <typename Fn>
auto Traced(SpanLog& log, const std::string& name, double* ms, Fn&& fn) {
  log.Push(name);
  auto result = fn();
  *ms = log.Pop();
  return result;
}

// Counter and histogram-sum deltas of the obs registry.
class CounterDelta {
 public:
  CounterDelta() : before_(Read()) {}
  double Get(const std::string& name) const {
    std::map<std::string, double> now = Read();
    auto after = now.find(name);
    auto before = before_.find(name);
    return (after == now.end() ? 0.0 : after->second) -
           (before == before_.end() ? 0.0 : before->second);
  }

 private:
  static std::map<std::string, double> Read() {
    std::map<std::string, double> values;
    scoded::obs::MetricsSnapshot snapshot = scoded::obs::Metrics::Global().Snapshot();
    for (const auto& [name, value] : snapshot.counters) {
      values[name] = static_cast<double>(value);
    }
    for (const auto& [name, histogram] : snapshot.histograms) {
      values[name + ".sum"] = static_cast<double>(histogram.sum);
    }
    return values;
  }
  std::map<std::string, double> before_;
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double ChildrenCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
}

// Per-task round trips and blocked time of the coordinator's channels.
struct DistTiming {
  std::mutex mu;
  std::vector<double> spawn_ms;
  std::vector<double> task_rtt_ms;
  double receive_wait_ms = 0.0;
};

class TimingChannel : public scoded::dist::WorkerChannel {
 public:
  TimingChannel(std::unique_ptr<scoded::dist::WorkerChannel> inner, DistTiming* timing,
                SpanLog* log, int parent)
      : inner_(std::move(inner)), timing_(timing), log_(log), parent_(parent) {}

  Status Send(std::string_view payload) override {
    is_task_ = payload.find("\"summarize\"") != std::string_view::npos;
    if (is_task_) {
      task_span_ = log_->Begin("dist/task", parent_);
      sent_ns_ = NowNs();
    }
    return inner_->Send(payload);
  }

  Result<std::string> Receive(int deadline_millis) override {
    int64_t start = NowNs();
    Result<std::string> reply = inner_->Receive(deadline_millis);
    double waited = MsSince(start);
    std::lock_guard<std::mutex> lock(timing_->mu);
    timing_->receive_wait_ms += waited;
    if (is_task_) {
      timing_->task_rtt_ms.push_back(MsSince(sent_ns_));
      log_->End(task_span_);
      is_task_ = false;
    }
    return reply;
  }

  void Kill() override { inner_->Kill(); }
  int64_t pid() const override { return inner_->pid(); }

 private:
  std::unique_ptr<scoded::dist::WorkerChannel> inner_;
  DistTiming* timing_;
  SpanLog* log_;
  int parent_;
  bool is_task_ = false;
  int task_span_ = -1;
  int64_t sent_ns_ = 0;
};

class TimingSubstrate : public scoded::dist::Substrate {
 public:
  TimingSubstrate(scoded::dist::Substrate* inner, DistTiming* timing, SpanLog* log, int parent)
      : inner_(inner), timing_(timing), log_(log), parent_(parent) {}

  Result<std::unique_ptr<scoded::dist::WorkerChannel>> Spawn(size_t worker_index) override {
    int span = log_->Begin("dist/spawn", parent_);
    Result<std::unique_ptr<scoded::dist::WorkerChannel>> channel = inner_->Spawn(worker_index);
    double ms = log_->End(span);
    {
      std::lock_guard<std::mutex> lock(timing_->mu);
      timing_->spawn_ms.push_back(ms);
    }
    if (!channel.ok()) {
      return channel.status();
    }
    return std::unique_ptr<scoded::dist::WorkerChannel>(
        std::make_unique<TimingChannel>(std::move(channel).value(), timing_, log_, parent_));
  }

 private:
  scoded::dist::Substrate* inner_;
  DistTiming* timing_;
  SpanLog* log_;
  int parent_;
};

struct Output {
  std::map<std::string, double> metrics;
  std::map<std::string, double> op_ms;
};

// Begins an operation: a root span plus the parallel-pool counters that
// are reported for every op.
class Op {
 public:
  Op(SpanLog& log, Output& out, const std::string& name) : log_(log), out_(out), name_(name) {
    log_.SetRun(name);
    log_.Push("op/" + name);
  }
  ~Op() {
    log_.Pop();
    out_.metrics["parallel.tasks." + name_] = pool_.Get("parallel.tasks");
    out_.metrics["parallel.runs." + name_] = pool_.Get("parallel.runs");
    out_.metrics["parallel.queue_wait_ms." + name_] =
        pool_.Get("parallel.steal_or_queue_wait_us.sum") / 1000.0;
  }

 private:
  SpanLog& log_;
  Output& out_;
  std::string name_;
  CounterDelta pool_;
};

Status TraceCheckInMemory(SpanLog& log, Output& out, const Flags& flags, const ApproximateSc& asc) {
  const std::string path = flags.Get("check-csv");
  double read_ms = 0.0;
  double check_ms = 0.0;
  std::vector<bool> numeric;
  std::vector<std::string> names;
  {
    Op op(log, out, "check_inmem");
    SCODED_ASSIGN_OR_RETURN(auto table, Traced(log, "table/read_file", &read_ms,
                               [&] { return scoded::csv::ReadFile(path); }));
    for (size_t c = 0; c < table.schema().NumFields(); ++c) {
      names.push_back(table.schema().field(c).name);
      numeric.push_back(table.schema().field(c).type == scoded::ColumnType::kNumeric);
    }
    scoded::Scoded system(std::move(table));
    CounterDelta counters;
    SCODED_ASSIGN_OR_RETURN(auto report, Traced(log, "core/check_violation", &check_ms,
                                [&] { return system.CheckViolation(asc); }));
    out.metrics["stats.tests_executed"] = counters.Get("stats.tests_executed");
    out.metrics["stats.rows_scanned"] = counters.Get("stats.rows_scanned");
    double hits = counters.Get("stats.encode_cache_hits");
    double lookups = hits + counters.Get("stats.encode_cache_misses");
    out.metrics["stats.encode_cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  }
  out.op_ms["check_inmem"] = read_ms + check_ms;
  out.metrics["table.read_file_ms"] = read_ms;
  out.metrics["core.check_violation_ms"] = check_ms;

  // The same ingest, one layer call at a time.
  log.SetRun("check_inmem.ingest_layers");
  double io_ms = 0.0;
  double scan_ms = 0.0;
  double build_ms = 0.0;
  SCODED_ASSIGN_OR_RETURN(auto text, Traced(log, "table/io", &io_ms,
                                             [&] { return scoded::ReadTextFile(path); }));
  std::vector<scoded::csv::RawRecord> records;
  Status scanned = Traced(log, "table/csv_scan", &scan_ms, [&] {
    scoded::csv::RecordScanner scanner;
    scanner.Consume(text, &records);
    return scanner.Finish(&records);
  });
  if (!scanned.ok()) {
    return scanned;
  }
  SCODED_ASSIGN_OR_RETURN(auto built, Traced(log, "table/csv_build", &build_ms, [&] {
                 return scoded::csv::BuildTableFromRecords(records, 1, names, numeric);
               }));
  out.metrics["table.io_ms"] = io_ms;
  out.metrics["table.csv_scan_ms"] = scan_ms;
  out.metrics["table.csv_build_ms"] = build_ms;
  out.metrics["table.csv_infer_ms"] = read_ms - io_ms - scan_ms - build_ms;
  out.metrics["table.mb_per_s"] =
      static_cast<double>(text.size()) / 1e6 / std::max(read_ms / 1e3, 1e-9);
  return scoded::OkStatus();
}

Status TraceCheckSharded(SpanLog& log, Output& out, const Flags& flags, const ApproximateSc& asc) {
  const std::string path = flags.Get("check-csv");
  scoded::ShardedCheckOptions options;
  options.reader.shard_rows = static_cast<size_t>(flags.Int("shard-rows", 65536));
  double check_ms = 0.0;
  {
    Op op(log, out, "check_sharded");
    SCODED_ASSIGN_OR_RETURN(auto result, Traced(log, "core/sharded_check", &check_ms, [&] {
                   return scoded::ShardedCheckAll(path, {asc}, options);
                 }));
  }
  out.op_ms["check_sharded"] = check_ms;

  log.SetRun("check_sharded.reader_passes");
  double open_ms = 0.0;
  double next_ms = 0.0;
  SCODED_ASSIGN_OR_RETURN(auto reader, Traced(log, "table/shard_open", &open_ms, [&] {
                 return scoded::csv::ShardReader::Open(path, options.reader);
               }));
  size_t shards = 0;
  Status drained = Traced(log, "table/shard_next", &next_ms, [&]() -> Status {
    while (true) {
      Result<std::optional<Table>> shard = reader.Next();
      if (!shard.ok()) return shard.status();
      if (!shard->has_value()) return scoded::OkStatus();
      ++shards;
    }
  });
  if (!drained.ok()) {
    return drained;
  }
  out.metrics["table.shard_open_ms"] = open_ms;
  out.metrics["table.shard_next_ms"] = next_ms;
  out.metrics["table.shards"] = static_cast<double>(shards);
  out.metrics["core.sharded_check_ms"] = check_ms;
  out.metrics["core.shard_summarize_fold_ms"] = check_ms - open_ms - next_ms;
  return scoded::OkStatus();
}

Status TraceCheckWorkers(SpanLog& log, Output& out, const Flags& flags, const ApproximateSc& asc) {
  const std::string threads = flags.Get("worker-threads", "1");
  scoded::parallel::SetThreads(std::atoi(threads.c_str()));
  setenv("SCODED_THREADS", threads.c_str(), 1);  // inherited by the workers
  scoded::dist::DistributedCheckOptions options;
  options.base.reader.shard_rows = static_cast<size_t>(flags.Int("shard-rows", 65536));
  options.workers = static_cast<int>(flags.Int("workers", 2));
  scoded::dist::ForkExecSubstrate fork(flags.Get("scoded"), {"worker"});
  DistTiming timing;
  double check_ms = 0.0;
  double children_cpu = ChildrenCpuMs();
  CounterDelta counters;
  {
    Op op(log, out, "check_workers");
    log.Push("dist/check_all");
    TimingSubstrate substrate(&fork, &timing, &log, log.Current());
    Result<scoded::ShardedCheckResult> result =
        scoded::dist::DistributedCheckAll(flags.Get("check-csv"), {asc}, substrate, options);
    check_ms = log.Pop();
    if (!result.ok()) {
      return result.status();
    }
  }
  out.op_ms["check_workers"] = check_ms;
  out.metrics["dist.spawn_ms"] = Sum(timing.spawn_ms);
  out.metrics["dist.check_all_ms"] = check_ms;
  out.metrics["dist.task_rtt_p50_ms"] = Quantile(timing.task_rtt_ms, 0.5);
  out.metrics["dist.task_rtt_max_ms"] = Quantile(timing.task_rtt_ms, 1.0);
  out.metrics["dist.tasks"] = static_cast<double>(timing.task_rtt_ms.size());
  out.metrics["dist.tasks_retried"] = counters.Get("dist.tasks_retried");
  out.metrics["dist.coordinator_wait_ms"] = timing.receive_wait_ms;
  out.metrics["dist.worker_cpu_ms"] = ChildrenCpuMs() - children_cpu;
  scoded::parallel::SetThreads(static_cast<int>(flags.Int("threads", 1)));
  return scoded::OkStatus();
}

Status TraceDrill(SpanLog& log, Output& out, const Flags& flags, const ApproximateSc& asc) {
  double read_ms = 0.0;
  double drill_ms = 0.0;
  CounterDelta counters;
  {
    Op op(log, out, "drill");
    SCODED_ASSIGN_OR_RETURN(auto table, Traced(log, "table/read_file", &read_ms, [&] {
                   return scoded::csv::ReadFile(flags.Get("analyze-csv"));
                 }));
    scoded::Scoded system(std::move(table));
    SCODED_ASSIGN_OR_RETURN(auto result, Traced(log, "core/drilldown", &drill_ms, [&] {
                   return system.DrillDown(asc, static_cast<size_t>(flags.Int("k", 10)));
                 }));
  }
  out.op_ms["drill"] = read_ms + drill_ms;
  out.metrics["core.drilldown_ms"] = drill_ms;
  out.metrics["core.drilldown_removals"] = counters.Get("core.drilldown_removals");
  out.metrics["stats.tau_benefit_calls"] = counters.Get("stats.tau_benefit_calls");
  return scoded::OkStatus();
}

Status TraceMonitor(SpanLog& log, Output& out, const Flags& flags,
                   const std::vector<ApproximateSc>& constraints) {
  double read_ms = 0.0;
  double create_ms = 0.0;
  std::vector<double> gather_ms;
  std::vector<double> append_ms;
  std::vector<double> states_ms;
  CounterDelta counters;
  {
    Op op(log, out, "monitor");
    SCODED_ASSIGN_OR_RETURN(auto table, Traced(log, "table/read_file", &read_ms, [&] {
                   return scoded::csv::ReadFile(flags.Get("analyze-csv"));
                 }));
    SCODED_ASSIGN_OR_RETURN(auto stream, Traced(log, "core/stream_create", &create_ms, [&] {
                   return scoded::StreamMonitor::Create(table, constraints);
                 }));
    const size_t batch = static_cast<size_t>(flags.Int("batch", 100));
    std::string rendered = scoded::serve::MonitorHeaderLine();
    for (size_t start = 0; start < table.NumRows(); start += batch) {
      double ms = 0.0;
      Table rows = Traced(log, "table/gather", &ms, [&] { return BatchAt(table, start, batch); });
      gather_ms.push_back(ms);
      Status appended = Traced(log, "core/stream_append", &ms, [&] { return stream.Append(rows); });
      append_ms.push_back(ms);
      if (!appended.ok()) {
        return appended;
      }
      size_t length = Traced(log, "core/stream_states", &ms, [&] {
        for (const scoded::StreamMonitor::ConstraintState& state : stream.States()) {
          rendered += scoded::serve::MonitorStateLine(state);
        }
        return rendered.size();
      });
      (void)length;
      states_ms.push_back(ms);
    }
  }
  out.op_ms["monitor"] = read_ms + create_ms + Sum(gather_ms) + Sum(append_ms) + Sum(states_ms);
  out.metrics["core.stream_create_ms"] = create_ms;
  out.metrics["core.stream_append_ms"] = Sum(append_ms);
  out.metrics["core.stream_append_p90_ms"] = Quantile(append_ms, 0.9);
  out.metrics["stats.concordance_compactions"] = counters.Get("stats.concordance_compactions");
  return scoded::OkStatus();
}

Status TraceServeCheck(SpanLog& log, Output& out, const Flags& flags, const ApproximateSc& asc,
                       scoded::serve::Client* client) {
  std::vector<std::string> texts;
  for (const std::string& path : scoded::Split(flags.Get("serve-csv"), ',')) {
    SCODED_ASSIGN_OR_RETURN(auto text, scoded::ReadTextFile(path));
    texts.push_back(std::move(text));
  }
  std::vector<double> rtt_ms;
  std::vector<double> local_ms;
  std::vector<double> request_bytes;
  const int64_t requests = flags.Int("serve-requests", 50);
  {
    Op op(log, out, "serve_check");
    for (int64_t i = 0; i < requests; ++i) {
      double ms = 0.0;
      SCODED_ASSIGN_OR_RETURN(auto reply, Traced(log, "serve/check_rtt", &ms, [&] {
                     return client->Check(texts[static_cast<size_t>(i) % texts.size()],
                                          asc.sc.ToString(), kAlpha);
                   }));
      rtt_ms.push_back(ms);
    }
  }
  // The same sequence of texts in process, so the local median is taken
  // over as many warm calls as the round-trip median.
  log.SetRun("serve_check.local");
  for (int64_t i = 0; i < requests; ++i) {
    const std::string& text = texts[static_cast<size_t>(i) % texts.size()];
    double read_ms = 0.0;
    double check_ms = 0.0;
    SCODED_ASSIGN_OR_RETURN(auto table, Traced(log, "table/read_string", &read_ms,
                               [&] { return scoded::csv::ReadString(text); }));
    scoded::Scoded system(std::move(table));
    SCODED_ASSIGN_OR_RETURN(auto report, Traced(log, "core/check_violation", &check_ms,
                                [&] { return system.CheckViolation(asc); }));
    local_ms.push_back(read_ms + check_ms);
    // The request exactly as serve::Client::Check frames it.
    JsonWriter json;
    json.BeginObject();
    json.Key("op").String("check");
    json.Key("sc").String(asc.sc.ToString());
    json.Key("alpha").DoubleFull(kAlpha);
    json.Key("csv").String(text);
    json.EndObject();
    request_bytes.push_back(static_cast<double>(json.str().size()));
  }
  double rtt = Quantile(rtt_ms, 0.5);
  double local = Quantile(local_ms, 0.5);
  out.op_ms["serve_check"] = rtt;
  out.metrics["serve.check_rtt_p50_ms"] = rtt;
  out.metrics["serve.check_local_ms"] = local;
  out.metrics["serve.check_overhead_ms"] = rtt - local;
  out.metrics["serve.request_bytes"] = Quantile(request_bytes, 0.5);
  return scoded::OkStatus();
}

Status TraceServeMonitor(SpanLog& log, Output& out, const Flags& flags,
                         const std::vector<ApproximateSc>& constraints,
                         scoded::serve::Client* client) {
  SCODED_ASSIGN_OR_RETURN(auto table, scoded::csv::ReadFile(flags.Get("serve-monitor-csv")));
  const size_t batch = static_cast<size_t>(flags.Int("serve-batch", 500));
  std::vector<Table> batches;
  for (size_t start = 0; start < table.NumRows(); start += batch) {
    batches.push_back(BatchAt(table, start, batch));
  }
  double open_ms = 0.0;
  double close_ms = 0.0;
  std::vector<double> append_ms;
  std::vector<double> query_ms;
  {
    Op op(log, out, "serve_monitor");
    SCODED_ASSIGN_OR_RETURN(auto session, Traced(log, "serve/open_session", &open_ms, [&] {
                   return client->OpenSession(table.schema(), constraints, 0);
                 }));
    for (const Table& rows : batches) {
      double ms = 0.0;
      SCODED_ASSIGN_OR_RETURN(auto records, Traced(log, "serve/append_rtt", &ms,
                                   [&] { return client->AppendBatch(session, rows); }));
      (void)records;
      append_ms.push_back(ms);
      SCODED_ASSIGN_OR_RETURN(auto state, Traced(log, "serve/query_rtt", &ms,
                                 [&] { return client->Query(session); }));
      query_ms.push_back(ms);
    }
    Status closed = Traced(log, "serve/close_session", &close_ms,
                           [&] { return client->CloseSession(session); });
    if (!closed.ok()) {
      return closed;
    }
  }
  log.SetRun("serve_monitor.wire");
  double encode_ms = 0.0;
  for (const Table& rows : batches) {
    double ms = 0.0;
    size_t bytes = Traced(log, "serve/wire_encode", &ms, [&] {
      JsonWriter json;
      scoded::serve::WriteBatchJson(rows, json);
      return json.str().size();
    });
    (void)bytes;
    encode_ms += ms;
  }
  out.op_ms["serve_monitor"] = open_ms + Sum(append_ms) + Sum(query_ms) + close_ms;
  out.metrics["serve.wire_encode_ms"] = encode_ms;
  out.metrics["serve.append_rtt_p50_ms"] = Quantile(append_ms, 0.5);
  out.metrics["serve.query_rtt_p50_ms"] = Quantile(query_ms, 0.5);
  return scoded::OkStatus();
}

Output MedianOf(const std::vector<Output>& outs) {
  Output median;
  for (const auto& [name, value] : outs[0].metrics) {
    std::vector<double> values;
    for (const Output& out : outs) values.push_back(out.metrics.at(name));
    median.metrics[name] = Quantile(values, 0.5);
  }
  for (const auto& [name, value] : outs[0].op_ms) {
    std::vector<double> values;
    for (const Output& out : outs) values.push_back(out.op_ms.at(name));
    median.op_ms[name] = Quantile(values, 0.5);
  }
  return median;
}

Status Run(const Flags& flags, const cpu_set_t& all_cpus, SpanLog& log, Output& out) {
  SCODED_ASSIGN_OR_RETURN(auto check_sc, ParseScs({flags.Get("check-sc")}));
  SCODED_ASSIGN_OR_RETURN(auto drill_sc, ParseScs({flags.Get("drill-sc")}));
  SCODED_ASSIGN_OR_RETURN(auto monitor_scs, ParseScs(flags.All("monitor-sc")));
  sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
  scoded::parallel::SetThreads(static_cast<int>(flags.Int("threads", 1)));

  SCODED_RETURN_IF_ERROR(TraceCheckInMemory(log, out, flags, check_sc[0]));
  SCODED_RETURN_IF_ERROR(TraceCheckSharded(log, out, flags, check_sc[0]));
  SCODED_RETURN_IF_ERROR(TraceCheckWorkers(log, out, flags, check_sc[0]));
  SCODED_RETURN_IF_ERROR(TraceDrill(log, out, flags, drill_sc[0]));
  SCODED_RETURN_IF_ERROR(TraceMonitor(log, out, flags, monitor_scs));

  // The daemon-facing part runs as the timed load does: this thread on the
  // daemon's CPU, and the local reference with the daemon's thread count.
  if (flags.Has("serve-cpu")) {
    cpu_set_t serve_cpu;
    CPU_ZERO(&serve_cpu);
    CPU_SET(static_cast<int>(flags.Int("serve-cpu", 0)), &serve_cpu);
    sched_setaffinity(0, sizeof(serve_cpu), &serve_cpu);
  }
  scoded::parallel::SetThreads(static_cast<int>(flags.Int("serve-threads", 1)));
  log.SetRun("serve_connect");
  double connect_ms = 0.0;
  SCODED_ASSIGN_OR_RETURN(auto client, Traced(log, "serve/connect", &connect_ms, [&] {
                 return scoded::serve::Client::Connect(static_cast<uint16_t>(flags.Int("port", 0)),
                                                       30000);
               }));
  out.metrics["serve.connect_ms"] = connect_ms;
  SCODED_RETURN_IF_ERROR(TraceServeCheck(log, out, flags, check_sc[0], &client));
  return TraceServeMonitor(log, out, flags, monitor_scs, &client);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Flags flags;
  if (!ParseFlags(argc, argv, 1, &flags)) {
    std::fprintf(stderr, "usage: e2e_trace --flag value ... (see run.py)\n");
    return 1;
  }
  // Every operation is traced --repeat times; each metric is the median.
  SpanLog log(NowNs());
  cpu_set_t all_cpus;
  sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  std::vector<Output> outs;
  for (int64_t r = 0; r < flags.Int("repeat", 1); ++r) {
    log.SetRepeat(static_cast<int>(r));
    outs.emplace_back();
    Status status = Run(flags, all_cpus, log, outs.back());
    if (!status.ok()) {
      std::fprintf(stderr, "e2e_trace: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  Output out = MedianOf(outs);
  Status written = scoded::WriteTextFile(flags.Get("spans-out"), log.Json());
  if (!written.ok()) {
    std::fprintf(stderr, "e2e_trace: %s\n", written.ToString().c_str());
    return 1;
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("metrics").BeginObject();
  for (const auto& [name, value] : out.metrics) {
    json.Key(name).DoubleFull(value);
  }
  json.EndObject();
  json.Key("op_ms").BeginObject();
  for (const auto& [name, value] : out.op_ms) {
    json.Key(name).DoubleFull(value);
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
