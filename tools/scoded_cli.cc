// scoded — command-line interface to the SCODED library.
//
// Every command, the flags it takes, their kinds, defaults and environment
// fallbacks are declared once, in the flag table (GlobalFlags() and
// Commands() below). ParseArgs checks a command line against the table
// before any file is opened, socket bound or pool started: an unknown or
// inapplicable flag, a malformed or out-of-range value (from the flag or
// from its environment variable), a wrong --sc count or a stray operand is
// a usage error. Handlers then read typed values that cannot fail.
// `scoded` with no arguments prints the usage generated from the table;
// docs/cli.md describes every command and flag.
//
// Exit codes: 0 success (constraint holds / command completed), 2 the
// checked constraint is violated, 1 any error. The violation exit code
// makes `scoded check` usable as a data-quality gate in pipelines.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/fileio.h"
#include "common/json.h"
#include "common/net.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "constraints/graphoid.h"
#include "core/scoded.h"
#include "core/sharded_check.h"
#include "core/stream_monitor.h"
#include "discovery/fd_discovery.h"
#include "discovery/pc.h"
#include "eval/report.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/flightrec.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "repair/cell_repair.h"
#include "distributed/coordinator.h"
#include "distributed/substrate.h"
#include "distributed/worker.h"
#include "serve/client.h"
#include "serve/render.h"
#include "serve/server.h"
#include "stats/descriptive.h"
#include "table/csv.h"

namespace {

using namespace scoded;

// Run-level telemetry for --stats: command handlers merge the telemetry of
// the results they produce, and main() wraps the whole dispatch in one
// "cli/main" phase.
obs::RunTelemetry g_telemetry;

// ----------------------------------------------------------------------
// Flag declarations and the parsed command line.

enum class Kind { kInt, kDouble, kEnum, kPath, kOptionalPath };
enum class ScArity { kNone, kOne, kOneOrMore };

// One flag. Its value comes from the command line, else from `env` (when
// set and non-empty), else from `def`; a flag with neither stays unset.
// Both the flag's value and the environment's go through the same check.
struct Flag {
  std::string_view name;  // without the leading "--"
  Kind kind;
  std::string_view def;
  int64_t min = 0;  // kInt range, inclusive
  int64_t max = 0;
  double dmin = 0.0;  // kDouble range, inclusive
  double dmax = 0.0;
  std::string_view choices;  // kEnum: "a|b|c"
  std::string_view env;
  bool required = false;
};

constexpr int64_t kMaxInt = INT64_MAX;

Flag IntFlag(std::string_view name, std::string_view def, int64_t min, int64_t max,
             std::string_view env = {}) {
  return {name, Kind::kInt, def, min, max, 0.0, 0.0, {}, env, false};
}

Flag RealFlag(std::string_view name, std::string_view def, double min, double max,
              std::string_view env = {}) {
  return {name, Kind::kDouble, def, 0, 0, min, max, {}, env, false};
}

Flag EnumFlag(std::string_view name, std::string_view def, std::string_view choices) {
  return {name, Kind::kEnum, def, 0, 0, 0.0, 0.0, choices, {}, false};
}

Flag PathFlag(std::string_view name, Kind kind = Kind::kPath) {
  return {name, kind, {}, 0, 0, 0.0, 0.0, {}, {}, false};
}

Flag Required(Flag flag) {
  flag.required = true;
  return flag;
}

struct Value {
  std::string text;
  int64_t int_value = 0;
  double double_value = 0.0;
};

struct Command;

struct Args {
  std::string command;  // argv[1]
  const Command* spec = nullptr;
  std::vector<std::string> operands;
  std::vector<std::string> sc_text;     // each --sc as written
  std::vector<ApproximateSc> scs;       // the same, parsed, at --alpha
  std::map<std::string, Value> values;  // every flag that has a value

  bool Has(const std::string& name) const { return values.count(name) > 0; }
  int64_t Int(const std::string& name) const { return values.at(name).int_value; }
  double Double(const std::string& name) const { return values.at(name).double_value; }
  const std::string& Str(const std::string& name) const { return values.at(name).text; }
};

struct Command {
  std::string_view name;      // "client ping": the action is the first operand
  ScArity sc;
  std::string_view operand;   // the one bare operand, if any
  std::vector<Flag> flags;    // a global flag declared here overrides the global entry
  Result<int> (*run)(const Args&);
};

// Structured error reporting: one JSONL record on stderr, exit code 1.
int Fail(const Status& status) {
  obs::LogError(status.message(), {{"code", StatusCodeToString(status.code())}});
  return 1;
}

// ----------------------------------------------------------------------
// Commands over a CSV file.

Result<int> RunProfile(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(args.Str("csv")));
  std::printf("%zu rows x %zu columns\n\n%s", table.NumRows(), table.NumColumns(),
              DescribeTableText(table).c_str());
  return 0;
}

// Without --shard-rows or SCODED_SHARD_ROWS, files of 64 MiB or more are
// checked in shards of the reader's default size; 0 means in memory.
size_t AutoShardRows(const std::string& csv_path) {
  constexpr uintmax_t kAutoShardBytes = 64ull << 20;
  std::ifstream probe(csv_path, std::ios::binary | std::ios::ate);
  if (probe && static_cast<uintmax_t>(probe.tellg()) >= kAutoShardBytes) {
    return csv::ShardReaderOptions{}.shard_rows;
  }
  return 0;
}

// The verdict on the one --sc: over a local worker fleet, in shards, or in
// memory. All three yield the same report, so `check` prints the same bytes.
Result<ViolationReport> CheckOne(const Args& args) {
  const std::string& csv_path = args.Str("csv");
  const ApproximateSc& asc = args.scs[0];
  size_t shard_rows = args.Has("shard-rows") ? static_cast<size_t>(args.Int("shard-rows"))
                                             : AutoShardRows(csv_path);
  if (args.Int("workers") > 0) {
    dist::DistributedCheckOptions options;
    // Workers imply sharding; without an explicit shard size use the
    // reader's default rather than the in-memory path.
    options.base.reader.shard_rows =
        shard_rows > 0 ? shard_rows : csv::ShardReaderOptions{}.shard_rows;
    options.workers = static_cast<int>(args.Int("workers"));
    SCODED_ASSIGN_OR_RETURN(std::string exe, dist::SelfExePath());
    std::unique_ptr<dist::Substrate> substrate;
    const std::vector<std::string> worker_args = {"worker"};
    if (args.Str("worker-transport") == "fork") {
      substrate = std::make_unique<dist::ForkExecSubstrate>(exe, worker_args);
    } else {
      substrate = std::make_unique<dist::TcpSubstrate>(exe, worker_args);
    }
    SCODED_ASSIGN_OR_RETURN(ShardedCheckResult result,
                            dist::DistributedCheckAll(csv_path, {asc}, *substrate, options));
    g_telemetry.Merge(result.telemetry);
    return std::move(result.reports[0]);
  }
  if (shard_rows > 0) {
    ShardedCheckOptions options;
    options.reader.shard_rows = shard_rows;
    SCODED_ASSIGN_OR_RETURN(ShardedCheckResult result, ShardedCheckAll(csv_path, {asc}, options));
    g_telemetry.Merge(result.telemetry);
    return std::move(result.reports[0]);
  }
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(csv_path));
  Scoded system(std::move(table));
  SCODED_ASSIGN_OR_RETURN(ViolationReport report, system.CheckViolation(asc));
  g_telemetry.Merge(report.telemetry);
  return report;
}

Result<int> RunCheck(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(ViolationReport report, CheckOne(args));
  std::fputs(serve::CheckResultLine(args.scs[0], report).c_str(), stdout);
  return report.violated ? 2 : 0;
}

Result<int> RunDrill(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(args.Str("csv")));
  const std::string& name = args.Str("strategy");
  Strategy strategy = name == "k"    ? Strategy::kDirect
                      : name == "kc" ? Strategy::kComplement
                                     : Strategy::kAuto;
  const ApproximateSc& asc = args.scs[0];
  Scoded system(std::move(table));
  SCODED_ASSIGN_OR_RETURN(DrillDownResult result,
                          system.DrillDown(asc, static_cast<size_t>(args.Int("k")), strategy));
  g_telemetry.Merge(result.telemetry);
  std::printf("top-%zu suspicious records for %s (statistic %.4g -> %.4g):\n",
              result.rows.size(), asc.sc.ToString().c_str(), result.initial_statistic,
              result.final_statistic);
  for (size_t row : result.rows) {
    std::printf("%zu\n", row);
  }
  return 0;
}

Result<int> RunPartition(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(args.Str("csv")));
  Scoded system(table);
  SCODED_ASSIGN_OR_RETURN(PartitionResult result,
                          system.Partition(args.scs[0], args.Double("max-removal")));
  g_telemetry.Merge(result.telemetry);
  std::printf("removed %zu records; p: %.4g -> %.4g; constraint %s\n",
              result.removed_rows.size(), result.initial_p, result.final_p,
              result.satisfied ? "restored" : "NOT restored within budget");
  if (args.Has("out")) {
    Table cleaned = table.WithoutRows(result.removed_rows);
    SCODED_RETURN_IF_ERROR(csv::WriteFile(cleaned, args.Str("out")));
    std::printf("wrote %s (%zu rows)\n", args.Str("out").c_str(), cleaned.NumRows());
  }
  return 0;
}

Result<int> RunRepair(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(args.Str("csv")));
  SCODED_ASSIGN_OR_RETURN(RepairPlan plan, SuggestCellRepairs(table, args.scs[0],
                                                              static_cast<size_t>(args.Int("k"))));
  std::printf("%zu suggested repairs (statistic %.4g -> %.4g):\n", plan.repairs.size(),
              plan.initial_statistic, plan.final_statistic);
  for (const CellRepair& repair : plan.repairs) {
    std::printf("  %s\n", repair.ToString(table).c_str());
  }
  if (args.Has("out")) {
    SCODED_ASSIGN_OR_RETURN(Table repaired, ApplyRepairs(table, plan.repairs));
    SCODED_RETURN_IF_ERROR(csv::WriteFile(repaired, args.Str("out")));
    std::printf("wrote %s\n", args.Str("out").c_str());
  }
  return 0;
}

Result<int> RunReport(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(args.Str("csv")));
  ReportOptions options;
  options.drilldown_k = static_cast<size_t>(args.Int("k"));
  options.fdr_q = args.Double("fdr");
  SCODED_ASSIGN_OR_RETURN(CleaningReport report, GenerateCleaningReport(table, args.scs, options));
  std::string rendered = args.Str("format") == "json" ? report.ToJson(table)
                                                      : report.ToMarkdown(table, options);
  if (args.Has("out")) {
    SCODED_RETURN_IF_ERROR(WriteTextFile(args.Str("out"), rendered));
    std::printf("wrote %s\n", args.Str("out").c_str());
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return report.confirmed_violations > 0 ? 2 : 0;
}

// Rows [start, start + batch) of `table`, clipped to its end.
Table BatchAt(const Table& table, size_t start, size_t batch) {
  std::vector<size_t> rows(std::min(batch, table.NumRows() - start));
  std::iota(rows.begin(), rows.end(), start);
  return table.Gather(rows);
}

Result<int> RunMonitor(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(args.Str("csv")));
  StreamMonitorOptions options;
  options.monitor.window = static_cast<size_t>(args.Int("window"));
  SCODED_ASSIGN_OR_RETURN(StreamMonitor stream, StreamMonitor::Create(table, args.scs, options));
  std::fputs(serve::MonitorHeaderLine().c_str(), stdout);
  const size_t batch = static_cast<size_t>(args.Int("batch"));
  for (size_t start = 0; start < table.NumRows(); start += batch) {
    SCODED_RETURN_IF_ERROR(stream.Append(BatchAt(table, start, batch)));
    for (const StreamMonitor::ConstraintState& state : stream.States()) {
      std::fputs(serve::MonitorStateLine(state).c_str(), stdout);
    }
  }
  g_telemetry.Merge(stream.AggregateTelemetry());
  return stream.AnyViolated() ? 2 : 0;
}

Result<int> RunDiscover(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(args.Str("csv")));
  PcOptions options;
  options.alpha = args.Double("alpha");
  options.max_conditioning = static_cast<int>(args.Int("max-cond"));
  SCODED_ASSIGN_OR_RETURN(PcResult result, LearnPcStructure(table, options));
  g_telemetry.Merge(result.telemetry);
  std::printf("discovered constraints (PC, alpha = %g, max conditioning = %d):\n",
              options.alpha, options.max_conditioning);
  for (const StatisticalConstraint& sc : result.DiscoveredConstraints()) {
    std::printf("  %s\n", sc.ToString().c_str());
  }
  if (!result.directed.empty()) {
    std::printf("v-structure orientations:\n");
    for (const auto& [from, to] : result.directed) {
      std::printf("  %s -> %s\n", result.names[static_cast<size_t>(from)].c_str(),
                  result.names[static_cast<size_t>(to)].c_str());
    }
  }
  return 0;
}

Result<int> RunFds(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(args.Str("csv")));
  FdDiscoveryOptions options;
  options.max_g3_ratio = args.Double("max-g3");
  SCODED_ASSIGN_OR_RETURN(std::vector<DiscoveredFd> fds, DiscoverApproximateFds(table, options));
  std::printf("approximate FDs with g3 <= %g (Prop. 2 translation alongside):\n", options.max_g3_ratio);
  std::printf("%-28s %-10s %-12s %s\n", "FD", "g3", "viol.pairs", "as DSC");
  for (const DiscoveredFd& fd : fds) {
    std::printf("%-28s %-10.4f %-12.4f %s\n", fd.fd.ToString().c_str(), fd.g3_ratio,
                fd.violating_pair_ratio, FdToDsc(fd.fd).ToString().c_str());
  }
  return 0;
}

Result<int> RunConsistency(const Args& args) {
  std::vector<StatisticalConstraint> scs;
  for (const ApproximateSc& asc : args.scs) {
    scs.push_back(asc.sc);
  }
  SCODED_ASSIGN_OR_RETURN(ConsistencyReport report, CheckConsistency(scs));
  if (report.consistent) {
    std::printf("consistent (%zu constraints, closure size %zu)\n", scs.size(),
                report.closure_size);
    Result<std::vector<StatisticalConstraint>> minimal = MinimizeConstraints(scs);
    if (minimal.ok() && minimal->size() < scs.size()) {
      std::printf("minimal equivalent subset (%zu):\n", minimal->size());
      for (const StatisticalConstraint& sc : *minimal) {
        std::printf("  %s\n", sc.ToString().c_str());
      }
    }
    return 0;
  }
  std::printf("INCONSISTENT:\n");
  for (const std::string& conflict : report.conflicts) {
    std::printf("  %s\n", conflict.c_str());
  }
  return 2;
}

// ----------------------------------------------------------------------
// scoded top — live attach to a running scoded's --metrics-port endpoint.

// One-shot HTTP/1.0 GET against the loopback metrics endpoint; returns the
// response body.
Result<std::string> FetchHttp(uint16_t port, const std::string& path) {
  SCODED_ASSIGN_OR_RETURN(net::TcpConn conn, net::DialLoopback(port));
  SCODED_RETURN_IF_ERROR(
      conn.WriteAll("GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n"));
  conn.ShutdownWrite();
  SCODED_ASSIGN_OR_RETURN(std::string response, conn.ReadAll(4u << 20));
  size_t line_end = response.find("\r\n");
  if (line_end == std::string::npos) {
    return InternalError("GET " + path + ": malformed HTTP response");
  }
  if (response.find(" 200 ") >= line_end) {
    return InternalError("GET " + path + ": " + response.substr(0, line_end));
  }
  size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) {
    return InternalError("GET " + path + ": missing header terminator");
  }
  return response.substr(body + 4);
}

// Parses the Prometheus text exposition into name -> value. Histogram
// bucket lines carry labels and land under their full `name{le="..."}`
// key, which the dashboard simply never looks up.
std::map<std::string, double> ParseMetricsText(const std::string& body) {
  std::map<std::string, double> values;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) {
      eol = body.size();
    }
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      continue;
    }
    char* end = nullptr;
    double value = std::strtod(line.c_str() + space + 1, &end);
    if (end == nullptr || *end != '\0') {
      continue;
    }
    values[line.substr(0, space)] = value;
  }
  return values;
}

// Values of one named series from the /timeseries JSON document.
std::vector<double> SeriesValues(const JsonValue& doc, std::string_view name) {
  std::vector<double> values;
  const JsonValue* series = doc.Find("series");
  if (series == nullptr || !series->is_array()) {
    return values;
  }
  for (const JsonValue& entry : series->array) {
    const JsonValue* entry_name = entry.Find("name");
    if (entry_name == nullptr || entry_name->string_value != name) {
      continue;
    }
    const JsonValue* points = entry.Find("points");
    if (points != nullptr && points->is_array()) {
      for (const JsonValue& point : points->array) {
        if (point.is_array() && point.array.size() == 2) {
          values.push_back(point.array[1].number);
        }
      }
    }
    break;
  }
  return values;
}

// Renders the last `width` values as a min-max normalised unicode
// sparkline (▁..█).
std::string Sparkline(const std::vector<double>& values, size_t width) {
  static const char* const kBlocks[8] = {"▁", "▂", "▃", "▄",
                                         "▅", "▆", "▇", "█"};
  if (values.empty()) {
    return std::string();
  }
  size_t begin = values.size() > width ? values.size() - width : 0;
  double lo = values[begin];
  double hi = values[begin];
  for (size_t i = begin; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  for (size_t i = begin; i < values.size(); ++i) {
    size_t level = hi > lo ? static_cast<size_t>((values[i] - lo) / (hi - lo) * 7.0 + 0.5) : 0;
    out += kBlocks[std::min<size_t>(level, 7)];
  }
  return out;
}

Result<int> RunTop(const Args& args) {
  const long port = static_cast<long>(args.Int("port"));
  const int64_t iterations = args.Int("iterations");
  const bool tty = isatty(STDOUT_FILENO) != 0;
  constexpr int kRenderLines = 8;
  double prev_rows = -1.0;
  int64_t prev_t_us = 0;
  int64_t frames = 0;
  for (int64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(args.Int("interval-ms")));
    }
    Result<std::string> metrics = FetchHttp(static_cast<uint16_t>(port), "/metrics");
    if (!metrics.ok()) {
      if (frames == 0) {
        // Never connected: the endpoint probably does not exist — error out.
        return metrics.status();
      }
      // The monitored run finished and closed its endpoint: a clean exit.
      std::printf("scoded top: endpoint on port %ld is gone; run finished\n", port);
      return 0;
    }
    std::map<std::string, double> m = ParseMetricsText(*metrics);
    auto value = [&m](const char* name, double fallback) {
      auto it = m.find(name);
      return it == m.end() ? fallback : it->second;
    };
    double rows = value("scoded_progress_rows_ingested", 0.0);
    int64_t now_us = obs::NowMicros();
    double rate = 0.0;
    if (prev_rows >= 0.0 && now_us > prev_t_us) {
      rate = std::max(0.0, (rows - prev_rows) /
                               (static_cast<double>(now_us - prev_t_us) / 1e6));
    }
    prev_rows = rows;
    prev_t_us = now_us;
    std::vector<double> rss;
    if (Result<std::string> ts = FetchHttp(static_cast<uint16_t>(port), "/timeseries");
        ts.ok()) {
      if (Result<JsonValue> doc = ParseJson(*ts); doc.ok()) {
        rss = SeriesValues(*doc, "process.rss_kb");
      }
    }
    if (tty && frames > 0) {
      std::printf("\x1b[%dA", kRenderLines);
    }
    ++frames;
    const char* clear = tty ? "\x1b[K" : "";
    std::printf("scoded top - 127.0.0.1:%ld (frame %lld)%s\n", port,
                static_cast<long long>(frames), clear);
    std::printf("  rows ingested   %-14.0f %10.1f rows/s%s\n", rows, rate, clear);
    std::printf("  shards          %.0f / %.0f%s\n",
                value("scoded_progress_shards_done", 0.0),
                value("scoded_progress_shards_total", 0.0), clear);
    std::printf("  constraints     %.0f / %.0f%s\n",
                value("scoded_progress_constraints_checked", 0.0),
                value("scoded_progress_constraints_total", 0.0), clear);
    std::printf("  current min-p   %.6g%s\n", value("scoded_progress_current_min_p", 1.0),
                clear);
    std::printf("  tests executed  %.0f%s\n",
                value("scoded_stats_tests_executed_total", 0.0), clear);
    std::printf("  pool            pending %.0f, inflight %.0f, workers %.0f%s\n",
                value("scoded_parallel_pool_pending_chunks", 0.0),
                value("scoded_parallel_pool_inflight_tasks", 0.0),
                value("scoded_parallel_pool_workers", 0.0), clear);
    std::printf("  rss             %.0f KiB  %s%s\n", value("scoded_process_rss_kb", 0.0),
                Sparkline(rss, 40).c_str(), clear);
    std::fflush(stdout);
  }
  return 0;
}

// ----------------------------------------------------------------------
// scoded serve / scoded client — the streaming constraint-checking daemon
// and its CLI-side counterpart (src/serve).

// SIGTERM/SIGINT request an orderly drain: the handler only flips a flag,
// the serve loop notices and tears the daemon down through the normal
// shutdown path (sessions drained, no crash report left behind).
volatile std::sig_atomic_t g_serve_stop = 0;

void HandleServeSignal(int) { g_serve_stop = 1; }

Result<int> RunServe(const Args& args) {
  serve::ServerOptions options;
  options.port = static_cast<uint16_t>(args.Int("port"));
  options.handler_threads = static_cast<size_t>(args.Int("handlers"));
  options.sessions.max_sessions = static_cast<size_t>(args.Int("max-sessions"));
  options.sessions.idle_evict_millis = args.Int("idle-secs") * 1000;
  serve::Server server(options);
  // Installed before the daemon accepts anything, so a SIGTERM sent as soon
  // as it answers still drains it cleanly.
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  SCODED_RETURN_IF_ERROR(server.Start());
  // The bound port goes to stdout (not just the log) so scripts starting
  // the daemon with --port 0 can discover where it landed.
  std::printf("scoded serve listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);
  obs::LogInfo("serve daemon listening",
               {{"port", static_cast<int64_t>(server.port())},
                {"max_sessions", args.Int("max-sessions")},
                {"idle_secs", args.Int("idle-secs")}});
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  g_telemetry.Merge(server.TelemetrySnapshot());
  std::printf("scoded serve: shut down cleanly\n");
  return 0;
}

uint16_t ClientPort(const Args& args) { return static_cast<uint16_t>(args.Int("port")); }

Result<int> RunClientPing(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(serve::Client client, serve::Client::Connect(ClientPort(args)));
  SCODED_ASSIGN_OR_RETURN(JsonValue pong, client.Ping());
  const JsonValue* sessions = pong.Find("sessions");
  std::printf("pong from 127.0.0.1:%u (sessions = %lld)\n", ClientPort(args),
              sessions != nullptr && sessions->is_number()
                  ? static_cast<long long>(sessions->number)
                  : 0LL);
  return 0;
}

// Remote one-shot check: the raw CSV bytes go to the daemon, which parses
// them with the same reader as `scoded check` and returns the rendered
// verdict line — output and exit code byte-match the local command.
Result<int> RunClientCheck(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(std::string csv_text, ReadTextFile(args.Str("csv")));
  SCODED_ASSIGN_OR_RETURN(serve::Client client, serve::Client::Connect(ClientPort(args)));
  SCODED_ASSIGN_OR_RETURN(JsonValue response,
                          client.Check(csv_text, args.sc_text[0], args.Double("alpha")));
  const JsonValue* line = response.Find("line");
  const JsonValue* violated = response.Find("violated");
  if (line == nullptr || !line->is_string() || violated == nullptr ||
      !violated->is_bool()) {
    return InternalError("malformed check response from daemon");
  }
  std::fputs(line->string_value.c_str(), stdout);
  return violated->bool_value ? 2 : 0;
}

// Remote monitor: parse the CSV locally, open a session carrying the
// parsed schema, stream the rows batch by batch, and print the rendered
// state rows the daemon returns — byte-identical to `scoded monitor` over
// the same file.
Result<int> RunClientMonitor(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(Table table, csv::ReadFile(args.Str("csv")));
  SCODED_ASSIGN_OR_RETURN(serve::Client client, serve::Client::Connect(ClientPort(args)));
  SCODED_ASSIGN_OR_RETURN(
      std::string session,
      client.OpenSession(table.schema(), args.scs, static_cast<size_t>(args.Int("window"))));
  std::fputs(serve::MonitorHeaderLine().c_str(), stdout);
  bool any_violated = false;
  const size_t batch = static_cast<size_t>(args.Int("batch"));
  for (size_t start = 0; start < table.NumRows(); start += batch) {
    SCODED_RETURN_IF_ERROR(client.AppendBatch(session, BatchAt(table, start, batch)).status());
    SCODED_ASSIGN_OR_RETURN(JsonValue state, client.Query(session));
    const JsonValue* states = state.Find("states");
    if (states == nullptr || !states->is_array()) {
      return InternalError("malformed query response from daemon");
    }
    for (const JsonValue& entry : states->array) {
      const JsonValue* line = entry.Find("line");
      if (line == nullptr || !line->is_string()) {
        return InternalError("malformed query response from daemon");
      }
      std::fputs(line->string_value.c_str(), stdout);
    }
    if (const JsonValue* v = state.Find("any_violated"); v != nullptr && v->is_bool()) {
      any_violated = v->bool_value;
    }
  }
  SCODED_RETURN_IF_ERROR(client.CloseSession(session));
  return any_violated ? 2 : 0;
}

// scoded inspect FILE — pretty-print flight-recorder crash/stall reports.
Result<int> RunInspect(const Args& args) {
  SCODED_ASSIGN_OR_RETURN(std::string text, ReadTextFile(args.operands[0]));
  SCODED_ASSIGN_OR_RETURN(std::vector<obs::FlightReport> reports, obs::ParseFlightReports(text));
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) {
      std::printf("\n");
    }
    std::fputs(obs::RenderFlightReport(reports[i]).c_str(), stdout);
  }
  return 0;
}

Result<int> RunVersion(const Args&) {
  obs::BuildInfo info = obs::GetBuildInfo();
  std::printf("scoded %s\n", std::string(info.git_describe).c_str());
  std::printf("build type: %s\n", std::string(info.build_type).c_str());
  std::printf("observability: %s\n",
              info.obs_disabled ? "compiled out (SCODED_DISABLE_OBS)" : "compiled in");
  return 0;
}

// `scoded worker`: one member of a `check --workers N` fleet. Never run by
// hand — the coordinator spawns it with either an inherited socketpair
// descriptor (--fd, fork transport) or a loopback port to dial
// (--connect-port, tcp transport) and it serves summarize requests until
// the coordinator hangs up.
Result<int> RunWorker(const Args& args) {
  net::TcpConn conn;
  if (args.Has("fd")) {
    conn = net::TcpConn(static_cast<int>(args.Int("fd")));
  } else {
    SCODED_ASSIGN_OR_RETURN(conn,
                            net::DialLoopback(static_cast<uint16_t>(args.Int("connect-port"))));
  }
  SCODED_RETURN_IF_ERROR(dist::ServeWorker(conn));
  return 0;
}

// ----------------------------------------------------------------------
// The flag table.

// Accepted by every command.
const std::vector<Flag>& GlobalFlags() {
  static const std::vector<Flag> flags = {
      IntFlag("threads", "", 1, INT32_MAX),
      PathFlag("trace-out"),
      PathFlag("stats", Kind::kOptionalPath),
      PathFlag("profile", Kind::kOptionalPath),
      EnumFlag("log-level", "", "debug|info|warn|error|off"),
      IntFlag("metrics-port", "", 0, 65535, "SCODED_METRICS_PORT"),
      IntFlag("flight-recorder-events", "", 0, kMaxInt, "SCODED_FLIGHT_RECORDER_EVENTS"),
      RealFlag("watchdog-secs", "0", 0.0, 1e6, "SCODED_WATCHDOG_SECS"),
  };
  return flags;
}

const std::vector<Command>& Commands() {
  const Flag csv = Required(PathFlag("csv"));
  const Flag out = PathFlag("out");
  const Flag alpha = RealFlag("alpha", "0.05", 0.0, 1.0);
  const Flag batch = IntFlag("batch", "100", 1, kMaxInt);
  const Flag window = IntFlag("window", "0", 0, kMaxInt);
  const Flag client_port = Required(IntFlag("port", "", 1, 65535));
  // SCODED_METRICS_PORT names the endpoint of a run being watched: `top`
  // reads it as its --port, and a worker inherits it from its coordinator,
  // so neither may open an endpoint of its own on it.
  const Flag metrics_port_no_env = IntFlag("metrics-port", "", 0, 65535);
  static const std::vector<Command> commands = {
      {"profile", ScArity::kNone, "", {csv}, RunProfile},
      {"check", ScArity::kOne, "",
       {csv, alpha, IntFlag("shard-rows", "", 0, kMaxInt, "SCODED_SHARD_ROWS"),
        IntFlag("workers", "0", 0, 1024), EnumFlag("worker-transport", "fork", "fork|tcp")},
       RunCheck},
      {"drill", ScArity::kOne, "",
       {csv, alpha, IntFlag("k", "10", 0, kMaxInt), EnumFlag("strategy", "auto", "k|kc|auto")},
       RunDrill},
      {"partition", ScArity::kOne, "", {csv, alpha, RealFlag("max-removal", "0.5", 0.0, 1.0), out},
       RunPartition},
      {"repair", ScArity::kOne, "", {csv, alpha, IntFlag("k", "10", 0, kMaxInt), out}, RunRepair},
      {"monitor", ScArity::kOneOrMore, "", {csv, alpha, batch, window}, RunMonitor},
      {"report", ScArity::kOneOrMore, "",
       {csv, alpha, IntFlag("k", "20", 0, kMaxInt), EnumFlag("format", "md", "md|json"),
        RealFlag("fdr", "0.05", 0.0, 1.0), out},
       RunReport},
      {"discover", ScArity::kNone, "", {csv, alpha, IntFlag("max-cond", "2", 0, INT32_MAX)},
       RunDiscover},
      {"fds", ScArity::kNone, "", {csv, RealFlag("max-g3", "0.25", 0.0, 1.0)}, RunFds},
      {"consistency", ScArity::kOneOrMore, "", {}, RunConsistency},
      {"serve", ScArity::kNone, "",
       {IntFlag("port", "0", 0, 65535), IntFlag("max-sessions", "64", 1, kMaxInt),
        IntFlag("idle-secs", "900", 0, kMaxInt / 1000), IntFlag("handlers", "4", 1, 1024)},
       RunServe},
      {"client ping", ScArity::kNone, "", {client_port}, RunClientPing},
      {"client check", ScArity::kOne, "", {client_port, csv, alpha}, RunClientCheck},
      {"client monitor", ScArity::kOneOrMore, "", {client_port, csv, alpha, batch, window},
       RunClientMonitor},
      {"top", ScArity::kNone, "",
       {Required(IntFlag("port", "", 1, 65535, "SCODED_METRICS_PORT")),
        IntFlag("interval-ms", "500", 1, kMaxInt), IntFlag("iterations", "0", 0, kMaxInt),
        metrics_port_no_env},
       RunTop},
      {"inspect", ScArity::kNone, "FILE", {}, RunInspect},
      {"version", ScArity::kNone, "", {}, RunVersion},
      // Takes exactly one of the two endpoints (checked in ParseArgs).
      {"worker", ScArity::kNone, "",
       {IntFlag("fd", "", 3, INT32_MAX), IntFlag("connect-port", "", 1, 65535),
        metrics_port_no_env},
       RunWorker},
  };
  return commands;
}

const Flag* FindIn(const std::vector<Flag>& flags, std::string_view name) {
  for (const Flag& flag : flags) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

// The command's own declaration of `name`, else the global one.
const Flag* FindFlag(const Command& command, std::string_view name) {
  const Flag* own = FindIn(command.flags, name);
  return own != nullptr ? own : FindIn(GlobalFlags(), name);
}

Result<Value> ParseValue(const Flag& flag, const std::string& text, const std::string& what) {
  Value value{text};
  if (flag.kind == Kind::kInt) {
    SCODED_ASSIGN_OR_RETURN(value.int_value, ParseCheckedInt(text, flag.min, flag.max, what));
  } else if (flag.kind == Kind::kDouble) {
    std::optional<double> parsed = ParseDouble(text);
    // Written to reject NaN too.
    if (!parsed.has_value() || !(*parsed >= flag.dmin && *parsed <= flag.dmax)) {
      char range[64];
      std::snprintf(range, sizeof(range), "[%g, %g]", flag.dmin, flag.dmax);
      return InvalidArgumentError(what + " expects a number in " + range + ", got '" + text + "'");
    }
    value.double_value = *parsed;
  } else if (flag.kind == Kind::kEnum) {
    std::vector<std::string> choices = Split(flag.choices, '|');
    if (std::find(choices.begin(), choices.end(), text) == choices.end()) {
      return InvalidArgumentError(what + " expects one of " + std::string(flag.choices) +
                                  ", got '" + text + "'");
    }
  }
  return value;
}

// Checks a command line against the table and fills `args` with typed
// values. On error `args->spec` stays null when the command is unknown.
Status ParseArgs(int argc, char** argv, Args* args) {
  args->command = argv[1];
  std::vector<std::pair<std::string, std::string>> given;
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args->operands.push_back(std::move(token));
      continue;
    }
    std::string name = token.substr(2);
    // --stats / --profile may appear without a FILE (output to stderr).
    const Flag* global = FindIn(GlobalFlags(), name);
    if (global != nullptr && global->kind == Kind::kOptionalPath &&
        (i + 1 >= argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0)) {
      given.emplace_back(std::move(name), "-");
      continue;
    }
    if (i + 1 >= argc) {
      return InvalidArgumentError(token + " expects a value");
    }
    if (name == "sc") {
      args->sc_text.push_back(argv[++i]);
    } else {
      given.emplace_back(std::move(name), argv[++i]);
    }
  }

  // "client ping" is the command `client` with the action `ping` as its
  // first operand.
  std::vector<std::string> actions;
  for (const Command& command : Commands()) {
    if (command.name == args->command ||
        (!args->operands.empty() && command.name == args->command + " " + args->operands[0])) {
      args->spec = &command;
      break;
    }
    if (command.name.rfind(args->command + " ", 0) == 0) {
      actions.emplace_back(command.name.substr(args->command.size() + 1));
    }
  }
  if (args->spec == nullptr && !actions.empty()) {
    return InvalidArgumentError("scoded " + args->command +
                                " expects one action: " + Join(actions, ", "));
  }
  if (args->spec == nullptr) {
    return InvalidArgumentError("unknown command '" + args->command + "'");
  }
  const Command& command = *args->spec;
  const std::string who = "scoded " + std::string(command.name);

  const size_t operands = (command.name.find(' ') != std::string_view::npos ? 1 : 0) +
                          (command.operand.empty() ? 0 : 1);
  if (args->operands.size() != operands) {
    return InvalidArgumentError(who + " expects " + std::to_string(operands) + " operand(s), got " +
                                std::to_string(args->operands.size()));
  }
  if (command.sc == ScArity::kNone && !args->sc_text.empty()) {
    return InvalidArgumentError(who + " does not take --sc");
  }
  if (command.sc == ScArity::kOne && args->sc_text.size() != 1) {
    return InvalidArgumentError("exactly one --sc CONSTRAINT is required for this command");
  }
  if (command.sc == ScArity::kOneOrMore && args->sc_text.empty()) {
    return InvalidArgumentError("at least one --sc CONSTRAINT is required");
  }

  for (const auto& [name, text] : given) {
    const Flag* flag = FindFlag(command, name);
    if (flag == nullptr) {
      bool known = std::any_of(Commands().begin(), Commands().end(), [&](const Command& other) {
        return FindIn(other.flags, name) != nullptr;
      });
      return InvalidArgumentError(known ? who + " does not take --" + name
                                        : "unknown flag --" + name);
    }
    SCODED_ASSIGN_OR_RETURN(args->values[name], ParseValue(*flag, text, "--" + name));
  }
  // Precedence for every flag not given: environment variable > default.
  auto fall_back = [&](const Flag& flag) -> Status {
    std::string name(flag.name);
    if (args->Has(name)) {
      return OkStatus();
    }
    std::string env(flag.env);
    const char* env_value = env.empty() ? nullptr : std::getenv(env.c_str());
    if (env_value != nullptr && *env_value != '\0') {
      SCODED_ASSIGN_OR_RETURN(args->values[name], ParseValue(flag, env_value, env));
    } else if (flag.required) {
      return InvalidArgumentError("--" + name + " is required for " + who +
                                  (env.empty() ? "" : " (or set " + env + ")"));
    } else if (!flag.def.empty()) {
      SCODED_ASSIGN_OR_RETURN(args->values[name],
                              ParseValue(flag, std::string(flag.def), "--" + name));
    }
    return OkStatus();
  };
  for (const Flag& flag : command.flags) {
    SCODED_RETURN_IF_ERROR(fall_back(flag));
  }
  for (const Flag& flag : GlobalFlags()) {
    if (FindFlag(command, flag.name) == &flag) {
      SCODED_RETURN_IF_ERROR(fall_back(flag));
    }
  }

  const double alpha = args->Has("alpha") ? args->Double("alpha") : ApproximateSc{}.alpha;
  for (const std::string& text : args->sc_text) {
    SCODED_ASSIGN_OR_RETURN(StatisticalConstraint sc, ParseConstraint(text));
    args->scs.push_back({std::move(sc), alpha});
  }
  if (command.name == "worker" && args->Has("fd") == args->Has("connect-port")) {
    return InvalidArgumentError("scoded worker requires exactly one of --fd N or --connect-port N");
  }
  return OkStatus();
}

std::string FlagUsage(const Flag& flag) {
  static const char* const kMetavar[] = {" N", " X", "", " FILE", " [FILE]"};
  std::string text = "--" + std::string(flag.name) + kMetavar[static_cast<int>(flag.kind)];
  if (flag.kind == Kind::kEnum) {
    text += " " + std::string(flag.choices);
  }
  return flag.required ? text : "[" + text + "]";
}

// Appends `words` as one entry, wrapped at 100 columns.
void AppendWrapped(const std::vector<std::string>& words, std::string* out) {
  size_t column = 0;
  for (const std::string& word : words) {
    if (column > 0 && column + 1 + word.size() > 100) {
      *out += "\n       ";
      column = 7;
    } else if (column > 0) {
      *out += " ";
      ++column;
    }
    *out += word;
    column += word.size();
  }
  *out += "\n";
}

// Generated from the table, so it lists every flag each command takes.
int Usage() {
  std::string text = "usage: scoded <command> [flags]   (exit 0 ok, 2 violated, 1 error)\n";
  for (const Command& command : Commands()) {
    std::vector<std::string> words = {"  " + std::string(command.name)};
    if (!command.operand.empty()) {
      words.emplace_back(command.operand);
    }
    // Required flags first, then --sc, then the optional flags.
    auto add_flags = [&](bool required) {
      for (const Flag& flag : command.flags) {
        if (flag.required == required && FindIn(GlobalFlags(), flag.name) == nullptr) {
          words.push_back(FlagUsage(flag));
        }
      }
    };
    add_flags(true);
    if (command.sc != ScArity::kNone) {
      words.emplace_back("--sc SC");
    }
    if (command.sc == ScArity::kOneOrMore) {
      words.emplace_back("[--sc SC ...]");
    }
    add_flags(false);
    AppendWrapped(words, &text);
  }
  std::vector<std::string> words = {"global flags:"};
  for (const Flag& flag : GlobalFlags()) {
    words.push_back(FlagUsage(flag));
  }
  AppendWrapped(words, &text);
  std::fputs(text.c_str(), stderr);
  return 1;
}

// Sets up what the global flags ask for before the command runs.
Status StartGlobals(const Args& args) {
  if (args.Has("log-level")) {
    obs::SetMinLogLevel(*obs::ParseLogLevel(args.Str("log-level")));
  }
  if (args.Has("threads")) {
    parallel::SetThreads(static_cast<int>(args.Int("threads")));
  }
  if (args.Has("trace-out")) {
    obs::Tracer::Global().Enable();
  }
  if (args.Has("profile")) {
    obs::EnableProfiler();
  }
  // Live telemetry endpoint, started before dispatch so a scrape observes
  // the whole run; everything it serves is read-only over atomics, so the
  // command's output is byte-identical with or without it.
  if (args.Has("metrics-port")) {
    SCODED_RETURN_IF_ERROR(
        obs::MetricsServer::Global().Start(static_cast<uint16_t>(args.Int("metrics-port"))));
    if (Status sampler = obs::Sampler::Global().Start(); !sampler.ok()) {
      obs::MetricsServer::Global().Stop();
      return sampler;
    }
    obs::LogInfo("metrics endpoint listening",
                 {{"port", static_cast<int64_t>(obs::MetricsServer::Global().port())},
                  {"paths", "/metrics /healthz /timeseries"}});
  }
  // Flight recorder: armed by default so a crash or stall of any run leaves
  // a diagnosable report; 0 events disables it. The journal is
  // forensic-only, so command output is byte-identical with or without it.
  obs::FlightRecorderOptions recorder;
  if (args.Has("flight-recorder-events")) {
    recorder.events_per_thread = static_cast<size_t>(args.Int("flight-recorder-events"));
  }
  if (recorder.events_per_thread > 0) {
    if (const char* dir = std::getenv("SCODED_CRASH_DIR"); dir != nullptr && *dir != '\0') {
      recorder.report_dir = dir;
    }
    if (Status status = obs::ArmFlightRecorder(recorder); !status.ok()) {
      if (args.Has("flight-recorder-events")) {
        return status;
      }
      // Default-on is best effort: an obs-disabled build or an unwritable
      // report directory downgrades to running without the recorder.
      obs::LogDebug("flight recorder not armed", {{"reason", status.message()}});
    }
  }
  // Watchdog: dumps a stall report when the run stops making progress.
  if (args.Double("watchdog-secs") > 0.0) {
    obs::WatchdogOptions options;
    options.stall_seconds = args.Double("watchdog-secs");
    SCODED_RETURN_IF_ERROR(obs::StartWatchdog(options));
  }
  return OkStatus();
}

// Writes the trace file, profile output, and/or the --stats summary after
// the command ran. An observability failure never masks the command's exit
// code, but turns a success into an error.
int EmitObservability(const Args& args, int rc) {
  auto failed = [rc](const Status& status) {
    Fail(status);
    return rc == 0 ? 1 : rc;
  };
  if (args.Has("trace-out")) {
    Status status = obs::Tracer::Global().WriteFile(args.Str("trace-out"));
    if (!status.ok()) {
      return failed(status);
    }
    obs::LogInfo("wrote trace",
                 {{"path", args.Str("trace-out")},
                  {"events", static_cast<int64_t>(obs::Tracer::Global().NumEvents())}});
  }
  if (args.Has("profile")) {
    if (args.Str("profile") == "-") {
      std::fputs(obs::Profiler::Global().FlatTableText(20).c_str(), stderr);
    } else {
      Status status = obs::Profiler::Global().WriteFile(args.Str("profile"));
      if (!status.ok()) {
        return failed(status);
      }
      obs::LogInfo("wrote profile",
                   {{"path", args.Str("profile")},
                    {"spans", static_cast<int64_t>(obs::Profiler::Global().NumSpanNames())}});
    }
  }
  if (args.Has("stats")) {
    JsonWriter json;
    json.BeginObject();
    json.Key("command").String(args.command);
    json.Key("exit_code").Int(rc);
    json.Key("build").Raw(obs::BuildInfoJson());
    json.Key("telemetry");
    g_telemetry.WriteJson(json);
    json.Key("metrics").Raw(obs::Metrics::Global().SnapshotJson());
    if (obs::Profiler::Global().NumSpanNames() > 0) {
      json.Key("profile").Raw(obs::Profiler::Global().SnapshotJson());
    }
    json.EndObject();
    if (args.Str("stats") == "-") {
      std::fprintf(stderr, "%s\n", json.str().c_str());
    } else if (Status status = WriteTextFile(args.Str("stats"), json.str()); !status.ok()) {
      return failed(status);
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  Args args;
  if (Status parsed = ParseArgs(argc, argv, &args); !parsed.ok()) {
    Fail(parsed);
    return args.spec == nullptr ? Usage() : 1;
  }
  if (Status started = StartGlobals(args); !started.ok()) {
    return Fail(started);
  }
  int rc = 1;
  {
    obs::PhaseTimer timer(&g_telemetry, "cli/main");
    if (timer.span().active()) {
      timer.span().Arg("command", args.command);
    }
    Result<int> result = args.spec->run(args);
    rc = result.ok() ? *result : Fail(result.status());
  }
  if (args.Has("metrics-port")) {
    // Final tick so /timeseries captured the end state, then tear down
    // before the observability artefacts are written.
    obs::Sampler::Global().SampleOnce();
    obs::Sampler::Global().Stop();
    obs::MetricsServer::Global().Stop();
  }
  // Disarm last: restores signal handlers and unlinks report files that
  // were never written, so a clean run leaves no droppings.
  obs::StopWatchdog();
  obs::DisarmFlightRecorder();
  return EmitObservability(args, rc);
}
