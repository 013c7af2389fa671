// e2e_helper: the compiled half of the end-to-end benchmark (run.py is the
// other half). Subcommands:
//
//   gen --rows N --seed S --out FILE
//       writes the seeded fixture, prints {"rows","bytes"}
//   fingerprint
//       prints the resolved SIMD tier and the build type as JSON
//   serve-setup --scoded PATH --repeats N [--threads T]
//       N daemon set-ups: spawn `scoded serve --port 0`, read its port from
//       the listening line on a pipe, then connect and ping until it
//       answers; fork to the first good reply is one set-up. Each daemon
//       then gets SIGTERM (50 ms after that reply) and must print
//       "shut down cleanly" and exit 0.
//       Prints {"setup_s": [...], "failures": [...]}
//   ref-check --csv FILE --sc SC [--threads T]
//       in-process Scoded::CheckViolation rendered as the `scoded check`
//       line, with the CLI's exit code (0 holds, 2 violated)
//   ref-drill --csv FILE --sc SC --k K [--threads T]
//       in-process Scoded::DrillDown rendered as `scoded drill` prints it
//   ref-monitor --csv FILE --sc SC... --batch B [--threads T]
//       in-process StreamMonitor rendered as `scoded monitor` prints it
//   serve-load --port P --check-csv F1,F2,... --sc SC
//              --monitor-csv FILE --monitor-sc SC... --batch B --out FILE
//       computes the in-process references, opens one serve::Client
//       connection and prints "ready". Then it reads commands from stdin,
//       one a line, and prints "ok" after each: "check N" sends N check
//       requests cycling over the CSVs, closed loop; "session" streams one
//       monitor session of AppendBatch + Query per batch; "end" (or EOF)
//       stops. Writes every reply beside its reference, plus per-request
//       timings, as JSON to --out.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/fileio.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "core/scoded.h"
#include "obs/build_info.h"
#include "serve/client.h"
#include "serve/render.h"
#include "stats/simd.h"
#include "table/csv.h"

namespace e2ebench {
namespace {

using scoded::ApproximateSc;
using scoded::JsonValue;
using scoded::JsonWriter;
using scoded::Result;
using scoded::Status;
using scoded::Table;

int Fail(const Status& status) {
  std::fprintf(stderr, "e2e_helper: %s\n", status.ToString().c_str());
  return 1;
}

void ApplyThreads(const Flags& flags) {
  if (flags.Has("threads")) {
    scoded::parallel::SetThreads(static_cast<int>(flags.Int("threads", 1)));
  }
}

int Gen(const Flags& flags) {
  size_t rows = static_cast<size_t>(flags.Int("rows", 0));
  Result<uint64_t> bytes = GenerateFixture(flags.Get("out"), rows,
                                           static_cast<uint64_t>(flags.Int("seed", 0)));
  if (!bytes.ok()) {
    return Fail(bytes.status());
  }
  std::printf("{\"rows\": %zu, \"bytes\": %llu}\n", rows,
              static_cast<unsigned long long>(*bytes));
  return 0;
}

int Fingerprint() {
  scoded::obs::BuildInfo info = scoded::obs::GetBuildInfo();
  JsonWriter json;
  json.BeginObject();
  json.Key("simd_tier").String(scoded::simd::PathName(scoded::simd::ActivePath()));
  json.Key("build_type").String(info.build_type);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

// Reads from `fd` and appends to `*text` until `*text` holds `until` (an
// empty `until` reads to end of file); false on end of file or error first.
bool ReadUntil(int fd, const std::string& until, std::string* text) {
  char buffer[4096];
  while (until.empty() || text->find(until) == std::string::npos) {
    ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return until.empty() && n == 0;
    }
    text->append(buffer, static_cast<size_t>(n));
  }
  return true;
}

constexpr std::chrono::milliseconds kStopDelay{50};

// One daemon set-up: seconds from fork to the first good ping, or a
// failure reason in `*why`. The daemon is always shut down and reaped.
double SetUpDaemon(const std::string& scoded_path, const std::string& threads, std::string* why) {
  int out[2];
  if (pipe(out) != 0) {
    *why = "pipe failed";
    return 0.0;
  }
  const int64_t start = NowNs();
  pid_t pid = fork();
  if (pid == 0) {
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execl(scoded_path.c_str(), scoded_path.c_str(), "serve", "--port", "0", "--threads",
          threads.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(out[1]);
  if (pid < 0) {
    close(out[0]);
    *why = "fork failed";
    return 0.0;
  }
  const std::string kListening = "listening on 127.0.0.1:";
  std::string text;
  double elapsed = 0.0;
  // The daemon's first line on stdout names its port.
  if (!ReadUntil(out[0], "\n", &text) || text.find(kListening) == std::string::npos) {
    *why = "daemon did not print its listening line";
  } else {
    uint16_t port = static_cast<uint16_t>(
        std::strtol(text.c_str() + text.find(kListening) + kListening.size(), nullptr, 10));
    bool answered = false;
    while (!answered && MsSince(start) < 20000.0) {
      // The client is closed before SIGTERM, so shutdown drains no connection.
      Result<scoded::serve::Client> client = scoded::serve::Client::Connect(port, 2000);
      answered = client.ok() && client->Ping().ok();
    }
    elapsed = MsSince(start) / 1000.0;
    if (!answered) {
      *why = "daemon did not answer a ping";
    }
  }
  // `scoded serve` starts answering before it installs its SIGTERM handler,
  // so a SIGTERM sent microseconds after the first reply can kill it with
  // the default action. Stopping a daemon that soon is no user's pattern;
  // it gets kStopDelay first, and a daemon that still does not shut down
  // cleanly counts as failed.
  std::this_thread::sleep_for(kStopDelay);
  kill(pid, SIGTERM);
  bool drained = ReadUntil(out[0], "", &text);
  close(out[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (why->empty() && !(drained && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                        text.find("shut down cleanly") != std::string::npos)) {
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    *why = "daemon did not print 'shut down cleanly' with exit 0 (exit " +
           std::to_string(code) + ")";
  }
  return elapsed;
}

int ServeSetup(const Flags& flags) {
  const std::string threads = std::to_string(flags.Int("threads", 1));
  JsonWriter json;
  json.BeginObject();
  std::vector<double> setup_s;
  std::vector<std::string> failures;
  for (int64_t i = 0; i < flags.Int("repeats", 1); ++i) {
    std::string why;
    double seconds = SetUpDaemon(flags.Get("scoded"), threads, &why);
    if (why.empty()) {
      setup_s.push_back(seconds);
    } else {
      failures.push_back(why);
    }
  }
  json.Key("setup_s").BeginArray();
  for (double seconds : setup_s) {
    json.DoubleFull(seconds);
  }
  json.EndArray();
  json.Key("failures").BeginArray();
  for (const std::string& why : failures) {
    json.String(why);
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

Result<ApproximateSc> OneSc(const Flags& flags) {
  SCODED_ASSIGN_OR_RETURN(std::vector<ApproximateSc> scs,
                          ParseScs({flags.Get("sc")}));
  return scs[0];
}

int RefCheck(const Flags& flags) {
  Result<Table> table = scoded::csv::ReadFile(flags.Get("csv"));
  Result<ApproximateSc> asc = OneSc(flags);
  if (!table.ok() || !asc.ok()) {
    return Fail(!table.ok() ? table.status() : asc.status());
  }
  scoded::Scoded system(std::move(table).value());
  Result<scoded::ViolationReport> report = system.CheckViolation(*asc);
  if (!report.ok()) {
    return Fail(report.status());
  }
  std::fputs(scoded::serve::CheckResultLine(*asc, *report).c_str(), stdout);
  return report->violated ? 2 : 0;
}

int RefDrill(const Flags& flags) {
  Result<Table> table = scoded::csv::ReadFile(flags.Get("csv"));
  Result<ApproximateSc> asc = OneSc(flags);
  if (!table.ok() || !asc.ok()) {
    return Fail(!table.ok() ? table.status() : asc.status());
  }
  Result<std::string> text =
      DrillReference(std::move(table).value(), *asc, static_cast<size_t>(flags.Int("k", 10)));
  if (!text.ok()) {
    return Fail(text.status());
  }
  std::fputs(text->c_str(), stdout);
  return 0;
}

int RefMonitor(const Flags& flags) {
  Result<Table> table = scoded::csv::ReadFile(flags.Get("csv"));
  Result<std::vector<ApproximateSc>> scs = ParseScs(flags.All("sc"));
  if (!table.ok() || !scs.ok()) {
    return Fail(!table.ok() ? table.status() : scs.status());
  }
  bool violated = false;
  Result<std::vector<std::string>> lines = MonitorReference(
      *table, *scs, static_cast<size_t>(flags.Int("batch", 100)), &violated);
  if (!lines.ok()) {
    return Fail(lines.status());
  }
  for (const std::string& line : *lines) {
    std::fputs(line.c_str(), stdout);
  }
  return violated ? 2 : 0;
}

// The "line" members of a query response's "states" array, concatenated.
std::string StateLines(const JsonValue& response) {
  std::string lines;
  const JsonValue* states = response.Find("states");
  if (states == nullptr || !states->is_array()) {
    return lines;
  }
  for (const JsonValue& state : states->array) {
    const JsonValue* line = state.Find("line");
    if (line != nullptr && line->is_string()) {
      lines += line->string_value;
    }
  }
  return lines;
}

// One streamed monitor session, written to `json` as an object: writes
// (AppendBatch) interleaved with reads (Query), each reply beside the
// in-process reference lines for the same prefix of the stream.
void StreamSession(scoded::serve::Client& client, const scoded::Schema& schema,
                   const std::vector<ApproximateSc>& constraints,
                   const std::vector<Table>& batches, const std::vector<std::string>& refs,
                   JsonWriter& json) {
  json.BeginObject();
  int64_t session_start = NowNs();
  Result<std::string> session = client.OpenSession(schema, constraints, /*window=*/0);
  if (!session.ok()) {
    json.Key("error").String(session.status().ToString());
  } else {
    json.Key("batches").BeginArray();
    size_t expected_records = 0;
    for (size_t b = 0; b < batches.size(); ++b) {
      expected_records += batches[b].NumRows();
      json.BeginObject();
      int64_t start = NowNs();
      Result<size_t> records = client.AppendBatch(*session, batches[b]);
      double append_ms = MsSince(start);
      start = NowNs();
      Result<JsonValue> state =
          records.ok() ? client.Query(*session) : Result<JsonValue>(records.status());
      double query_ms = MsSince(start);
      json.Key("append_ms").DoubleFull(append_ms);
      json.Key("query_ms").DoubleFull(query_ms);
      json.Key("expected").String(refs[b + 1]);
      json.Key("expected_records").Uint(expected_records);
      if (!state.ok()) {
        json.Key("error").String(state.status().ToString());
      } else {
        json.Key("records").Uint(*records);
        json.Key("lines").String(StateLines(*state));
      }
      json.EndObject();
    }
    json.EndArray();
    Status closed = client.CloseSession(*session);
    if (!closed.ok()) {
      json.Key("error").String(closed.ToString());
    }
  }
  json.Key("total_s").DoubleFull(MsSince(session_start) / 1000.0);
  json.EndObject();
}

int ServeLoad(const Flags& flags) {
  const std::string sc_text = flags.Get("sc");
  Result<ApproximateSc> asc = OneSc(flags);
  if (!asc.ok()) {
    return Fail(asc.status());
  }
  // References first, so none of their cost lands in a timed request.
  std::vector<std::string> texts;
  std::vector<std::string> check_refs;
  for (const std::string& path : scoded::Split(flags.Get("check-csv"), ',')) {
    Result<std::string> text = scoded::ReadTextFile(path);
    if (!text.ok()) {
      return Fail(text.status());
    }
    Result<Table> table = scoded::csv::ReadString(*text);
    if (!table.ok()) {
      return Fail(table.status());
    }
    scoded::Scoded system(std::move(table).value());
    Result<scoded::ViolationReport> report = system.CheckViolation(*asc);
    if (!report.ok()) {
      return Fail(report.status());
    }
    check_refs.push_back(scoded::serve::CheckResultLine(*asc, *report));
    texts.push_back(std::move(text).value());
  }
  Result<Table> stream_table = scoded::csv::ReadFile(flags.Get("monitor-csv"));
  Result<std::vector<ApproximateSc>> monitor_scs = ParseScs(flags.All("monitor-sc"));
  if (!stream_table.ok() || !monitor_scs.ok()) {
    return Fail(!stream_table.ok() ? stream_table.status() : monitor_scs.status());
  }
  const size_t batch = static_cast<size_t>(flags.Int("batch", 500));
  bool violated = false;
  Result<std::vector<std::string>> monitor_refs =
      MonitorReference(*stream_table, *monitor_scs, batch, &violated);
  if (!monitor_refs.ok()) {
    return Fail(monitor_refs.status());
  }
  std::vector<Table> batches;
  for (size_t start = 0; start < stream_table->NumRows(); start += batch) {
    batches.push_back(BatchAt(*stream_table, start, batch));
  }

  Result<scoded::serve::Client> client = scoded::serve::Client::Connect(
      static_cast<uint16_t>(flags.Int("port", 0)),
      static_cast<int>(flags.Int("deadline-ms", 30000)));
  if (!client.ok()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("connect_error").String(client.status().ToString());
    json.EndObject();
    return scoded::WriteTextFile(flags.Get("out"), json.str()).ok() ? 0 : 1;
  }
  std::printf("ready\n");
  std::fflush(stdout);

  // Closed loop: each request is sent once the previous reply arrived. The
  // caller paces the load, so it can spread it between other operations
  // over one long-lived connection.
  JsonWriter checks;
  JsonWriter sessions;
  checks.BeginArray();
  sessions.BeginArray();
  size_t sent = 0;
  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    const std::string command(line, std::strcspn(line, "\n"));
    if (command == "end") {
      break;
    } else if (command == "session") {
      StreamSession(*client, stream_table->schema(), *monitor_scs, batches, *monitor_refs,
                    sessions);
    } else if (scoded::StartsWith(command, "check ")) {
      Result<int64_t> requests =
          scoded::ParseCheckedInt(command.substr(6), 0, INT64_MAX, "check count");
      for (int64_t i = 0; requests.ok() && i < *requests; ++i, ++sent) {
        size_t which = sent % texts.size();
        int64_t start = NowNs();
        Result<JsonValue> reply = client->Check(texts[which], sc_text, kAlpha);
        double ms = MsSince(start);
        checks.BeginObject();
        checks.Key("ms").DoubleFull(ms);
        checks.Key("expected").String(check_refs[which]);
        if (!reply.ok()) {
          checks.Key("error").String(reply.status().ToString());
        } else {
          const JsonValue* answer = reply->Find("line");
          checks.Key("line").String(answer != nullptr && answer->is_string()
                                        ? answer->string_value
                                        : "");
        }
        checks.EndObject();
      }
      if (!requests.ok()) {
        return Fail(requests.status());
      }
    } else {
      std::fprintf(stderr, "e2e_helper: unknown serve-load command '%s'\n", command.c_str());
      return 1;
    }
    std::printf("ok\n");
    std::fflush(stdout);
  }
  checks.EndArray();
  sessions.EndArray();
  JsonWriter json;
  json.BeginObject();
  json.Key("checks").Raw(checks.str());
  json.Key("sessions").Raw(sessions.str());
  json.EndObject();
  Status written = scoded::WriteTextFile(flags.Get("out"), json.str());
  return written.ok() ? 0 : Fail(written);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Flags flags;
  if (argc < 2 || !ParseFlags(argc, argv, 2, &flags)) {
    std::fprintf(stderr,
                 "usage: e2e_helper <gen|fingerprint|serve-setup|ref-check|ref-drill|ref-monitor|"
                 "serve-load> "
                 "[--flag value]...\n");
    return 1;
  }
  ApplyThreads(flags);
  std::string command = argv[1];
  if (command == "gen") return Gen(flags);
  if (command == "fingerprint") return Fingerprint();
  if (command == "serve-setup") return ServeSetup(flags);
  if (command == "ref-check") return RefCheck(flags);
  if (command == "ref-drill") return RefDrill(flags);
  if (command == "ref-monitor") return RefMonitor(flags);
  if (command == "serve-load") return ServeLoad(flags);
  std::fprintf(stderr, "e2e_helper: unknown command '%s'\n", command.c_str());
  return 1;
}
