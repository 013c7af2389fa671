#include "obs/flightrec.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "common/sigsafe.h"
#include "common/string_util.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scoded::obs {

// ---------------------------------------------------------------------------
// Report parsing and rendering: compiled in every build so `scoded inspect`
// and the stub-mode tests work even under SCODED_DISABLE_OBS.
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kReportHeader = "SCODED-FLIGHT-REPORT v1";

std::string_view TrimView(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool ConsumePrefix(std::string_view& s, std::string_view prefix) {
  if (s.substr(0, prefix.size()) != prefix) {
    return false;
  }
  s.remove_prefix(prefix.size());
  return true;
}

}  // namespace

Result<std::vector<FlightReport>> ParseFlightReports(std::string_view text) {
  std::vector<FlightReport> reports;
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }

  enum class Mode { kOutside, kHeadLines, kBacktrace, kThread, kMetrics };
  Mode mode = Mode::kOutside;
  FlightReport current;
  bool closed = true;

  for (std::string_view raw : lines) {
    std::string_view line = TrimView(raw);
    if (line == kReportHeader) {
      if (!closed) {
        return InvalidArgumentError(
            "flight report truncated: new header before '== end =='");
      }
      current = FlightReport();
      closed = false;
      mode = Mode::kHeadLines;
      continue;
    }
    if (mode == Mode::kOutside) {
      continue;  // junk between reports (e.g. interleaved stderr) is skipped
    }
    if (line == "== end ==") {
      reports.push_back(std::move(current));
      current = FlightReport();
      closed = true;
      mode = Mode::kOutside;
      continue;
    }
    if (line == "== backtrace ==") {
      mode = Mode::kBacktrace;
      continue;
    }
    if (line == "== metrics ==") {
      mode = Mode::kMetrics;
      continue;
    }
    {
      std::string_view rest = line;
      if (ConsumePrefix(rest, "== thread ") && rest.size() > 3 &&
          rest.substr(rest.size() - 3) == " ==") {
        rest.remove_suffix(3);
        FlightReport::Thread thread;
        uint32_t tid = 0;
        auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), tid);
        if (ec != std::errc() || ptr != rest.data() + rest.size()) {
          return InvalidArgumentError("flight report: bad thread header '" +
                                      std::string(line) + "'");
        }
        thread.tid = tid;
        current.threads.push_back(std::move(thread));
        mode = Mode::kThread;
        continue;
      }
    }
    switch (mode) {
      case Mode::kHeadLines: {
        std::string_view rest = line;
        if (ConsumePrefix(rest, "kind: ")) {
          current.kind = std::string(rest);
        } else if (ConsumePrefix(rest, "signal: ")) {
          current.signal_name = std::string(rest);
        } else if (ConsumePrefix(rest, "reason: ")) {
          current.reason = std::string(rest);
        } else if (ConsumePrefix(rest, "build: ")) {
          current.build = std::string(rest);
        } else if (ConsumePrefix(rest, "time_us: ")) {
          int64_t t = 0;
          (void)std::from_chars(rest.data(), rest.data() + rest.size(), t);
          current.time_us = t;
        }
        break;
      }
      case Mode::kBacktrace:
        if (!line.empty()) {
          current.backtrace.emplace_back(line);
        }
        break;
      case Mode::kThread: {
        if (current.threads.empty()) {
          return InvalidArgumentError("flight report: thread body before header");
        }
        FlightReport::Thread& thread = current.threads.back();
        std::string_view rest = line;
        if (ConsumePrefix(rest, "sys_tid: ")) {
          uint64_t t = 0;
          (void)std::from_chars(rest.data(), rest.data() + rest.size(), t);
          thread.sys_tid = t;
        } else if (ConsumePrefix(rest, "spans: ")) {
          if (rest != "-") {
            for (const std::string& name : Split(rest, ';')) {
              std::string_view trimmed = TrimView(name);
              if (!trimmed.empty()) {
                thread.span_stack.emplace_back(trimmed);
              }
            }
          }
        } else if (line == "journal:") {
          // Journal tail lines follow, indented; handled below.
        } else if (!line.empty()) {
          thread.journal.emplace_back(line);
        }
        break;
      }
      case Mode::kMetrics:
        if (!line.empty()) {
          current.metrics.emplace_back(line);
        }
        break;
      case Mode::kOutside:
        break;
    }
  }
  if (!closed) {
    return InvalidArgumentError("flight report truncated: missing '== end =='");
  }
  if (reports.empty()) {
    return InvalidArgumentError("no SCODED-FLIGHT-REPORT records found");
  }
  return reports;
}

std::string RenderFlightReport(const FlightReport& report) {
  std::string out;
  out += report.kind == "stall" ? "STALL report" : "CRASH report";
  out += " (signal: " + report.signal_name + ", reason: " + report.reason + ")\n";
  out += "build: " + report.build + "\n";
  out += "time: " + std::to_string(report.time_us) + " us since process start\n";
  if (!report.backtrace.empty()) {
    out += "\nbacktrace (" + std::to_string(report.backtrace.size()) + " frames):\n";
    for (const std::string& frame : report.backtrace) {
      out += "  " + frame + "\n";
    }
  }
  for (const FlightReport::Thread& thread : report.threads) {
    out += "\nthread " + std::to_string(thread.tid) + " (sys_tid " +
           std::to_string(thread.sys_tid) + ")\n";
    out += "  active spans: ";
    if (thread.span_stack.empty()) {
      out += "(none)";
    } else {
      for (size_t i = 0; i < thread.span_stack.size(); ++i) {
        if (i > 0) {
          out += " > ";
        }
        out += thread.span_stack[i];
      }
    }
    out += "\n";
    if (!thread.journal.empty()) {
      out += "  last " + std::to_string(thread.journal.size()) + " events:\n";
      for (const std::string& event : thread.journal) {
        out += "    " + event + "\n";
      }
    }
  }
  if (!report.metrics.empty()) {
    out += "\nmetrics snapshot (" + std::to_string(report.metrics.size()) + "):\n";
    for (const std::string& line : report.metrics) {
      // progress.* gauges are what a human reads first; show them all, and
      // elide nothing else either — reports are small by construction.
      out += "  " + line + "\n";
    }
  }
  return out;
}

#if !defined(SCODED_OBS_DISABLED)

// ---------------------------------------------------------------------------
// Journal state.
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kMaxThreadJournals = 256;
constexpr int kMaxSpanDepth = 48;
constexpr size_t kEventTextBytes = 48;
constexpr size_t kMinRingEvents = 16;
constexpr size_t kMaxRingEvents = 65536;

enum JournalEventType : uint8_t {
  kEventNone = 0,
  kEventSpanBegin = 1,
  kEventSpanEnd = 2,
  kEventLog = 3,
  kEventHeartbeat = 4,
};

const char* EventTypeName(uint8_t type) {
  switch (type) {
    case kEventSpanBegin:
      return "span_begin";
    case kEventSpanEnd:
      return "span_end";
    case kEventLog:
      return "log";
    case kEventHeartbeat:
      return "heartbeat";
    default:
      return "?";
  }
}

// One slot of a per-thread ring. Fields are individually atomic so the
// crash writer (possibly on another thread, inside a signal handler) can
// read a slot that is concurrently being overwritten without UB; `text`
// is plain bytes and may tear, which the bounded StrN read tolerates.
struct JournalEvent {
  std::atomic<int64_t> t_us{0};
  std::atomic<int64_t> arg{0};
  std::atomic<const char*> name{nullptr};  // static string or nullptr
  std::atomic<uint8_t> type{kEventNone};
  char text[kEventTextBytes] = {};
};

// Single-writer (the owning thread) ring plus a mirror of the live span
// stack. Heap-allocated once per thread and intentionally leaked: a crash
// report must be able to show threads that have already exited.
struct ThreadJournal {
  ThreadJournal(size_t capacity_in, uint32_t tid_in, uint64_t sys_tid_in)
      : capacity(capacity_in), tid(tid_in), sys_tid(sys_tid_in), ring(capacity_in) {}

  const size_t capacity;
  const uint32_t tid;
  const uint64_t sys_tid;
  std::atomic<uint64_t> seq{0};
  std::atomic<int32_t> span_depth{0};
  std::atomic<const char*> span_stack[kMaxSpanDepth] = {};
  std::vector<JournalEvent> ring;
};

std::atomic<bool> g_armed{false};
std::atomic<size_t> g_ring_capacity{256};

std::mutex g_journal_mu;
ThreadJournal* g_journals[kMaxThreadJournals] = {};
std::atomic<size_t> g_journal_count{0};

thread_local ThreadJournal* t_journal = nullptr;
thread_local bool t_journal_rejected = false;

// Watchdog liveness state, bumped by every Heartbeat.
std::atomic<uint64_t> g_heartbeat_epoch{0};
std::atomic<int64_t> g_last_heartbeat_us{0};

// Crash/stall plumbing, all pre-arranged at arm time so signal context
// only ever loads atomics and calls write(2).
std::mutex g_arm_mu;
std::atomic<int> g_crash_fd{-1};
std::atomic<int> g_stall_fd{-1};
std::atomic<bool> g_crash_written{false};
std::atomic<bool> g_stall_written{false};
std::atomic<bool> g_in_fatal{false};
std::atomic<bool> g_stall_in_progress{false};
char g_crash_path[512] = {};
char g_stall_path[512] = {};
char g_build_stamp[128] = "unknown";
Counter* g_stall_reports_counter = nullptr;
Counter* g_crash_reports_counter = nullptr;

bool g_handlers_installed = false;
constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL};
struct sigaction g_old_fatal[std::size(kFatalSignals)];
struct sigaction g_old_quit;
std::terminate_handler g_old_terminate = nullptr;

uint64_t SysTid() {
  return static_cast<uint64_t>(::syscall(SYS_gettid));
}

ThreadJournal* GetThreadJournal() {
  ThreadJournal* j = t_journal;
  if (j != nullptr) {
    return j;
  }
  if (t_journal_rejected) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(g_journal_mu);
  size_t i = g_journal_count.load(std::memory_order_relaxed);
  if (i >= kMaxThreadJournals) {
    t_journal_rejected = true;
    return nullptr;
  }
  j = new ThreadJournal(g_ring_capacity.load(std::memory_order_relaxed),
                        CurrentTid(), SysTid());
  g_journals[i] = j;
  g_journal_count.store(i + 1, std::memory_order_release);
  t_journal = j;
  return j;
}

void JournalAppend(JournalEventType type, const char* name, std::string_view text,
                   int64_t arg) {
  ThreadJournal* j = GetThreadJournal();
  if (j == nullptr) {
    return;
  }
  uint64_t seq = j->seq.load(std::memory_order_relaxed);
  JournalEvent& e = j->ring[seq % j->capacity];
  e.t_us.store(NowMicros(), std::memory_order_relaxed);
  e.arg.store(arg, std::memory_order_relaxed);
  e.name.store(name, std::memory_order_relaxed);
  e.type.store(type, std::memory_order_relaxed);
  size_t n = std::min(text.size(), kEventTextBytes - 1);
  if (n > 0) {  // span and heartbeat events pass an empty view whose data() is null
    std::memcpy(e.text, text.data(), n);
  }
  e.text[n] = '\0';
  j->seq.store(seq + 1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Async-signal-safe report writing.
// ---------------------------------------------------------------------------

void WriteThreadSections(sigsafe::Writer& w) {
  size_t count = g_journal_count.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    ThreadJournal* j = g_journals[i];
    if (j == nullptr) {
      continue;
    }
    w.Str("== thread ");
    w.Udec(j->tid);
    w.Str(" ==\n");
    w.Str("sys_tid: ");
    w.Udec(j->sys_tid);
    w.Char('\n');
    w.Str("spans: ");
    int32_t depth = j->span_depth.load(std::memory_order_relaxed);
    depth = std::clamp(depth, 0, kMaxSpanDepth);
    if (depth == 0) {
      w.Char('-');
    }
    for (int32_t d = 0; d < depth; ++d) {
      const char* name = j->span_stack[d].load(std::memory_order_relaxed);
      if (d > 0) {
        w.Char(';');
      }
      w.Str(name != nullptr ? name : "?");
    }
    w.Str("\njournal:\n");
    uint64_t seq = j->seq.load(std::memory_order_acquire);
    uint64_t n = std::min<uint64_t>(seq, j->capacity);
    for (uint64_t k = seq - n; k < seq; ++k) {
      const JournalEvent& e = j->ring[k % j->capacity];
      uint8_t type = e.type.load(std::memory_order_relaxed);
      if (type == kEventNone) {
        continue;
      }
      w.Str("  ");
      w.Dec(e.t_us.load(std::memory_order_relaxed));
      w.Char(' ');
      w.Str(EventTypeName(type));
      w.Char(' ');
      const char* name = e.name.load(std::memory_order_relaxed);
      w.Str(name != nullptr ? name : "?");
      w.Char(' ');
      w.Dec(e.arg.load(std::memory_order_relaxed));
      if (e.text[0] != '\0') {
        w.Char(' ');
        w.StrN(e.text, kEventTextBytes - 1);
      }
      w.Char('\n');
    }
  }
}

void WriteMetricsSection(sigsafe::Writer& w) {
  w.Str("== metrics ==\n");
  size_t count =
      internal::g_instrument_dir_count.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    const internal::InstrumentDirEntry& entry = internal::g_instrument_dir[i];
    switch (entry.kind) {
      case internal::InstrumentKind::kCounter:
        w.Str("counter ");
        w.Str(entry.name);
        w.Char(' ');
        w.Dec(static_cast<const Counter*>(entry.instrument)->Value());
        break;
      case internal::InstrumentKind::kGauge:
        w.Str("gauge ");
        w.Str(entry.name);
        w.Char(' ');
        w.Fixed(static_cast<const Gauge*>(entry.instrument)->Value());
        break;
      case internal::InstrumentKind::kHistogram: {
        const auto* h = static_cast<const Histogram*>(entry.instrument);
        w.Str("histogram ");
        w.Str(entry.name);
        w.Str(" count ");
        w.Dec(h->Count());
        w.Str(" sum ");
        w.Dec(h->Sum());
        break;
      }
    }
    w.Char('\n');
  }
}

void WriteReportTo(int fd, const char* kind, const char* signal_name,
                   const char* reason) {
  sigsafe::Writer w(fd);
  w.Str(kReportHeader.data());
  w.Char('\n');
  w.Str("kind: ");
  w.Str(kind);
  w.Str("\nsignal: ");
  w.Str(signal_name);
  w.Str("\nreason: ");
  w.Str(reason);
  w.Str("\ntime_us: ");
  w.Dec(NowMicros());
  w.Str("\nbuild: ");
  w.Str(g_build_stamp);
  w.Char('\n');
  w.Str("== backtrace ==\n");
  w.Flush();
  // Skip the writer/handler frames so the faulting frame leads.
  sigsafe::WriteBacktrace(fd, 2);
  WriteThreadSections(w);
  WriteMetricsSection(w);
  w.Str("== end ==\n");
}

void WriteCrashReport(const char* signal_name, const char* reason) {
  int fd = g_crash_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    WriteReportTo(fd, "crash", signal_name, reason);
    g_crash_written.store(true, std::memory_order_relaxed);
  }
  if (g_crash_reports_counter != nullptr) {
    g_crash_reports_counter->Add();
  }
  // Duplicate onto stderr: the report file may be all that survives a
  // crash in production, but stderr is what a human watching the run sees.
  WriteReportTo(2, "crash", signal_name, reason);
}

void DumpStallReportImpl(const char* signal_name, const char* reason) {
  if (!g_armed.load(std::memory_order_relaxed)) {
    return;
  }
  // One dump at a time: SIGQUIT can race the watchdog thread.
  if (g_stall_in_progress.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  int fd = g_stall_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    WriteReportTo(fd, "stall", signal_name, reason);
    g_stall_written.store(true, std::memory_order_relaxed);
    if (g_stall_reports_counter != nullptr) {
      g_stall_reports_counter->Add();
    }
    sigsafe::Writer notice(2);
    notice.Str("scoded: stall report (");
    notice.Str(reason);
    notice.Str(") appended to ");
    notice.Str(g_stall_path);
    notice.Char('\n');
  }
  g_stall_in_progress.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Signal handlers, chaining, std::terminate.
// ---------------------------------------------------------------------------

const struct sigaction* OldActionFor(int signo) {
  for (size_t i = 0; i < std::size(kFatalSignals); ++i) {
    if (kFatalSignals[i] == signo) {
      return &g_old_fatal[i];
    }
  }
  return nullptr;
}

void ChainFatal(int signo, siginfo_t* info, void* ctx) {
  const struct sigaction* old = OldActionFor(signo);
  if (old != nullptr) {
    if ((old->sa_flags & SA_SIGINFO) != 0 && old->sa_sigaction != nullptr) {
      // A pre-existing SA_SIGINFO handler — a sanitizer's, typically.
      old->sa_sigaction(signo, info, ctx);
      return;
    }
    if (old->sa_handler == SIG_IGN) {
      return;
    }
    if (old->sa_handler != SIG_DFL && old->sa_handler != nullptr) {
      old->sa_handler(signo);
      return;
    }
  }
  // Default disposition: re-deliver with ours removed so the process dies
  // with the original signal (exit status, core file, the lot).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

void FatalSignalHandler(int signo, siginfo_t* info, void* ctx) {
  // First thread in writes the report; a recursive fault (or a second
  // thread crashing concurrently) skips straight to chaining.
  if (!g_in_fatal.exchange(true, std::memory_order_acq_rel)) {
    WriteCrashReport(sigsafe::SignalName(signo), "fatal signal");
  }
  ChainFatal(signo, info, ctx);
}

void QuitSignalHandler(int /*signo*/, siginfo_t* /*info*/, void* /*ctx*/) {
  int saved_errno = errno;
  DumpStallReportImpl("SIGQUIT", "SIGQUIT");
  errno = saved_errno;
}

[[noreturn]] void TerminateHandler() {
  if (!g_in_fatal.exchange(true, std::memory_order_acq_rel)) {
    WriteCrashReport("terminate", "std::terminate");
  }
  if (g_old_terminate != nullptr) {
    g_old_terminate();
  }
  std::abort();
}

Status InstallHandlers() {
  // A dedicated signal stack so a stack-overflow SIGSEGV can still run the
  // handler. Leaked on purpose; SIGSTKSZ is not a constant on new glibc.
  static char* alt_stack = new char[256 * 1024];
  stack_t ss = {};
  ss.ss_sp = alt_stack;
  ss.ss_size = 256 * 1024;
  if (sigaltstack(&ss, nullptr) != 0) {
    return InternalError("sigaltstack: " + ErrnoMessage(errno));
  }
  struct sigaction sa = {};
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  sa.sa_sigaction = FatalSignalHandler;
  for (size_t i = 0; i < std::size(kFatalSignals); ++i) {
    if (sigaction(kFatalSignals[i], &sa, &g_old_fatal[i]) != 0) {
      return InternalError(std::string("sigaction(") +
                           sigsafe::SignalName(kFatalSignals[i]) +
                           "): " + ErrnoMessage(errno));
    }
  }
  struct sigaction quit = {};
  quit.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigemptyset(&quit.sa_mask);
  quit.sa_sigaction = QuitSignalHandler;
  if (sigaction(SIGQUIT, &quit, &g_old_quit) != 0) {
    return InternalError("sigaction(SIGQUIT): " + ErrnoMessage(errno));
  }
  g_old_terminate = std::set_terminate(TerminateHandler);
  g_handlers_installed = true;
  return OkStatus();
}

void RestoreHandlers() {
  if (!g_handlers_installed) {
    return;
  }
  for (size_t i = 0; i < std::size(kFatalSignals); ++i) {
    (void)sigaction(kFatalSignals[i], &g_old_fatal[i], nullptr);
  }
  (void)sigaction(SIGQUIT, &g_old_quit, nullptr);
  std::set_terminate(g_old_terminate);
  g_old_terminate = nullptr;
  g_handlers_installed = false;
}

Result<int> OpenReportFile(char* path_buf, size_t path_buf_size,
                           const std::string& dir, const char* stem, int flags) {
  int n = std::snprintf(path_buf, path_buf_size, "%s/%s-%d.report",
                        dir.empty() ? "." : dir.c_str(), stem,
                        static_cast<int>(::getpid()));
  if (n < 0 || static_cast<size_t>(n) >= path_buf_size) {
    return InvalidArgumentError("flight recorder report_dir path too long");
  }
  int fd = ::open(path_buf, flags, 0644);
  if (fd < 0) {
    return NotFoundError(std::string("cannot open ") + path_buf + ": " +
                         ErrnoMessage(errno));
  }
  return fd;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

Status ArmFlightRecorder(const FlightRecorderOptions& options) {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  if (g_armed.load(std::memory_order_relaxed)) {
    return OkStatus();
  }
  if (options.events_per_thread == 0) {
    return InvalidArgumentError(
        "flight recorder ring capacity must be > 0 (0 means: do not arm)");
  }
  g_ring_capacity.store(
      std::clamp(options.events_per_thread, kMinRingEvents, kMaxRingEvents),
      std::memory_order_relaxed);

  SCODED_ASSIGN_OR_RETURN(
      int crash_fd,
      OpenReportFile(g_crash_path, sizeof(g_crash_path), options.report_dir,
                     "scoded-crash", O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC));
  auto stall_fd_or = OpenReportFile(g_stall_path, sizeof(g_stall_path),
                                    options.report_dir, "scoded-stall",
                                    O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC);
  if (!stall_fd_or.ok()) {
    ::close(crash_fd);
    ::unlink(g_crash_path);
    return stall_fd_or.status();
  }

  BuildInfo build = GetBuildInfo();
  std::snprintf(g_build_stamp, sizeof(g_build_stamp), "%.*s %.*s",
                static_cast<int>(build.git_describe.size()), build.git_describe.data(),
                static_cast<int>(build.build_type.size()), build.build_type.data());

  // Everything a handler touches lazily must be touched now, outside
  // signal context: libgcc's unwinder, this thread's dense tid and
  // journal, the clock epoch, and the report counters.
  sigsafe::WarmUpBacktrace();
  (void)NowMicros();
  (void)CurrentTid();
  g_crash_reports_counter =
      Metrics::Global().FindOrCreateCounter("flightrec.crash_reports");
  g_stall_reports_counter =
      Metrics::Global().FindOrCreateCounter("flightrec.stall_reports");

  g_crash_written.store(false, std::memory_order_relaxed);
  g_stall_written.store(false, std::memory_order_relaxed);
  g_in_fatal.store(false, std::memory_order_relaxed);
  g_crash_fd.store(crash_fd, std::memory_order_relaxed);
  g_stall_fd.store(stall_fd_or.value(), std::memory_order_relaxed);

  if (options.install_signal_handlers) {
    Status s = InstallHandlers();
    if (!s.ok()) {
      ::close(g_crash_fd.exchange(-1, std::memory_order_relaxed));
      ::close(g_stall_fd.exchange(-1, std::memory_order_relaxed));
      ::unlink(g_crash_path);
      ::unlink(g_stall_path);
      return s;
    }
  }

  g_armed.store(true, std::memory_order_release);
  internal::AddSpanSink(internal::kJournalSink);
  (void)GetThreadJournal();
  return OkStatus();
}

void DisarmFlightRecorder() {
  StopWatchdog();
  std::lock_guard<std::mutex> lock(g_arm_mu);
  if (!g_armed.load(std::memory_order_relaxed)) {
    return;
  }
  internal::RemoveSpanSink(internal::kJournalSink);
  g_armed.store(false, std::memory_order_release);
  RestoreHandlers();
  int crash_fd = g_crash_fd.exchange(-1, std::memory_order_relaxed);
  int stall_fd = g_stall_fd.exchange(-1, std::memory_order_relaxed);
  if (crash_fd >= 0) {
    ::close(crash_fd);
  }
  if (stall_fd >= 0) {
    ::close(stall_fd);
  }
  if (!g_crash_written.load(std::memory_order_relaxed)) {
    ::unlink(g_crash_path);
  }
  if (!g_stall_written.load(std::memory_order_relaxed)) {
    ::unlink(g_stall_path);
  }
}

bool FlightRecorderArmed() { return g_armed.load(std::memory_order_relaxed); }

std::string CrashReportPath() {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  return g_armed.load(std::memory_order_relaxed) ? std::string(g_crash_path)
                                                 : std::string();
}

std::string StallReportPath() {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  return g_armed.load(std::memory_order_relaxed) ? std::string(g_stall_path)
                                                 : std::string();
}

void Heartbeat(const char* what, int64_t value) {
  g_heartbeat_epoch.fetch_add(1, std::memory_order_relaxed);
  g_last_heartbeat_us.store(NowMicros(), std::memory_order_relaxed);
  if (g_armed.load(std::memory_order_relaxed)) {
    JournalAppend(kEventHeartbeat, what, std::string_view(), value);
  }
}

void DumpStallReport(const char* reason) {
  DumpStallReportImpl("on-demand", reason);
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

namespace {

struct Watchdog {
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
};

std::mutex g_watchdog_mu;
Watchdog* g_watchdog = nullptr;

void WatchdogLoop(Watchdog* dog, WatchdogOptions options) {
  Gauge* pending =
      Metrics::Global().FindOrCreateGauge("parallel.pool_pending_chunks");
  Gauge* inflight =
      Metrics::Global().FindOrCreateGauge("parallel.pool_inflight_tasks");
  const int64_t stall_us = static_cast<int64_t>(options.stall_seconds * 1e6);
  // Dump once per stall: re-arm only after the heartbeat epoch moves again.
  uint64_t dumped_epoch = ~uint64_t{0};
  std::unique_lock<std::mutex> lock(dog->mu);
  while (!dog->stop) {
    dog->cv.wait_for(lock, std::chrono::milliseconds(options.poll_ms));
    if (dog->stop) {
      break;
    }
    uint64_t epoch = g_heartbeat_epoch.load(std::memory_order_relaxed);
    if (epoch == 0 || epoch == dumped_epoch) {
      continue;  // nothing has ever run, or this stall is already reported
    }
    bool pool_busy = pending->Value() > 0.0 || inflight->Value() > 0.0;
    int64_t quiet_us =
        NowMicros() - g_last_heartbeat_us.load(std::memory_order_relaxed);
    if (pool_busy && quiet_us > stall_us) {
      char reason[160];
      std::snprintf(reason, sizeof(reason),
                    "watchdog: no heartbeat for %.1fs with pool work pending",
                    static_cast<double>(quiet_us) / 1e6);
      DumpStallReportImpl("watchdog", reason);
      dumped_epoch = epoch;
    }
  }
}

}  // namespace

Status StartWatchdog(const WatchdogOptions& options) {
  if (!FlightRecorderArmed()) {
    return FailedPreconditionError("watchdog requires an armed flight recorder");
  }
  if (!(options.stall_seconds > 0.0) || options.poll_ms <= 0) {
    return InvalidArgumentError("watchdog stall_seconds and poll_ms must be > 0");
  }
  std::lock_guard<std::mutex> lock(g_watchdog_mu);
  if (g_watchdog != nullptr) {
    return FailedPreconditionError("watchdog already running");
  }
  auto* dog = new Watchdog();
  dog->thread = std::thread(WatchdogLoop, dog, options);
  g_watchdog = dog;
  return OkStatus();
}

void StopWatchdog() {
  Watchdog* dog = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_watchdog_mu);
    dog = g_watchdog;
    g_watchdog = nullptr;
  }
  if (dog == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(dog->mu);
    dog->stop = true;
  }
  dog->cv.notify_all();
  dog->thread.join();
  delete dog;
}

bool WatchdogRunning() {
  std::lock_guard<std::mutex> lock(g_watchdog_mu);
  return g_watchdog != nullptr;
}

// ---------------------------------------------------------------------------
// Hooks from the span machinery and the logger.
// ---------------------------------------------------------------------------

namespace flightrec_internal {

void JournalSpanBegin(const char* name) {
  if (!g_armed.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadJournal* j = GetThreadJournal();
  if (j == nullptr) {
    return;
  }
  int32_t depth = j->span_depth.load(std::memory_order_relaxed);
  if (depth >= 0 && depth < kMaxSpanDepth) {
    j->span_stack[depth].store(name, std::memory_order_relaxed);
  }
  j->span_depth.store(depth + 1, std::memory_order_relaxed);
  JournalAppend(kEventSpanBegin, name, std::string_view(), 0);
}

void JournalSpanEnd(const char* name, int64_t dur_us) {
  if (!g_armed.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadJournal* j = GetThreadJournal();
  if (j == nullptr) {
    return;
  }
  int32_t depth = j->span_depth.load(std::memory_order_relaxed);
  if (depth > 0) {
    // Arming mid-span leaves ends without begins; never go negative.
    j->span_depth.store(depth - 1, std::memory_order_relaxed);
  }
  JournalAppend(kEventSpanEnd, name, std::string_view(), dur_us);
}

void JournalLog(const char* level, std::string_view msg) {
  if (!g_armed.load(std::memory_order_relaxed)) {
    return;
  }
  JournalAppend(kEventLog, level, msg, 0);
}

}  // namespace flightrec_internal

#endif  // !SCODED_OBS_DISABLED

}  // namespace scoded::obs
