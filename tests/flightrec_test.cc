#include "obs/flightrec.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fileio.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/sharded_check.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCODED_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define SCODED_TSAN 1
#endif

namespace scoded {
namespace {

// A syntactically complete report, used by the parser tests in every build
// (including SCODED_DISABLE_OBS, where the recorder itself is a stub).
constexpr char kCannedReport[] =
    "SCODED-FLIGHT-REPORT v1\n"
    "kind: crash\n"
    "signal: SIGSEGV\n"
    "reason: fatal signal\n"
    "time_us: 123456\n"
    "build: deadbeef Release\n"
    "== backtrace ==\n"
    "./scoded(+0x1234)[0xdead]\n"
    "libc.so.6(+0x5678)[0xbeef]\n"
    "== thread 0 ==\n"
    "sys_tid: 4242\n"
    "spans: cli/main;core/sharded_check_all;core/shard_read\n"
    "journal:\n"
    "  100 span_begin cli/main 0\n"
    "  200 heartbeat core.shard_read 3\n"
    "== thread 1 ==\n"
    "sys_tid: 4243\n"
    "spans: -\n"
    "journal:\n"
    "== metrics ==\n"
    "counter stats.tests_executed 42\n"
    "gauge progress.shards_done 3.000000\n"
    "== end ==\n";

TEST(FlightReportParserTest, ParsesCannedReport) {
  Result<std::vector<obs::FlightReport>> reports =
      obs::ParseFlightReports(kCannedReport);
  ASSERT_TRUE(reports.ok()) << reports.status().message();
  ASSERT_EQ(reports->size(), 1u);
  const obs::FlightReport& report = (*reports)[0];
  EXPECT_EQ(report.kind, "crash");
  EXPECT_EQ(report.signal_name, "SIGSEGV");
  EXPECT_EQ(report.reason, "fatal signal");
  EXPECT_EQ(report.time_us, 123456);
  EXPECT_EQ(report.build, "deadbeef Release");
  ASSERT_EQ(report.backtrace.size(), 2u);
  EXPECT_EQ(report.backtrace[0], "./scoded(+0x1234)[0xdead]");
  ASSERT_EQ(report.threads.size(), 2u);
  EXPECT_EQ(report.threads[0].tid, 0u);
  EXPECT_EQ(report.threads[0].sys_tid, 4242u);
  ASSERT_EQ(report.threads[0].span_stack.size(), 3u);
  EXPECT_EQ(report.threads[0].span_stack[1], "core/sharded_check_all");
  ASSERT_EQ(report.threads[0].journal.size(), 2u);
  EXPECT_NE(report.threads[0].journal[1].find("heartbeat"), std::string::npos);
  EXPECT_TRUE(report.threads[1].span_stack.empty());
  ASSERT_EQ(report.metrics.size(), 2u);
  EXPECT_EQ(report.metrics[0], "counter stats.tests_executed 42");
}

TEST(FlightReportParserTest, ParsesMultipleReportsAndSkipsJunkBetween) {
  std::string two = std::string(kCannedReport) + "noise the shell printed\n" +
                    kCannedReport;
  Result<std::vector<obs::FlightReport>> reports = obs::ParseFlightReports(two);
  ASSERT_TRUE(reports.ok()) << reports.status().message();
  EXPECT_EQ(reports->size(), 2u);
}

TEST(FlightReportParserTest, RejectsGarbage) {
  EXPECT_FALSE(obs::ParseFlightReports("not a report at all\n").ok());
  EXPECT_FALSE(obs::ParseFlightReports("").ok());
}

TEST(FlightReportParserTest, RejectsTruncatedReport) {
  std::string truncated(kCannedReport);
  truncated.resize(truncated.find("== end =="));
  Result<std::vector<obs::FlightReport>> reports =
      obs::ParseFlightReports(truncated);
  EXPECT_FALSE(reports.ok());
  EXPECT_NE(reports.status().message().find("== end =="), std::string::npos);
}

TEST(FlightReportParserTest, RenderRoundTripMentionsTheLoadBearingParts) {
  Result<std::vector<obs::FlightReport>> reports =
      obs::ParseFlightReports(kCannedReport);
  ASSERT_TRUE(reports.ok());
  std::string rendered = obs::RenderFlightReport((*reports)[0]);
  EXPECT_NE(rendered.find("CRASH"), std::string::npos);
  EXPECT_NE(rendered.find("SIGSEGV"), std::string::npos);
  EXPECT_NE(rendered.find("core/sharded_check_all"), std::string::npos);
  EXPECT_NE(rendered.find("stats.tests_executed"), std::string::npos);
}

#if defined(SCODED_OBS_DISABLED)

// With observability compiled out the recorder is a stub that fails loudly
// when asked for explicitly and no-ops otherwise.
TEST(FlightRecorderStubTest, ArmFailsLoudly) {
  Status status = obs::ArmFlightRecorder();
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(obs::FlightRecorderArmed());
  EXPECT_TRUE(obs::CrashReportPath().empty());
}

TEST(FlightRecorderStubTest, WatchdogFailsLoudly) {
  EXPECT_EQ(obs::StartWatchdog().code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(obs::WatchdogRunning());
}

TEST(FlightRecorderStubTest, HooksAreNoOps) {
  obs::Heartbeat("stub", 1);
  obs::DumpStallReport("stub");
  obs::DisarmFlightRecorder();
  obs::StopWatchdog();
}

#else  // !SCODED_OBS_DISABLED

std::string MakeReportDir(const std::string& stem) {
  std::string dir = ::testing::TempDir() + "/" + stem;
  std::string cmd = "mkdir -p '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

std::string WriteShardFixture(const std::string& path, int rows) {
  Rng rng(17);
  std::ofstream out(path);
  EXPECT_TRUE(out.good());
  out << "A,B,C\n";
  for (int i = 0; i < rows; ++i) {
    int64_t a = rng.UniformInt(0, 5);
    out << a << ',' << a + rng.UniformInt(0, 2) << ',' << rng.UniformInt(0, 9)
        << '\n';
  }
  return path;
}

ApproximateSc MustParseAsc(const std::string& text, double alpha) {
  Result<StatisticalConstraint> sc = ParseConstraint(text);
  EXPECT_TRUE(sc.ok()) << sc.status().message();
  return {std::move(sc).value(), alpha};
}

// Raises a real SIGSEGV by storing to address 0. The pointer is read from a
// volatile, so the compiler cannot turn the store into a trap, and the
// helper is exempt from UBSan's null check, so a -fsanitize=undefined build
// with -fno-sanitize-recover faults in hardware instead of aborting first.
__attribute__((noinline, no_sanitize("null"))) void StoreThroughNull() {
  static int* volatile target = nullptr;
  *target = 1;
}

// The acceptance test: a forked child dies of SIGSEGV mid-ShardedCheckAll
// and leaves a parseable crash report with a backtrace, the active span
// stack of the checking thread, and journal events.
//
// First in the file on purpose: the child must fork before any other test
// has started pool worker threads (they would not survive the fork).
TEST(FlightRecorderDeathTest, SigsegvDuringShardedCheckLeavesCrashReport) {
#if defined(SCODED_TSAN)
  GTEST_SKIP() << "TSan kills forked children (die_after_fork)";
#endif
  std::string dir = MakeReportDir("flightrec_crash");
  std::string csv =
      WriteShardFixture(::testing::TempDir() + "/flightrec_crash.csv", 60000);
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child. Exit codes: 3 = could not arm, 0 = the check finished without
    // crashing (both are parent-side failures).
    parallel::SetThreads(1);
    obs::FlightRecorderOptions options;
    options.report_dir = dir;
    options.events_per_thread = 128;
    if (!obs::ArmFlightRecorder(options).ok()) {
      _exit(3);
    }
    // Crash as soon as the check makes observable progress, so the main
    // thread is caught with its sharded-check spans open.
    std::thread([] {
      obs::Counter* rows = obs::Metrics::Global().FindOrCreateCounter("shard.rows");
      while (rows->Value() == 0) {
        std::this_thread::yield();
      }
      StoreThroughNull();
    }).detach();
    ShardedCheckOptions options_check;
    options_check.reader.shard_rows = 500;
    (void)ShardedCheckAll(csv, {MustParseAsc("A _||_ C", 0.05)}, options_check);
    // The fault takes the whole process down, but a sanitizer's handler
    // (chained after the recorder's) can take longer to do so than the
    // rest of the check takes to finish; give it that time before
    // reporting that no crash happened.
    std::this_thread::sleep_for(std::chrono::seconds(20));
    _exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  if (WIFEXITED(wstatus)) {
    // A sanitizer that intercepted the chained SIGSEGV exits nonzero
    // instead of dying of the signal; both prove the crash happened.
    EXPECT_NE(WEXITSTATUS(wstatus), 0) << "check finished without crashing";
    ASSERT_NE(WEXITSTATUS(wstatus), 3) << "child could not arm the recorder";
  } else {
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    EXPECT_EQ(WTERMSIG(wstatus), SIGSEGV);
  }
  std::string report_path =
      dir + "/scoded-crash-" + std::to_string(pid) + ".report";
  Result<std::string> text = ReadTextFile(report_path);
  ASSERT_TRUE(text.ok()) << "no crash report at " << report_path;
  Result<std::vector<obs::FlightReport>> reports = obs::ParseFlightReports(*text);
  ASSERT_TRUE(reports.ok()) << reports.status().message();
  ASSERT_EQ(reports->size(), 1u);
  const obs::FlightReport& report = (*reports)[0];
  EXPECT_EQ(report.kind, "crash");
  EXPECT_EQ(report.signal_name, "SIGSEGV");
  EXPECT_FALSE(report.backtrace.empty());
  // The checking thread must be caught inside the sharded check, and at
  // least one thread journaled at least one event.
  bool found_shard_span = false;
  bool found_event = false;
  for (const obs::FlightReport::Thread& thread : report.threads) {
    found_event = found_event || !thread.journal.empty();
    for (const std::string& span : thread.span_stack) {
      found_shard_span = found_shard_span || span.rfind("core/shard", 0) == 0;
    }
  }
  EXPECT_TRUE(found_shard_span) << "no core/shard* span open in any thread";
  EXPECT_TRUE(found_event) << "no journal events in any thread";
}

TEST(FlightRecorderTest, ArmRejectsZeroCapacity) {
  obs::FlightRecorderOptions options;
  options.events_per_thread = 0;
  Status status = obs::ArmFlightRecorder(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(obs::FlightRecorderArmed());
}

TEST(FlightRecorderTest, CleanArmDisarmLeavesNoFiles) {
  std::string dir = MakeReportDir("flightrec_clean");
  obs::FlightRecorderOptions options;
  options.report_dir = dir;
  ASSERT_TRUE(obs::ArmFlightRecorder(options).ok());
  EXPECT_TRUE(obs::FlightRecorderArmed());
  std::string crash_path = obs::CrashReportPath();
  std::string stall_path = obs::StallReportPath();
  EXPECT_NE(crash_path.find(dir), std::string::npos);
  EXPECT_NE(stall_path.find(dir), std::string::npos);
  // Arming is idempotent while armed.
  EXPECT_TRUE(obs::ArmFlightRecorder(options).ok());
  obs::DisarmFlightRecorder();
  EXPECT_FALSE(obs::FlightRecorderArmed());
  // Nothing was dumped, so disarm unlinked both pre-opened files.
  EXPECT_FALSE(ReadTextFile(crash_path).ok());
  EXPECT_FALSE(ReadTextFile(stall_path).ok());
}

TEST(FlightRecorderTest, StallDumpCapturesJournalSpansAndMetrics) {
  std::string dir = MakeReportDir("flightrec_stall");
  obs::FlightRecorderOptions options;
  options.report_dir = dir;
  options.events_per_thread = 64;
  ASSERT_TRUE(obs::ArmFlightRecorder(options).ok());
  std::string stall_path = obs::StallReportPath();
  {
    obs::ScopedSpan outer("test/outer");
    obs::ScopedSpan inner("test/inner");
    obs::Heartbeat("test.beat", 7);
    obs::LogWarn("synthetic stall for the test");
    // Dump while both spans are still open: they must appear as the live
    // span stack, not just as journal events.
    obs::DumpStallReport("unit-test stall");
  }
  obs::DisarmFlightRecorder();
  Result<std::string> text = ReadTextFile(stall_path);
  ASSERT_TRUE(text.ok()) << "no stall report at " << stall_path;
  Result<std::vector<obs::FlightReport>> reports = obs::ParseFlightReports(*text);
  ASSERT_TRUE(reports.ok()) << reports.status().message();
  ASSERT_EQ(reports->size(), 1u);
  const obs::FlightReport& report = (*reports)[0];
  EXPECT_EQ(report.kind, "stall");
  EXPECT_EQ(report.signal_name, "on-demand");
  EXPECT_EQ(report.reason, "unit-test stall");
  EXPECT_FALSE(report.build.empty());
  bool found_stack = false;
  bool found_beat = false;
  bool found_log = false;
  for (const obs::FlightReport::Thread& thread : report.threads) {
    if (thread.span_stack.size() >= 2 && thread.span_stack[0] == "test/outer" &&
        thread.span_stack[1] == "test/inner") {
      found_stack = true;
    }
    for (const std::string& event : thread.journal) {
      found_beat = found_beat || (event.find("heartbeat") != std::string::npos &&
                                  event.find("test.beat") != std::string::npos);
      found_log = found_log || event.find("synthetic stall") != std::string::npos;
    }
  }
  EXPECT_TRUE(found_stack) << "live span stack missing test/outer > test/inner";
  EXPECT_TRUE(found_beat) << "heartbeat event missing from the journal";
  EXPECT_TRUE(found_log) << "log record missing from the journal";
  // The final metrics snapshot rides along.
  bool found_metric = false;
  for (const std::string& line : report.metrics) {
    found_metric = found_metric || line.find("flightrec.stall_reports") != std::string::npos;
  }
  EXPECT_TRUE(found_metric);
  ASSERT_EQ(::unlink(stall_path.c_str()), 0);
}

TEST(FlightRecorderTest, WatchdogDumpsOnStalledPool) {
  std::string dir = MakeReportDir("flightrec_watchdog");
  obs::FlightRecorderOptions options;
  options.report_dir = dir;
  ASSERT_TRUE(obs::ArmFlightRecorder(options).ok());
  std::string stall_path = obs::StallReportPath();
  // Simulate a hung pool: one heartbeat happened, work is still pending,
  // and then nothing moves.
  obs::Gauge* pending =
      obs::Metrics::Global().FindOrCreateGauge("parallel.pool_pending_chunks");
  obs::Heartbeat("test.stalled_task", 1);
  pending->Set(5.0);
  obs::WatchdogOptions watchdog;
  watchdog.stall_seconds = 0.15;
  watchdog.poll_ms = 25;
  ASSERT_TRUE(obs::StartWatchdog(watchdog).ok());
  EXPECT_TRUE(obs::WatchdogRunning());
  // A second watchdog is refused.
  EXPECT_EQ(obs::StartWatchdog(watchdog).code(), StatusCode::kFailedPrecondition);
  std::string text;
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    Result<std::string> read = ReadTextFile(stall_path);
    if (read.ok() && read->find("== end ==") != std::string::npos) {
      text = *read;
      break;
    }
  }
  pending->Set(0.0);
  obs::StopWatchdog();
  EXPECT_FALSE(obs::WatchdogRunning());
  obs::DisarmFlightRecorder();
  ASSERT_FALSE(text.empty()) << "watchdog never dumped a stall report";
  Result<std::vector<obs::FlightReport>> reports = obs::ParseFlightReports(text);
  ASSERT_TRUE(reports.ok()) << reports.status().message();
  ASSERT_GE(reports->size(), 1u);
  EXPECT_EQ((*reports)[0].kind, "stall");
  EXPECT_EQ((*reports)[0].signal_name, "watchdog");
  EXPECT_NE((*reports)[0].reason.find("no heartbeat"), std::string::npos);
  ASSERT_EQ(::unlink(stall_path.c_str()), 0);
}

TEST(FlightRecorderTest, WatchdogStaysQuietWithoutPendingWork) {
  std::string dir = MakeReportDir("flightrec_quiet");
  obs::FlightRecorderOptions options;
  options.report_dir = dir;
  ASSERT_TRUE(obs::ArmFlightRecorder(options).ok());
  std::string stall_path = obs::StallReportPath();
  obs::Metrics::Global()
      .FindOrCreateGauge("parallel.pool_pending_chunks")
      ->Set(0.0);
  obs::Metrics::Global()
      .FindOrCreateGauge("parallel.pool_inflight_tasks")
      ->Set(0.0);
  obs::Heartbeat("test.idle", 1);
  obs::WatchdogOptions watchdog;
  watchdog.stall_seconds = 0.05;
  watchdog.poll_ms = 10;
  ASSERT_TRUE(obs::StartWatchdog(watchdog).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  obs::StopWatchdog();
  obs::DisarmFlightRecorder();
  // Quiet but idle is not a stall: the file must have been unlinked empty.
  EXPECT_FALSE(ReadTextFile(stall_path).ok());
}

TEST(FlightRecorderTest, WatchdogRequiresArmedRecorder) {
  ASSERT_FALSE(obs::FlightRecorderArmed());
  EXPECT_EQ(obs::StartWatchdog().code(), StatusCode::kFailedPrecondition);
}

TEST(FlightRecorderTest, StallFileAccumulatesMultipleDumps) {
  std::string dir = MakeReportDir("flightrec_multi");
  obs::FlightRecorderOptions options;
  options.report_dir = dir;
  ASSERT_TRUE(obs::ArmFlightRecorder(options).ok());
  std::string stall_path = obs::StallReportPath();
  obs::DumpStallReport("first");
  obs::DumpStallReport("second");
  obs::DisarmFlightRecorder();
  Result<std::string> text = ReadTextFile(stall_path);
  ASSERT_TRUE(text.ok());
  Result<std::vector<obs::FlightReport>> reports = obs::ParseFlightReports(*text);
  ASSERT_TRUE(reports.ok()) << reports.status().message();
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_EQ((*reports)[0].reason, "first");
  EXPECT_EQ((*reports)[1].reason, "second");
  ASSERT_EQ(::unlink(stall_path.c_str()), 0);
}

// `scoded inspect` smoke: renders a real stall dump and fails cleanly on
// garbage input.
TEST(FlightRecorderCliTest, InspectRendersAndRejects) {
  std::string dir = MakeReportDir("flightrec_cli");
  obs::FlightRecorderOptions options;
  options.report_dir = dir;
  ASSERT_TRUE(obs::ArmFlightRecorder(options).ok());
  std::string stall_path = obs::StallReportPath();
  obs::DumpStallReport("inspect smoke");
  obs::DisarmFlightRecorder();
  std::string out_path = dir + "/inspect.out";
  std::string cmd = std::string(SCODED_CLI_BIN) + " inspect '" + stall_path +
                    "' > '" + out_path + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  Result<std::string> rendered = ReadTextFile(out_path);
  ASSERT_TRUE(rendered.ok());
  EXPECT_NE(rendered->find("STALL report"), std::string::npos);
  EXPECT_NE(rendered->find("inspect smoke"), std::string::npos);
  std::string garbage_path = dir + "/garbage.report";
  ASSERT_TRUE(WriteTextFile(garbage_path, "not a flight report\n").ok());
  std::string bad = std::string(SCODED_CLI_BIN) + " inspect '" + garbage_path +
                    "' > /dev/null 2>&1";
  EXPECT_NE(std::system(bad.c_str()), 0);
  ASSERT_EQ(::unlink(stall_path.c_str()), 0);
}

#endif  // SCODED_OBS_DISABLED

}  // namespace
}  // namespace scoded
