// Tests for the span-aggregation profiler: direct aggregation semantics,
// span-driven self-time attribution, the structured log <-> span-id join
// point, and two end-to-end acceptance checks — the CLI's --profile and a
// bench binary's default-on profile must agree with the corresponding
// trace spans to within 5%.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/fileio.h"
#include "common/json.h"
#include "obs/log.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace scoded {
namespace {

// ------------------------------------------------- direct aggregation

TEST(ProfilerTest, AggregatesByNameEdgeAndStack) {
  obs::Profiler profiler;
  profiler.RecordSpan("child", "root", "root;child", 30, 30);
  profiler.RecordSpan("child", "root", "root;child", 50, 50);
  profiler.RecordSpan("root", "", "root", 100, 20);
  EXPECT_EQ(profiler.NumSpanNames(), 2u);

  Result<JsonValue> parsed = ParseJson(profiler.SnapshotJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 2u);
  // Sorted by self time descending: child (80µs) before root (20µs).
  EXPECT_EQ(spans->array[0].Find("name")->string_value, "child");
  EXPECT_EQ(spans->array[0].Find("count")->number, 2.0);
  EXPECT_EQ(spans->array[0].Find("total_ms")->number, 0.08);
  EXPECT_EQ(spans->array[0].Find("self_ms")->number, 0.08);
  EXPECT_EQ(spans->array[1].Find("name")->string_value, "root");
  EXPECT_EQ(spans->array[1].Find("total_ms")->number, 0.1);
  EXPECT_EQ(spans->array[1].Find("self_ms")->number, 0.02);

  const JsonValue* edges = parsed->Find("edges");
  ASSERT_NE(edges, nullptr);
  ASSERT_EQ(edges->array.size(), 1u);
  EXPECT_EQ(edges->array[0].Find("parent")->string_value, "root");
  EXPECT_EQ(edges->array[0].Find("child")->string_value, "child");
  EXPECT_EQ(edges->array[0].Find("count")->number, 2.0);

  const JsonValue* stacks = parsed->Find("stacks");
  ASSERT_NE(stacks, nullptr);
  ASSERT_EQ(stacks->array.size(), 2u);
  // Collapsed-stack dump: one "path self_us" line per distinct stack.
  std::string collapsed = profiler.CollapsedStacks();
  EXPECT_NE(collapsed.find("root;child 80"), std::string::npos);
  EXPECT_NE(collapsed.find("root 20"), std::string::npos);

  std::string table = profiler.FlatTableText();
  EXPECT_NE(table.find("child"), std::string::npos);
  EXPECT_NE(table.find("root"), std::string::npos);

  profiler.Clear();
  EXPECT_EQ(profiler.NumSpanNames(), 0u);
}

TEST(ProfilerTest, FlatTableHonoursTopN) {
  obs::Profiler profiler;
  profiler.RecordSpan("a", "", "a", 300, 300);
  profiler.RecordSpan("b", "", "b", 200, 200);
  profiler.RecordSpan("c", "", "c", 100, 100);
  std::string table = profiler.FlatTableText(1);
  EXPECT_NE(table.find("a"), std::string::npos);
  EXPECT_EQ(table.find("\nb "), std::string::npos);
  EXPECT_EQ(table.find("\nc "), std::string::npos);
}

TEST(ProfilerTest, EmptyProfilerRendersCleanly) {
  obs::Profiler profiler;
  EXPECT_NE(profiler.FlatTableText().find("no spans recorded"), std::string::npos);
  Result<JsonValue> parsed = ParseJson(profiler.SnapshotJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("spans")->array.empty());
  EXPECT_TRUE(profiler.CollapsedStacks().empty());
}

// ----------------------------------------- span-driven (live) profiling

#if !defined(SCODED_OBS_DISABLED)

void SpinFor(std::chrono::microseconds duration) {
  auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < duration) {
  }
}

TEST(ProfilerTest, ScopedSpansFeedSelfTimeAndEdges) {
  obs::Profiler::Global().Clear();
  obs::EnableProfiler();
  {
    obs::ScopedSpan outer("pt_outer");
    SpinFor(std::chrono::microseconds(2000));
    {
      obs::ScopedSpan inner("pt_inner");
      SpinFor(std::chrono::microseconds(2000));
    }
  }
  obs::DisableProfiler();

  Result<JsonValue> parsed = ParseJson(obs::Profiler::Global().SnapshotJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::map<std::string, const JsonValue*> by_name;
  for (const JsonValue& span : parsed->Find("spans")->array) {
    by_name[span.Find("name")->string_value] = &span;
  }
  ASSERT_TRUE(by_name.count("pt_outer"));
  ASSERT_TRUE(by_name.count("pt_inner"));
  double outer_total = by_name["pt_outer"]->Find("total_ms")->number;
  double outer_self = by_name["pt_outer"]->Find("self_ms")->number;
  double inner_total = by_name["pt_inner"]->Find("total_ms")->number;
  // The outer span contains the inner: total >= inner total, and self =
  // total minus the inner's share (both burned ~2ms of real work).
  EXPECT_GE(outer_total, inner_total);
  EXPECT_NEAR(outer_self, outer_total - inner_total, 0.05);
  EXPECT_GE(outer_self, 1.0);
  EXPECT_GE(inner_total, 1.0);

  bool found_edge = false;
  for (const JsonValue& edge : parsed->Find("edges")->array) {
    if (edge.Find("parent")->string_value == "pt_outer" &&
        edge.Find("child")->string_value == "pt_inner") {
      found_edge = true;
    }
  }
  EXPECT_TRUE(found_edge);
  EXPECT_NE(obs::Profiler::Global().CollapsedStacks().find("pt_outer;pt_inner"),
            std::string::npos);
  obs::Profiler::Global().Clear();
}

TEST(ProfilerTest, SpanIdsVisibleToLoggingInsideSpans) {
  obs::EnableProfiler();
  EXPECT_EQ(obs::CurrentSpanId(), 0u);
  {
    obs::ScopedSpan span("pt_log_span");
    uint64_t id = obs::CurrentSpanId();
    EXPECT_NE(id, 0u);
    std::string record = obs::FormatLogRecord(obs::LogLevel::kInfo, "inside", {},
                                              obs::CurrentSpanId(), 1, obs::CurrentTid());
    EXPECT_NE(record.find("\"span\":" + std::to_string(id)), std::string::npos);
  }
  EXPECT_EQ(obs::CurrentSpanId(), 0u);
  obs::DisableProfiler();
  obs::Profiler::Global().Clear();
}

#endif  // !SCODED_OBS_DISABLED

// ------------------------------------ end-to-end: CLI and bench binaries

#if defined(SCODED_CLI_BIN) && defined(SCODED_FIXTURE_CSV)

// Sums trace-event durations by span name, in ms. (Unused in
// SCODED_OBS_DISABLED builds, where both surfaces are empty.)
[[maybe_unused]] std::map<std::string, double> TraceTotalsMs(const JsonValue& trace) {
  std::map<std::string, double> totals;
  for (const JsonValue& event : trace.array) {
    totals[event.Find("name")->string_value] += event.Find("dur")->number / 1000.0;
  }
  return totals;
}

// Acceptance: profile totals must agree with the trace spans to within 5%
// (both surfaces aggregate the same ScopedSpan durations). A small
// absolute slack covers sub-millisecond spans where 5% is below the
// clock's resolution.
[[maybe_unused]] void ExpectProfileMatchesTrace(const JsonValue& profile,
                                                const JsonValue& trace) {
  std::map<std::string, double> trace_ms = TraceTotalsMs(trace);
  const JsonValue* spans = profile.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_FALSE(spans->array.empty());
  for (const JsonValue& span : spans->array) {
    const std::string& name = span.Find("name")->string_value;
    ASSERT_TRUE(trace_ms.count(name)) << "span " << name << " missing from trace";
    double profile_total = span.Find("total_ms")->number;
    double trace_total = trace_ms[name];
    double tolerance = std::max(0.05 * trace_total, 0.05);
    EXPECT_NEAR(profile_total, trace_total, tolerance) << "span " << name;
  }
}

TEST(ProfilerEndToEndTest, CliProfileAgreesWithTrace) {
  std::string dir = ::testing::TempDir();
  std::string profile_path = dir + "/scoded_profile.json";
  std::string trace_path = dir + "/scoded_profile_trace.json";
  std::string command = std::string(SCODED_CLI_BIN) + " check --csv " + SCODED_FIXTURE_CSV +
                        " --sc \"Model _||_ Color\" --alpha 0.05 --profile " + profile_path +
                        " --trace-out " + trace_path + " > /dev/null 2>&1";
  int rc = std::system(command.c_str());
  ASSERT_EQ(rc, 0) << "command failed: " << command;

  Result<std::string> profile_text = ReadTextFile(profile_path);
  ASSERT_TRUE(profile_text.ok()) << profile_text.status().ToString();
  Result<JsonValue> profile = ParseJson(*profile_text);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  Result<std::string> trace_text = ReadTextFile(trace_path);
  ASSERT_TRUE(trace_text.ok()) << trace_text.status().ToString();
  Result<JsonValue> trace = ParseJson(*trace_text);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

#if defined(SCODED_OBS_DISABLED)
  // Spans are compiled out: both surfaces must still emit valid, empty JSON.
  EXPECT_TRUE(profile->Find("spans")->array.empty());
  EXPECT_TRUE(trace->array.empty());
#else
  ExpectProfileMatchesTrace(*profile, *trace);
  // The whole-run span must be present and carry nonzero time.
  bool found_main = false;
  for (const JsonValue& span : profile->Find("spans")->array) {
    if (span.Find("name")->string_value == "cli/main") {
      found_main = true;
      EXPECT_GT(span.Find("total_ms")->number, 0.0);
    }
  }
  EXPECT_TRUE(found_main);
#endif
  std::remove(profile_path.c_str());
  std::remove(trace_path.c_str());
}

#if !defined(SCODED_OBS_DISABLED)
// Ingest has a span of its own, so a check's profile does not report CSV
// parsing as cli/main self time.
TEST(ProfilerEndToEndTest, CliProfileAttributesIngestToReadFile) {
  std::string profile_path = ::testing::TempDir() + "/scoded_profile_ingest.json";
  // --shard-rows 0 keeps the in-memory path under a SCODED_SHARD_ROWS run.
  std::string command = std::string(SCODED_CLI_BIN) + " check --csv " + SCODED_FIXTURE_CSV +
                        " --sc \"Model _||_ Color\" --alpha 0.05 --shard-rows 0 --profile " +
                        profile_path + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << "command failed: " << command;
  Result<std::string> text = ReadTextFile(profile_path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  Result<JsonValue> profile = ParseJson(*text);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  bool found_edge = false;
  for (const JsonValue& edge : profile->Find("edges")->array) {
    if (edge.Find("parent")->string_value == "cli/main" &&
        edge.Find("child")->string_value == "table/read_file") {
      found_edge = true;
      EXPECT_EQ(edge.Find("count")->number, 1.0);
    }
  }
  EXPECT_TRUE(found_edge) << *text;
  std::remove(profile_path.c_str());
}
#endif

TEST(ProfilerEndToEndTest, CliProfileCreatesMissingParentDirectories) {
  std::string dir = ::testing::TempDir() + "/scoded_prof_nested/deeper";
  std::string profile_path = dir + "/profile.json";
  std::string command = std::string(SCODED_CLI_BIN) + " check --csv " + SCODED_FIXTURE_CSV +
                        " --sc \"Model _||_ Color\" --alpha 0.05 --profile " + profile_path +
                        " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  Result<std::string> text = ReadTextFile(profile_path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_TRUE(ParseJson(*text).ok());
  std::remove(profile_path.c_str());
}

#endif  // SCODED_CLI_BIN && SCODED_FIXTURE_CSV

#if defined(SCODED_BENCH_FIG14_BIN)

TEST(ProfilerEndToEndTest, Fig14BenchProfileAgreesWithTrace) {
  std::string dir = ::testing::TempDir() + "/scoded_fig14_bench";
  std::string command = "mkdir -p " + dir + " && cd " + dir +
                        " && SCODED_BENCH_TRACE=fig14_trace.json " + SCODED_BENCH_FIG14_BIN +
                        " > /dev/null 2>&1";
  int rc = std::system(command.c_str());
  ASSERT_EQ(rc, 0) << "command failed: " << command;

  Result<std::string> bench_text = ReadTextFile(dir + "/BENCH_fig14_scalability.json");
  ASSERT_TRUE(bench_text.ok()) << bench_text.status().ToString();
  Result<JsonValue> bench = ParseJson(*bench_text);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  // Build attribution rides along in every bench artefact.
  const JsonValue* build = bench->Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->Find("git_describe")->string_value.empty());

  Result<std::string> trace_text = ReadTextFile(dir + "/fig14_trace.json");
  ASSERT_TRUE(trace_text.ok()) << trace_text.status().ToString();
  Result<JsonValue> trace = ParseJson(*trace_text);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

#if defined(SCODED_OBS_DISABLED)
  EXPECT_TRUE(trace->array.empty());
#else
  const JsonValue* profile = bench->Find("profile");
  ASSERT_NE(profile, nullptr) << "bench artefact lacks the default-on profile section";
  ExpectProfileMatchesTrace(*profile, *trace);
#endif
}

#endif  // SCODED_BENCH_FIG14_BIN

}  // namespace
}  // namespace scoded
