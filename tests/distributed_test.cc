// Coordinator/worker distributed checking: report parity with the
// single-process sharded checker at any worker count and transport, and
// the fault matrix — workers that die mid-summary, return torn frames,
// or stall past the deadline are retried against survivors to a
// byte-identical report; runs with no survivors fail Unavailable (never
// hang, never fold a partial result); well-formed worker error envelopes
// abort with the worker's own status.

#include "distributed/coordinator.h"

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "core/sharded_check.h"
#include "distributed/substrate.h"
#include "obs/trace.h"
#include "table/csv.h"

namespace scoded {
namespace {

// Renders the decision-relevant surface of a report the way `scoded check`
// prints it, so "identical reports" means the string a user would see.
std::string FormatReport(const ApproximateSc& asc, const ViolationReport& report) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s: %s (p = %.17g, statistic = %.17g, method = %s, n = %lld)",
                asc.sc.ToString().c_str(), report.violated ? "VIOLATED" : "holds", report.p_value,
                report.test.statistic, std::string(TestMethodToString(report.test.method)).c_str(),
                static_cast<long long>(report.test.n));
  std::string out = line;
  for (const ComponentResult& part : report.components) {
    std::snprintf(line, sizeof(line), " | %s p=%.17g stat=%.17g dof=%lld n=%lld exact=%d",
                  part.component.ToString().c_str(), part.test.p_value, part.test.statistic,
                  static_cast<long long>(part.test.dof), static_cast<long long>(part.test.n),
                  part.test.used_exact ? 1 : 0);
    out += line;
  }
  return out;
}

// Wraps a real channel and injects one class of fault into the first
// `faults` summarize responses, after which it behaves perfectly — the
// shape of a worker that died or wedged partway through the run.
class FaultChannel : public dist::WorkerChannel {
 public:
  enum class Mode {
    kDie,       // response lost, connection reads as closed (kUnavailable)
    kTear,      // frame torn mid-payload (kDataLoss at the framing layer)
    kTruncate,  // frame delivered but the JSON payload is cut short
    kStall,     // no bytes until the deadline expires (kDeadlineExceeded)
    kBadOp,     // request corrupted; the worker answers an error envelope
  };

  FaultChannel(std::unique_ptr<dist::WorkerChannel> inner, Mode mode, int faults)
      : inner_(std::move(inner)), mode_(mode), faults_left_(faults) {}

  Status Send(std::string_view payload) override {
    if (mode_ == Mode::kBadOp && faults_left_ > 0 &&
        payload.find("summarize") != std::string_view::npos) {
      --faults_left_;
      return inner_->Send("{\"op\":\"frobnicate\"}");
    }
    return inner_->Send(payload);
  }

  Result<std::string> Receive(int deadline_millis) override {
    Result<std::string> payload = inner_->Receive(deadline_millis);
    if (faults_left_ <= 0 || !payload.ok() ||
        payload->find("summaries") == std::string::npos) {
      return payload;
    }
    --faults_left_;
    switch (mode_) {
      case Mode::kDie:
        return UnavailableError("injected: worker process died");
      case Mode::kTear:
        return DataLossError("injected: connection torn mid-frame");
      case Mode::kTruncate:
        return payload->substr(0, payload->size() / 2);
      case Mode::kStall:
        return DeadlineExceededError("injected: worker produced no bytes");
      case Mode::kBadOp:
        break;
    }
    return payload;
  }

  void Kill() override { inner_->Kill(); }
  int64_t pid() const override { return inner_->pid(); }

 private:
  std::unique_ptr<dist::WorkerChannel> inner_;
  Mode mode_;
  int faults_left_;
};

// In-process fleet where the listed worker indices are faulty.
class FaultSubstrate : public dist::Substrate {
 public:
  FaultSubstrate(FaultChannel::Mode mode, std::vector<size_t> faulty_workers, int faults = 1)
      : mode_(mode), faulty_(std::move(faulty_workers)), faults_(faults) {}

  Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
    SCODED_ASSIGN_OR_RETURN(std::unique_ptr<dist::WorkerChannel> channel,
                            inner_.Spawn(worker_index));
    for (size_t w : faulty_) {
      if (w == worker_index) {
        return std::unique_ptr<dist::WorkerChannel>(
            new FaultChannel(std::move(channel), mode_, faults_));
      }
    }
    return channel;
  }

 private:
  dist::InProcessSubstrate inner_;
  FaultChannel::Mode mode_;
  std::vector<size_t> faulty_;
  int faults_;
};

class DistributedCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/distributed_check_test.csv";
    WriteFixture();
    constraints_.push_back({MustParse("Model _||_ Color"), 0.05});
    constraints_.push_back({MustParse("Model !_||_ Price"), 0.3});
    constraints_.push_back({MustParse("Price _||_ Mileage | Model"), 0.05});
  }

  void WriteFixture() {
    Rng rng(97);
    std::ofstream out(path_);
    ASSERT_TRUE(out.good());
    out << "Model,Color,Price,Mileage\n";
    const char* models[] = {"civic", "corolla", "focus", "golf", "a4"};
    const char* colors[] = {"red", "blue", "white", "black"};
    for (int i = 0; i < 900; ++i) {
      int64_t m = rng.UniformInt(0, 4);
      int64_t c = rng.UniformInt(0, 9) < 4 ? m % 4 : rng.UniformInt(0, 3);
      if (rng.UniformInt(0, 49) == 0) {
        out << "";  // ~2% nulls keep the null-cell wire path honest
      } else {
        out << models[m];
      }
      out << ',' << colors[c] << ',';
      if (rng.UniformInt(0, 49) == 1) {
        out << "";
      } else {
        out << (1000 + m * 250 + rng.UniformInt(0, 400));
      }
      out << ',' << rng.UniformInt(0, 120000) << '\n';
    }
  }

  void TearDown() override { std::remove(path_.c_str()); }

  static StatisticalConstraint MustParse(const std::string& text) {
    Result<StatisticalConstraint> sc = ParseConstraint(text);
    EXPECT_TRUE(sc.ok()) << sc.status().message();
    return std::move(sc).value();
  }

  ShardedCheckOptions BaseOptions() const {
    ShardedCheckOptions options;
    options.reader.shard_rows = 64;
    return options;
  }

  std::vector<std::string> Lines(const ShardedCheckResult& result) const {
    std::vector<std::string> lines;
    for (size_t i = 0; i < result.reports.size(); ++i) {
      lines.push_back(FormatReport(constraints_[i], result.reports[i]));
    }
    return lines;
  }

  std::vector<std::string> SingleProcessLines() {
    Result<ShardedCheckResult> result = ShardedCheckAll(path_, constraints_, BaseOptions());
    EXPECT_TRUE(result.ok()) << result.status().message();
    return Lines(*result);
  }

  std::string path_;
  std::vector<ApproximateSc> constraints_;
};

TEST_F(DistributedCheckTest, MatchesSingleProcessAtAnyWorkerCount) {
  std::vector<std::string> expected = SingleProcessLines();
  for (int workers : {1, 2, 4}) {
    dist::InProcessSubstrate substrate;
    dist::DistributedCheckOptions options;
    options.base = BaseOptions();
    options.workers = workers;
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path_, constraints_, substrate, options);
    ASSERT_TRUE(result.ok()) << "workers=" << workers << ": " << result.status().message();
    EXPECT_EQ(result->rows, uint64_t{900});
    EXPECT_EQ(result->shards, size_t{(900 + 63) / 64});
    EXPECT_EQ(Lines(*result), expected) << "workers=" << workers;
  }
}

TEST_F(DistributedCheckTest, MoreWorkersThanTasksStillFolds) {
  std::vector<std::string> expected = SingleProcessLines();
  dist::InProcessSubstrate substrate;
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.base.reader.shard_rows = 900;  // one shard, one task
  options.workers = 4;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // Different shard size, same data: decisions and p-values agree with the
  // 64-row sharding because summaries are exact.
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, RetriesWorkerDeathToIdenticalReport) {
  std::vector<std::string> expected = SingleProcessLines();
  for (FaultChannel::Mode mode : {FaultChannel::Mode::kDie, FaultChannel::Mode::kTear,
                                  FaultChannel::Mode::kTruncate}) {
    FaultSubstrate substrate(mode, {0});
    dist::DistributedCheckOptions options;
    options.base = BaseOptions();
    options.workers = 2;
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path_, constraints_, substrate, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->rows, uint64_t{900});
    EXPECT_EQ(Lines(*result), expected) << "mode=" << static_cast<int>(mode);
  }
}

TEST_F(DistributedCheckTest, RetriesStalledWorkerToIdenticalReport) {
  std::vector<std::string> expected = SingleProcessLines();
  FaultSubstrate substrate(FaultChannel::Mode::kStall, {0});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  options.deadline_millis = 30000;  // the stall is injected, not timed
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, AllWorkersLostFailsUnavailableWithoutHanging) {
  // Every worker dies on its first summarize and the fleet never recovers:
  // the coordinator must give up with kUnavailable, not hang or return a
  // partial fold.
  FaultSubstrate substrate(FaultChannel::Mode::kDie, {0, 1, 2}, /*faults=*/1000);
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 3;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable) << result.status().ToString();
}

TEST_F(DistributedCheckTest, WorkerErrorEnvelopeAbortsWithItsStatus) {
  // A well-formed error envelope is the worker correctly reporting a
  // problem no retry can cure; the run aborts with the decoded status
  // instead of burning through the fleet.
  FaultSubstrate substrate(FaultChannel::Mode::kBadOp, {0, 1});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << result.status().ToString();
  EXPECT_NE(result.status().message().find("worker:"), std::string::npos)
      << result.status().ToString();
}

TEST_F(DistributedCheckTest, ZeroWorkersIsAUsageError) {
  dist::InProcessSubstrate substrate;
  dist::DistributedCheckOptions options;
  options.workers = 0;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DistributedCheckTest, MissingFileFailsBeforeSpawningWorkers) {
  // Substrate that refuses to spawn: proves the coordinator validates the
  // input before raising a fleet.
  class NoSpawn : public dist::Substrate {
   public:
    Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t) override {
      ADD_FAILURE() << "coordinator spawned a worker for a missing file";
      return InternalError("unreachable");
    }
  };
  NoSpawn substrate;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_ + ".nope", constraints_, substrate, {});
  EXPECT_FALSE(result.ok());
}

// Rewrites the input file once, as the first worker is spawned: after the
// coordinator's first pass located every window, before any is read.
class RewriteSubstrate : public dist::Substrate {
 public:
  RewriteSubstrate(std::string path, std::function<void(std::string&)> edit)
      : path_(std::move(path)), edit_(std::move(edit)) {}

  Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
    if (worker_index == 0) {
      std::string text;
      {
        std::ifstream in(path_, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
      }
      edit_(text);
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out << text;
    }
    return inner_.Spawn(worker_index);
  }

 private:
  std::string path_;
  std::function<void(std::string&)> edit_;
  dist::InProcessSubstrate inner_;
};

TEST_F(DistributedCheckTest, FileChangedAfterFirstPassIsDataLoss) {
  const std::pair<const char*, std::function<void(std::string&)>> kEdits[] = {
      {"truncate", [](std::string& text) { text.resize(text.size() * 3 / 5); }},
      {"append",
       [](std::string& text) {
         for (int i = 0; i < 10; ++i) {
           text += "civic,red,1200,5000\n";
         }
       }},
      // Same length, inside one window: the first non-empty Price after
      // line 500 loses its digits, so every byte and row total still holds.
      {"numeric cell to text",
       [](std::string& text) {
         size_t line = 0;
         size_t pos = 0;
         while (true) {
           size_t end = text.find('\n', pos);
           size_t price = text.find(',', text.find(',', pos) + 1) + 1;
           if (++line > 500 && text[price] != ',') {
             for (size_t i = price; text[i] != ','; ++i) {
               text[i] = 'x';
             }
             return;
           }
           pos = end + 1;
         }
       }},
  };
  for (const auto& [name, edit] : kEdits) {
    WriteFixture();  // a fresh copy for each edit
    RewriteSubstrate substrate(path_, edit);
    dist::DistributedCheckOptions options;
    options.base = BaseOptions();
    options.workers = 2;
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path_, constraints_, substrate, options);
    ASSERT_FALSE(result.ok()) << name << ": the run gave a report";
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << name << ": " << result.status().ToString();
    EXPECT_NE(result.status().message().find("changed between passes"), std::string::npos)
        << name << ": " << result.status().ToString();
  }
}

#if !defined(SCODED_OBS_DISABLED)
// The worker's layers show in a trace of an in-process run: the window
// read, the per-shard pre-aggregation, and the task span with its window
// size.
TEST_F(DistributedCheckTest, InProcessTraceShowsWindowReadAndPreAggregation) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  dist::InProcessSubstrate substrate;
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  tracer.Disable();
  ASSERT_TRUE(result.ok()) << result.status().message();
  Result<JsonValue> trace = ParseJson(tracer.ToJson());
  tracer.Clear();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  std::map<std::string, int> spans;
  bool window_bytes = false;
  for (const JsonValue& event : trace->array) {
    const std::string& name = event.Find("name")->string_value;
    ++spans[name];
    const JsonValue* args = event.Find("args");
    if (name == "dist/worker_summarize" && args != nullptr && args->Find("window_bytes") &&
        args->Find("rows")) {
      window_bytes = true;
    }
  }
  // One read per shard, plus the one per task that verifies the window end.
  EXPECT_EQ(spans["dist/window_read"],
            static_cast<int>(result->shards) + spans["dist/worker_summarize"]);
  EXPECT_GT(spans["stats/shard_preaggregate"], 0);
  EXPECT_TRUE(window_bytes);
}
#endif  // SCODED_OBS_DISABLED

// ---------------------------------------------------------------------------
// Real child processes: the fork/exec substrate against the installed-style
// binary, including a SIGKILL mid-run.
// ---------------------------------------------------------------------------

#ifdef SCODED_CLI_BIN

// Fork/exec substrate that SIGKILLs the chosen worker the moment it is
// spawned — by the time its first summarize lands, the process is gone and
// the coordinator sees the connection die mid-conversation.
class KillOnSpawnSubstrate : public dist::Substrate {
 public:
  explicit KillOnSpawnSubstrate(size_t victim)
      : inner_(SCODED_CLI_BIN, {"worker"}), victim_(victim) {}

  Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
    SCODED_ASSIGN_OR_RETURN(std::unique_ptr<dist::WorkerChannel> channel,
                            inner_.Spawn(worker_index));
    if (worker_index == victim_ && channel->pid() > 0) {
      ::kill(static_cast<pid_t>(channel->pid()), SIGKILL);
    }
    return channel;
  }

 private:
  dist::ForkExecSubstrate inner_;
  size_t victim_;
};

TEST_F(DistributedCheckTest, ForkWorkersMatchSingleProcess) {
  std::vector<std::string> expected = SingleProcessLines();
  dist::ForkExecSubstrate substrate(SCODED_CLI_BIN, {"worker"});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, TcpWorkersMatchSingleProcess) {
  std::vector<std::string> expected = SingleProcessLines();
  dist::TcpSubstrate substrate(SCODED_CLI_BIN, {"worker"});
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(Lines(*result), expected);
}

TEST_F(DistributedCheckTest, SigkilledForkWorkerIsRetriedOnSurvivor) {
  std::vector<std::string> expected = SingleProcessLines();
  KillOnSpawnSubstrate substrate(/*victim=*/0);
  dist::DistributedCheckOptions options;
  options.base = BaseOptions();
  options.workers = 2;
  Result<ShardedCheckResult> result =
      dist::DistributedCheckAll(path_, constraints_, substrate, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->rows, uint64_t{900});
  EXPECT_EQ(Lines(*result), expected);
}

#endif  // SCODED_CLI_BIN

}  // namespace
}  // namespace scoded
