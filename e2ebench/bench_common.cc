#include "bench_common.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/string_util.h"
#include "constraints/sc.h"
#include "core/scoded.h"
#include "core/stream_monitor.h"
#include "serve/render.h"

namespace e2ebench {

using scoded::Result;

std::string Flags::Get(const std::string& name, const std::string& fallback) const {
  auto it = values.find(name);
  return it == values.end() ? fallback : it->second.back();
}

const std::vector<std::string>& Flags::All(const std::string& name) const {
  static const std::vector<std::string> kEmpty;
  auto it = values.find(name);
  return it == values.end() ? kEmpty : it->second;
}

int64_t Flags::Int(const std::string& name, int64_t fallback) const {
  if (!Has(name)) {
    return fallback;
  }
  Result<int64_t> value = scoded::ParseCheckedInt(Get(name), 0, INT64_MAX, "--" + name);
  if (!value.ok()) {
    std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
    std::exit(1);
  }
  return *value;
}

bool ParseFlags(int argc, char** argv, int first, Flags* flags) {
  for (int i = first; i < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0 || i + 1 >= argc) {
      return false;
    }
    flags->values[name.substr(2)].push_back(argv[i + 1]);
  }
  return true;
}

namespace {

// splitmix64: the fixtures depend only on this file and the seed, never on
// the program's own random number generator.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi]; the modulo bias is irrelevant at these ranges.
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

}  // namespace

Result<uint64_t> GenerateFixture(const std::string& path, size_t rows, uint64_t seed) {
  static const char* const kModels[] = {"civic", "corolla", "focus", "golf", "a4", "i3"};
  static const char* const kColors[] = {"red", "blue", "white", "black"};
  SplitMix rng(seed);
  std::string out = "Model,Color,Price,Mileage\n";
  out.reserve(rows * 24 + out.size());
  char line[96];
  for (size_t i = 0; i < rows; ++i) {
    int64_t m = rng.Uniform(0, 5);
    // Planted dependence: 40% of rows take the model's own colour.
    int64_t c = rng.Uniform(0, 9) < 4 ? m % 4 : rng.Uniform(0, 3);
    int64_t price = 1000 + m * 250 + rng.Uniform(0, 400);
    int64_t mileage = rng.Uniform(0, 120000);
    int len = std::snprintf(line, sizeof(line), "%s,%s,%lld,%lld\n", kModels[m], kColors[c],
                            static_cast<long long>(price), static_cast<long long>(mileage));
    out.append(line, static_cast<size_t>(len));
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  file.close();
  if (!file) {
    return scoded::InternalError("cannot write fixture '" + path + "'");
  }
  return static_cast<uint64_t>(out.size());
}

Result<std::vector<scoded::ApproximateSc>> ParseScs(const std::vector<std::string>& texts) {
  std::vector<scoded::ApproximateSc> out;
  for (const std::string& text : texts) {
    SCODED_ASSIGN_OR_RETURN(scoded::StatisticalConstraint sc, scoded::ParseConstraint(text));
    out.push_back({std::move(sc), kAlpha});
  }
  return out;
}

Result<std::string> DrillReference(scoded::Table table, const scoded::ApproximateSc& asc,
                                   size_t k) {
  scoded::Scoded system(std::move(table));
  SCODED_ASSIGN_OR_RETURN(scoded::DrillDownResult result, system.DrillDown(asc, k));
  char head[512];
  std::snprintf(head, sizeof(head), "top-%zu suspicious records for %s (statistic %.4g -> %.4g):\n",
                result.rows.size(), asc.sc.ToString().c_str(), result.initial_statistic,
                result.final_statistic);
  std::string text = head;
  for (size_t row : result.rows) {
    text += std::to_string(row) + "\n";
  }
  return text;
}

scoded::Table BatchAt(const scoded::Table& table, size_t start, size_t batch) {
  std::vector<size_t> rows;
  for (size_t i = start; i < std::min(start + batch, table.NumRows()); ++i) {
    rows.push_back(i);
  }
  return table.Gather(rows);
}

Result<std::vector<std::string>> MonitorReference(
    const scoded::Table& table, const std::vector<scoded::ApproximateSc>& constraints,
    size_t batch, bool* violated) {
  SCODED_ASSIGN_OR_RETURN(scoded::StreamMonitor stream,
                          scoded::StreamMonitor::Create(table, constraints));
  std::vector<std::string> out{scoded::serve::MonitorHeaderLine()};
  for (size_t start = 0; start < table.NumRows(); start += batch) {
    SCODED_RETURN_IF_ERROR(stream.Append(BatchAt(table, start, batch)));
    std::string lines;
    for (const scoded::StreamMonitor::ConstraintState& state : stream.States()) {
      lines += scoded::serve::MonitorStateLine(state);
    }
    out.push_back(std::move(lines));
  }
  *violated = stream.AnyViolated();
  return out;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e6; }

}  // namespace e2ebench
