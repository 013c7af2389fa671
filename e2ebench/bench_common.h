// Shared pieces of the end-to-end benchmark's helper programs: a tiny flag
// parser, the seeded fixture generator, and the in-process renderings the
// benchmark compares the real binary's output against.
#ifndef SCODED_E2EBENCH_BENCH_COMMON_H_
#define SCODED_E2EBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/approximate_sc.h"
#include "table/table.h"

namespace e2ebench {

/// The significance level of every constraint the benchmark checks: the
/// CLI's default `--alpha`, which the timed commands run with.
constexpr double kAlpha = 0.05;

/// `--name value` pairs; repeated flags keep every value in order.
struct Flags {
  std::map<std::string, std::vector<std::string>> values;

  bool Has(const std::string& name) const { return values.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& fallback = "") const;
  const std::vector<std::string>& All(const std::string& name) const;
  /// The flag as a non-negative integer, or `fallback` when it is absent.
  /// A malformed value is a usage error: the program exits with code 1.
  int64_t Int(const std::string& name, int64_t fallback) const;
};

/// Parses argv[first..] as `--name value` pairs; false on a malformed list.
bool ParseFlags(int argc, char** argv, int first, Flags* flags);

/// Writes the seeded Model/Color/Price/Mileage fixture (the shape of the
/// bench_sharded_check generator) and returns its size in bytes. Color
/// depends on Model, Price depends on Model only, Mileage is independent
/// of everything. The same (rows, seed) always gives the same bytes.
scoded::Result<uint64_t> GenerateFixture(const std::string& path, size_t rows, uint64_t seed);

/// Parses `texts` into approximate SCs at kAlpha.
scoded::Result<std::vector<scoded::ApproximateSc>> ParseScs(const std::vector<std::string>& texts);

/// The `scoded drill` report for `table`, rendered exactly as the CLI
/// prints it, computed with Scoded::DrillDown.
scoded::Result<std::string> DrillReference(scoded::Table table, const scoded::ApproximateSc& asc,
                                           size_t k);

/// The `scoded monitor` output for `table` streamed in batches of `batch`
/// rows, from an in-process StreamMonitor: element 0 is the header line,
/// element i (i >= 1) holds the state lines printed after batch i.
/// `*violated` receives AnyViolated() at the end.
scoded::Result<std::vector<std::string>> MonitorReference(
    const scoded::Table& table, const std::vector<scoded::ApproximateSc>& constraints,
    size_t batch, bool* violated);

/// Rows [start, min(start + batch, n)) of `table`.
scoded::Table BatchAt(const scoded::Table& table, size_t start, size_t batch);

/// Milliseconds elapsed since `start_ns` on the monotonic clock.
double MsSince(int64_t start_ns);
int64_t NowNs();

}  // namespace e2ebench

#endif  // SCODED_E2EBENCH_BENCH_COMMON_H_
