#include "stats/shard_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "stats/colcodec.h"
#include "stats/ranks.h"
#include "stats/simd.h"
#include "stats/stratified.h"

namespace scoded {

namespace {

// Same key convention as EncodeCellKey (table/group_by.cc): the double's
// bit pattern with -0.0 normalised to +0.0. The normalisation also keeps
// the value space disjoint from kNullCell (INT64_MIN is the -0.0 pattern).
int64_t CanonicalBits(double value) {
  if (value == 0.0) {
    value = 0.0;
  }
  int64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleOfBits(int64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The distinct cells of one shard, each with its first row and row count,
// in first-appearance order. The index is open addressing with linear
// probing, at most half full; a slot holds a cell number and the low 32
// bits of its key's hash. Keys are not stored: a probe that meets an equal
// hash asks the caller whether the row's key equals the key at the cell's
// first row, which the caller reads back from the shard's columns.
class CellTally {
 public:
  struct Cell {
    uint32_t first_row;
    uint32_t count;
  };

  /// Sized for `expected` cells without growing.
  explicit CellTally(size_t expected) {
    size_t slots = 16;
    while (slots < 2 * expected) {
      slots *= 2;
    }
    slots_.resize(slots);
    cells_.reserve(expected);
  }

  template <typename SameKey>
  void Add(uint64_t hash, uint32_t row, SameKey&& same_key) {
    if (2 * (cells_.size() + 1) > slots_.size()) {
      Grow();
    }
    const uint32_t tag = static_cast<uint32_t>(hash);
    for (size_t i = tag & (slots_.size() - 1);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.cell == kEmpty) {
        slot = {static_cast<uint32_t>(cells_.size()), tag};
        cells_.push_back({row, 1});
        return;
      }
      if (slot.tag == tag && same_key(cells_[slot.cell].first_row)) {
        ++cells_[slot.cell].count;
        return;
      }
    }
  }

  const std::vector<Cell>& cells() const { return cells_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint32_t cell = kEmpty;
    uint32_t tag = 0;
  };

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.cell == kEmpty) {
        continue;
      }
      size_t i = slot.tag & (slots_.size() - 1);
      while (slots_[i].cell != kEmpty) {
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<Cell> cells_;
};

}  // namespace

PairwiseShardSummary::PairwiseShardSummary(const Table& schema, Spec spec)
    : spec_(std::move(spec)) {
  SCODED_CHECK(spec_.x_col >= 0 && static_cast<size_t>(spec_.x_col) < schema.NumColumns());
  SCODED_CHECK(spec_.y_col >= 0 && static_cast<size_t>(spec_.y_col) < schema.NumColumns());
  SCODED_CHECK(spec_.x_col != spec_.y_col);
  for (int z : spec_.z_cols) {
    SCODED_CHECK(z >= 0 && static_cast<size_t>(z) < schema.NumColumns());
    SCODED_CHECK(z != spec_.x_col && z != spec_.y_col);
  }
  role_cols_ = spec_.z_cols;
  role_cols_.push_back(spec_.x_col);
  role_cols_.push_back(spec_.y_col);
  role_types_.reserve(role_cols_.size());
  for (int col : role_cols_) {
    role_types_.push_back(schema.column(static_cast<size_t>(col)).type());
  }
  dicts_.resize(role_cols_.size());
  valid_ = true;
}

int32_t PairwiseShardSummary::Intern(Dict& dict, const std::string& value) {
  auto [it, inserted] = dict.index.emplace(value, static_cast<int32_t>(dict.values.size()));
  if (inserted) {
    dict.values.push_back(value);
  }
  return it->second;
}

void PairwiseShardSummary::Accumulate(const Table& shard, uint64_t row_offset) {
  SCODED_CHECK(valid_);
  size_t num_roles = role_cols_.size();
  std::vector<const Column*> cols(num_roles);
  // Translate each shard-local dictionary into this summary's ids. The
  // shard dictionary lists values in first appearance order within the
  // shard, so interning it in order — shard after shard — reproduces the
  // whole-file first-appearance dictionary.
  std::vector<std::vector<int32_t>> translate(num_roles);
  for (size_t r = 0; r < num_roles; ++r) {
    cols[r] = &shard.column(static_cast<size_t>(role_cols_[r]));
    SCODED_CHECK(cols[r]->type() == role_types_[r]);
    if (role_types_[r] == ColumnType::kCategorical) {
      const std::vector<std::string>& dict = cols[r]->dictionary();
      translate[r].reserve(dict.size());
      for (const std::string& value : dict) {
        translate[r].push_back(Intern(dicts_[r], value));
      }
    }
  }
  size_t num_rows = shard.NumRows();
  // Dense kernel fast path for the unconditional categorical×categorical
  // shape: map nulls onto one extra bucket per role, accumulate the whole
  // shard through the dispatched contingency_first kernel, and fold the
  // dense grid into the cell map. Behaviour matches the row loop exactly —
  // the kernel records each cell's first row within the shard, which is
  // what try_emplace in row order would have kept. The grid is bounded
  // both absolutely and relative to the shard so tiny shards over large
  // accumulated dictionaries never pay an O(cells) sweep.
  constexpr size_t kDenseCellCap = size_t{1} << 18;
  if (num_roles == 2 && role_types_[0] == ColumnType::kCategorical &&
      role_types_[1] == ColumnType::kCategorical && num_rows > 0 && num_rows < UINT32_MAX) {
    const size_t nx = dicts_[0].values.size();
    const size_t nyv = dicts_[1].values.size();
    const size_t cells = (nx + 1) * (nyv + 1);
    if (cells <= kDenseCellCap && cells <= 4 * num_rows + 64) {
      const Column& cx = *cols[0];
      const Column& cy = *cols[1];
      std::vector<int32_t> x_codes(num_rows);
      std::vector<int32_t> y_codes(num_rows);
      for (size_t row = 0; row < num_rows; ++row) {
        x_codes[row] = cx.IsNull(row) ? static_cast<int32_t>(nx)
                                      : translate[0][static_cast<size_t>(cx.CodeAt(row))];
        y_codes[row] = cy.IsNull(row) ? static_cast<int32_t>(nyv)
                                      : translate[1][static_cast<size_t>(cy.CodeAt(row))];
      }
      CompressedCodes packed_x = CompressedCodes::Encode(x_codes, nx + 1);
      CompressedCodes packed_y = CompressedCodes::Encode(y_codes, nyv + 1);
      std::vector<int64_t> counts(cells, 0);
      std::vector<uint32_t> first(cells, UINT32_MAX);
      simd::Active().contingency_first(packed_x, packed_y, counts.data(), first.data());
      std::vector<int64_t> key(2);
      for (size_t xi = 0; xi <= nx; ++xi) {
        for (size_t yi = 0; yi <= nyv; ++yi) {
          size_t cell = xi * (nyv + 1) + yi;
          if (counts[cell] == 0) {
            continue;
          }
          key[0] = xi == nx ? kNullCell : static_cast<int64_t>(xi);
          key[1] = yi == nyv ? kNullCell : static_cast<int64_t>(yi);
          auto [it, inserted] = cells_.try_emplace(key);
          if (inserted) {
            it->second.first_row = row_offset + first[cell];
          }
          it->second.count += counts[cell];
        }
      }
      rows_ += static_cast<int64_t>(num_rows);
      return;
    }
  }
  // General path: pre-aggregate the shard's rows into its distinct cells,
  // then fold each cell into the ordered map once, with its count and
  // first row — what one map insert per row would have kept, at one map
  // operation per distinct cell. A shard holds fewer than 2^32 rows.
  obs::ScopedSpan span("stats/shard_preaggregate");
  SCODED_CHECK(num_rows < UINT32_MAX);
  std::vector<const int32_t*> codes(num_roles);
  std::vector<const double*> values(num_roles);
  for (size_t r = 0; r < num_roles; ++r) {
    if (role_types_[r] == ColumnType::kCategorical) {
      codes[r] = cols[r]->codes().data();
    } else {
      values[r] = cols[r]->numeric_values().data();
    }
  }
  auto key_at = [&](size_t r, size_t row) -> int64_t {
    if (codes[r] != nullptr) {
      int32_t code = codes[r][row];
      return code < 0 ? kNullCell : translate[r][static_cast<size_t>(code)];
    }
    return cols[r]->IsNull(row) ? kNullCell : CanonicalBits(values[r][row]);
  };
  std::vector<int64_t> key(num_roles);
  CellTally tally(std::min<size_t>(num_rows, 4096));
  for (size_t row = 0; row < num_rows; ++row) {
    uint64_t hash = num_roles;
    for (size_t r = 0; r < num_roles; ++r) {
      key[r] = key_at(r, row);
      hash = Mix(hash ^ static_cast<uint64_t>(key[r]));
    }
    tally.Add(hash, static_cast<uint32_t>(row), [&](uint32_t first_row) {
      for (size_t r = 0; r < num_roles; ++r) {
        if (key_at(r, first_row) != key[r]) {
          return false;
        }
      }
      return true;
    });
  }
  for (const CellTally::Cell& cell : tally.cells()) {
    for (size_t r = 0; r < num_roles; ++r) {
      key[r] = key_at(r, cell.first_row);
    }
    auto [it, inserted] = cells_.try_emplace(key);
    if (inserted) {
      it->second.first_row = row_offset + cell.first_row;
    }
    it->second.count += cell.count;
  }
  if (span.active()) {
    span.Arg("rows", static_cast<int64_t>(num_rows))
        .Arg("cells", static_cast<int64_t>(tally.cells().size()));
  }
  rows_ += static_cast<int64_t>(num_rows);
}

PairwiseShardSummary PairwiseShardSummary::FromShard(const Table& shard, Spec spec,
                                                     uint64_t row_offset) {
  PairwiseShardSummary summary(shard, std::move(spec));
  summary.Accumulate(shard, row_offset);
  return summary;
}

void PairwiseShardSummary::Merge(const PairwiseShardSummary& other) {
  SCODED_CHECK(valid_ && other.valid_);
  SCODED_CHECK(role_cols_ == other.role_cols_);
  size_t num_roles = role_cols_.size();
  std::vector<std::vector<int32_t>> translate(num_roles);
  for (size_t r = 0; r < num_roles; ++r) {
    if (role_types_[r] == ColumnType::kCategorical) {
      translate[r].reserve(other.dicts_[r].values.size());
      for (const std::string& value : other.dicts_[r].values) {
        translate[r].push_back(Intern(dicts_[r], value));
      }
    }
  }
  std::vector<int64_t> key(num_roles);
  for (const auto& [other_key, entry] : other.cells_) {
    for (size_t r = 0; r < num_roles; ++r) {
      int64_t k = other_key[r];
      if (k != kNullCell && role_types_[r] == ColumnType::kCategorical) {
        k = translate[r][static_cast<size_t>(k)];
      }
      key[r] = k;
    }
    auto [it, inserted] = cells_.try_emplace(key);
    if (inserted) {
      it->second.first_row = entry.first_row;
    } else {
      it->second.first_row = std::min(it->second.first_row, entry.first_row);
    }
    it->second.count += entry.count;
  }
  rows_ += other.rows_;
}

PairwiseShardSummary::Snapshot PairwiseShardSummary::ToSnapshot() const {
  SCODED_CHECK(valid_);
  Snapshot snapshot;
  snapshot.spec = spec_;
  snapshot.role_types = role_types_;
  snapshot.dicts.reserve(dicts_.size());
  for (const Dict& dict : dicts_) {
    snapshot.dicts.push_back(dict.values);
  }
  snapshot.keys.reserve(cells_.size() * role_cols_.size());
  snapshot.counts.reserve(cells_.size());
  snapshot.first_rows.reserve(cells_.size());
  for (const auto& [key, entry] : cells_) {
    snapshot.keys.insert(snapshot.keys.end(), key.begin(), key.end());
    snapshot.counts.push_back(entry.count);
    snapshot.first_rows.push_back(entry.first_row);
  }
  snapshot.rows = rows_;
  return snapshot;
}

Result<PairwiseShardSummary> PairwiseShardSummary::FromSnapshot(const Table& schema,
                                                                const Snapshot& snapshot) {
  const Spec& spec = snapshot.spec;
  auto column_ok = [&](int col) {
    return col >= 0 && static_cast<size_t>(col) < schema.NumColumns();
  };
  if (!column_ok(spec.x_col) || !column_ok(spec.y_col) || spec.x_col == spec.y_col) {
    return InvalidArgumentError("snapshot spec has invalid x/y columns");
  }
  for (int z : spec.z_cols) {
    if (!column_ok(z) || z == spec.x_col || z == spec.y_col) {
      return InvalidArgumentError("snapshot spec has invalid conditioning columns");
    }
  }
  PairwiseShardSummary summary(schema, spec);
  const size_t num_roles = summary.role_cols_.size();
  if (snapshot.role_types != summary.role_types_) {
    return InvalidArgumentError("snapshot role types do not match the schema");
  }
  if (snapshot.dicts.size() != num_roles) {
    return InvalidArgumentError("snapshot has " + std::to_string(snapshot.dicts.size()) +
                                " dictionaries, expected " + std::to_string(num_roles));
  }
  for (size_t r = 0; r < num_roles; ++r) {
    if (summary.role_types_[r] != ColumnType::kCategorical) {
      if (!snapshot.dicts[r].empty()) {
        return InvalidArgumentError("snapshot has a dictionary for a numeric role");
      }
      continue;
    }
    Dict& dict = summary.dicts_[r];
    for (const std::string& value : snapshot.dicts[r]) {
      int32_t before = static_cast<int32_t>(dict.values.size());
      if (summary.Intern(dict, value) != before) {
        return InvalidArgumentError("snapshot dictionary has duplicate value '" + value + "'");
      }
    }
  }
  const size_t num_cells = snapshot.counts.size();
  if (snapshot.first_rows.size() != num_cells ||
      snapshot.keys.size() != num_cells * num_roles) {
    return InvalidArgumentError("snapshot cell arrays have inconsistent sizes");
  }
  int64_t total = 0;
  std::vector<int64_t> key(num_roles);
  for (size_t cell = 0; cell < num_cells; ++cell) {
    for (size_t r = 0; r < num_roles; ++r) {
      int64_t k = snapshot.keys[cell * num_roles + r];
      if (k != kNullCell && summary.role_types_[r] == ColumnType::kCategorical &&
          (k < 0 || static_cast<size_t>(k) >= summary.dicts_[r].values.size())) {
        return InvalidArgumentError("snapshot cell key is outside its dictionary");
      }
      key[r] = k;
    }
    int64_t count = snapshot.counts[cell];
    if (count <= 0) {
      return InvalidArgumentError("snapshot cell count must be positive");
    }
    auto [it, inserted] = summary.cells_.try_emplace(key);
    if (!inserted) {
      return InvalidArgumentError("snapshot repeats a cell key");
    }
    it->second.count = count;
    it->second.first_row = snapshot.first_rows[cell];
    total += count;
  }
  if (snapshot.rows < 0 || total != snapshot.rows) {
    return InvalidArgumentError("snapshot cell counts sum to " + std::to_string(total) +
                                " but claim " + std::to_string(snapshot.rows) + " rows");
  }
  summary.rows_ = snapshot.rows;
  return summary;
}

int64_t PairwiseShardSummary::StratumKeyOfCell(size_t z_role, int64_t raw) const {
  if (raw == kNullCell) {
    return kNullCell;
  }
  const ZKeyPlan& plan = z_plan_[z_role];
  if (role_types_[z_role] == ColumnType::kNumeric && plan.binned) {
    return QuantileCodeOf(plan.cuts, DoubleOfBits(raw));
  }
  return raw;
}

Result<PairwiseShardSummary::FinishOutcome> PairwiseShardSummary::Finish(
    const TestOptions& options) {
  SCODED_CHECK(valid_);
  const size_t nz = spec_.z_cols.size();
  const size_t x_role = nz;
  const size_t y_role = nz + 1;
  const bool is_tau = role_types_[x_role] == ColumnType::kNumeric &&
                      role_types_[y_role] == ColumnType::kNumeric;

  if (is_tau && nz == 0 && options.numeric_method == NumericMethod::kSpearman) {
    // Spearman's ρ sums products of midranks in row order; the float
    // accumulation order is part of the result, which counts cannot
    // reproduce bit-for-bit.
    return UnimplementedError(
        "sharded checking does not support numeric_method=Spearman; "
        "use Kendall's tau or the in-memory path");
  }

  // Stratification keys per conditioning column, mirroring
  // ComputeStratumKeys: a numeric column with more than
  // condition_max_distinct distinct non-null values (NaNs count as one) is
  // quantile-binned over its non-NaN values; otherwise cells key by exact
  // value. The marginal over cells loses nothing: distinct counts and
  // quantile cuts are multiset functions.
  z_plan_.assign(nz, ZKeyPlan{});
  for (size_t zr = 0; zr < nz; ++zr) {
    if (role_types_[zr] != ColumnType::kNumeric) {
      continue;
    }
    std::map<double, int64_t, NanAwareLess> marginal;
    for (const auto& [key, entry] : cells_) {
      if (key[zr] != kNullCell) {
        marginal[DoubleOfBits(key[zr])] += entry.count;
      }
    }
    if (marginal.size() > options.condition_max_distinct) {
      std::vector<std::pair<double, int64_t>> value_counts;
      value_counts.reserve(marginal.size());
      for (const auto& [value, count] : marginal) {
        if (!std::isnan(value)) {
          value_counts.emplace_back(value, count);
        }
      }
      z_plan_[zr].binned = true;
      z_plan_[zr].cuts = QuantileCutsFromCounts(value_counts, options.condition_bins);
    }
  }

  // Group cells into strata and order the strata by their minimum global
  // row — the first-appearance order StratifyRows assigns.
  struct Stratum {
    uint64_t first_row = UINT64_MAX;
    int64_t rows = 0;
    std::map<std::pair<int64_t, int64_t>, int64_t> pairs;
  };
  std::map<std::vector<int64_t>, Stratum> strata;
  if (nz == 0) {
    strata.emplace(std::vector<int64_t>{}, Stratum{});  // one stratum, even when empty
  }
  std::vector<int64_t> sig(nz);
  for (const auto& [key, entry] : cells_) {
    for (size_t zr = 0; zr < nz; ++zr) {
      sig[zr] = StratumKeyOfCell(zr, key[zr]);
    }
    Stratum& s = strata[sig];
    s.first_row = std::min(s.first_row, entry.first_row);
    s.rows += entry.count;
    s.pairs[{key[x_role], key[y_role]}] += entry.count;
  }
  std::vector<std::pair<const std::vector<int64_t>*, const Stratum*>> ordered;
  ordered.reserve(strata.size());
  for (const auto& [s_key, s] : strata) {
    ordered.emplace_back(&s_key, &s);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.second->first_row < b.second->first_row; });

  // Per-stratum code of an x/y cell key, mirroring EncodeAsCategorical:
  // categorical cells keep their dictionary ids, numeric cells are
  // quantile-coded by the stratum's cuts, nulls and NaN map to -1.
  auto code_of_key = [&](size_t role, const std::vector<double>& cuts, int64_t key) -> int32_t {
    if (key == kNullCell) {
      return -1;
    }
    if (role_types_[role] == ColumnType::kCategorical) {
      return static_cast<int32_t>(key);
    }
    return QuantileCodeOf(cuts, DoubleOfBits(key));
  };
  // Quantile cuts of one numeric role over a stratum's non-null, non-NaN
  // cells — the cuts EncodeAsCategorical computes from the stratum's rows.
  auto cuts_of_role = [&](size_t role, const Stratum& s) -> std::vector<double> {
    std::map<double, int64_t, NanAwareLess> marginal;
    for (const auto& [xy, count] : s.pairs) {
      int64_t key = role == x_role ? xy.first : xy.second;
      if (key != kNullCell) {
        marginal[DoubleOfBits(key)] += count;
      }
    }
    std::vector<std::pair<double, int64_t>> value_counts;
    value_counts.reserve(marginal.size());
    for (const auto& [value, count] : marginal) {
      if (!std::isnan(value)) {
        value_counts.emplace_back(value, count);
      }
    }
    return QuantileCutsFromCounts(value_counts, options.discretize_bins);
  };

  StratifiedAccumulator acc;
  acc.is_tau = is_tau;
  stratum_index_.clear();
  stratum_plans_.clear();
  std::optional<ContingencyTable> first_kept_ct;
  size_t kept = 0;
  for (const auto& [sig_ptr, s_ptr] : ordered) {
    const Stratum& s = *s_ptr;
    // The minimum-size rule applies only to conditioning strata; the
    // unconditional test always runs (degenerate tables are skipped inside
    // the accumulator instead).
    if (nz > 0 && static_cast<size_t>(s.rows) < options.min_stratum_size) {
      ++acc.skipped;
      continue;
    }
    if (is_tau) {
      std::vector<WeightedPoint> points;
      points.reserve(s.pairs.size());
      for (const auto& [xy, count] : s.pairs) {
        if (xy.first != kNullCell && xy.second != kNullCell) {
          points.push_back({DoubleOfBits(xy.first), DoubleOfBits(xy.second), count});
        }
      }
      KendallResult kr = KendallTauFromCounts(std::move(points));
      if (nz == 0) {
        FinishOutcome outcome;
        outcome.result = TauTestFromKendall(kr, options);
        return outcome;
      }
      acc.AddTau(kr);
      continue;
    }
    StratumPlan plan;
    size_t cx;
    size_t cy;
    if (role_types_[x_role] == ColumnType::kCategorical) {
      cx = dicts_[x_role].values.size();
    } else {
      plan.x_cuts = cuts_of_role(x_role, s);
      cx = static_cast<size_t>(options.discretize_bins);
    }
    if (role_types_[y_role] == ColumnType::kCategorical) {
      cy = dicts_[y_role].values.size();
    } else {
      plan.y_cuts = cuts_of_role(y_role, s);
      cy = static_cast<size_t>(options.discretize_bins);
    }
    std::vector<int64_t> counts(cx * cy, 0);
    for (const auto& [xy, count] : s.pairs) {
      int32_t xc = code_of_key(x_role, plan.x_cuts, xy.first);
      int32_t yc = code_of_key(y_role, plan.y_cuts, xy.second);
      if (xc >= 0 && yc >= 0) {
        counts[static_cast<size_t>(xc) * cy + static_cast<size_t>(yc)] += count;
      }
    }
    ContingencyTable ct = ContingencyTable::FromCounts(counts, cx, cy);
    acc.AddG(PiecesOf(ct));
    if (kept == 0) {
      first_kept_ct.emplace(std::move(ct));
    }
    stratum_index_.emplace(*sig_ptr, kept);
    stratum_plans_.push_back(std::move(plan));
    ++kept;
  }

  FinishOutcome outcome;
  outcome.result = acc.Finish(options);
  if (is_tau) {
    return outcome;  // stratified τ has no Fisher or permutation routing
  }
  TestResult& result = outcome.result;

  if (options.use_fisher_for_2x2 && kept == 1 && result.strata_used == 1 && result.n > 0 &&
      result.n <= options.fisher_max_n) {
    std::optional<double> fisher_p = FisherExact2x2FromContingency(*first_kept_ct);
    if (fisher_p.has_value()) {
      result.p_value = *fisher_p;
      result.used_exact = true;
      return outcome;
    }
  }

  bool grossly_inadequate = result.strata_used > 0 &&
                            (result.dof >= static_cast<double>(result.n) ||
                             result.min_expected < options.g_severe_min_expected);
  if (options.allow_exact && grossly_inadequate && options.permutation_fallback_iterations > 0) {
    // The Monte-Carlo fallback permutes row-order code vectors — the one
    // statistic counts cannot reproduce. Keep the encoding plan recorded
    // above so a second streaming pass can rebuild those vectors.
    outcome.needs_row_pass = true;
  } else {
    stratum_index_.clear();
    stratum_plans_.clear();
  }
  return outcome;
}

void PairwiseShardSummary::CollectPermutationCodes(const Table& shard,
                                                   std::vector<PermutationStratum>* strata) const {
  SCODED_CHECK(valid_);
  SCODED_CHECK(strata->size() == stratum_plans_.size());
  const size_t nz = spec_.z_cols.size();
  const size_t x_role = nz;
  const size_t y_role = nz + 1;
  std::vector<const Column*> cols(role_cols_.size());
  for (size_t r = 0; r < role_cols_.size(); ++r) {
    cols[r] = &shard.column(static_cast<size_t>(role_cols_[r]));
    SCODED_CHECK(cols[r]->type() == role_types_[r]);
  }
  // Code of one x/y cell under a kept stratum's plan; -1 for null (and for
  // NaN under quantile cuts), matching the first pass and the in-memory
  // encoder.
  auto code_of_cell = [&](size_t role, const std::vector<double>& cuts, size_t row) -> int32_t {
    const Column& col = *cols[role];
    if (col.IsNull(row)) {
      return -1;
    }
    if (role_types_[role] == ColumnType::kCategorical) {
      const auto& index = dicts_[role].index;
      auto it = index.find(col.CategoryAt(row));
      SCODED_CHECK(it != index.end());  // every value was seen in the first pass
      return it->second;
    }
    return QuantileCodeOf(cuts, col.NumericAt(row));
  };
  size_t num_rows = shard.NumRows();
  std::vector<int64_t> sig(nz);
  for (size_t row = 0; row < num_rows; ++row) {
    for (size_t zr = 0; zr < nz; ++zr) {
      const Column& col = *cols[zr];
      int64_t raw;
      if (col.IsNull(row)) {
        raw = kNullCell;
      } else if (role_types_[zr] == ColumnType::kCategorical) {
        const auto& index = dicts_[zr].index;
        auto it = index.find(col.CategoryAt(row));
        SCODED_CHECK(it != index.end());
        raw = it->second;
      } else {
        raw = CanonicalBits(col.NumericAt(row));
      }
      sig[zr] = StratumKeyOfCell(zr, raw);
    }
    auto it = stratum_index_.find(sig);
    if (it == stratum_index_.end()) {
      continue;  // row belongs to a skipped (small) stratum
    }
    const StratumPlan& plan = stratum_plans_[it->second];
    int32_t xc = code_of_cell(x_role, plan.x_cuts, row);
    int32_t yc = code_of_cell(y_role, plan.y_cuts, row);
    if (xc >= 0 && yc >= 0) {
      PermutationStratum& out = (*strata)[it->second];
      out.x.push_back(xc);
      out.y.push_back(yc);
    }
  }
}

}  // namespace scoded
