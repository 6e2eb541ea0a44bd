// Warehouse-scale end-to-end benchmark of the serve tier.
//
//   warehouse_bench --workload <olap_read|cluster_scatter>
//                   --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Generates a seeded SALES star schema, serves it through QueryService or
// ClusterQueryService with closed-loop clients (callers that wait for each
// answer), checks answers against a full-scan oracle, and prints one JSON
// object as its last stdout line. --trace 0 reports the end-to-end metrics;
// --trace 1 runs a fixed op list twice (untraced, then traced) and reports
// per-layer metrics recorded by spans around calls into each module's
// public functions. README.md next to this file describes the workloads,
// the metrics and which layer metric should move which end-to-end metric.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index/encoded_bitmap_index.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "serve/cluster/cluster_service.h"
#include "serve/cluster/partitioner.h"
#include "serve/cluster/shard_router.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "storage/engine/wal.h"
#include "storage/io_accountant.h"
#include "storage/table.h"
#include "workload/star_schema.h"

namespace {

using ebi::BitVector;
using ebi::Predicate;
using ebi::Table;
using ebi::Value;
using ebi::serve::cluster::ClusterQueryService;
using Clock = std::chrono::steady_clock;
using Query = std::vector<Predicate>;
using Rows = std::vector<std::vector<Value>>;
namespace cluster = ebi::serve::cluster;
namespace engine = ebi::engine;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) {
  return MsSince(start) / 1000.0;
}

// ------------------------------------------------------------------ sizes
//
// Row counts and client counts are part of each workload's definition
// (README.md); changing any of them changes the benchmark.

constexpr size_t kOlapRows = size_t{1} << 22;
constexpr size_t kClusterRows = size_t{1} << 21;
constexpr size_t kProducts = 1000;
constexpr size_t kBranches = 12;
constexpr size_t kDays = 365;
constexpr double kProductZipf = 0.5;

/// Distinct predicate sets olap_read draws from, and the skew of the draw.
constexpr size_t kOlapPool = 68;
constexpr double kOlapPoolZipf = 0.8;
/// Rows per append batch.
constexpr size_t kBatchRows = 8;
/// An untraced run's timed phase is split into this many rounds. After
/// each round, with the clients stopped, the workload sends a burst of
/// appends and takes setup_s and recovery_s samples. The host this was
/// tuned on alternates slow and fast spells a few seconds long; samples
/// spread over the whole run see both.
constexpr int kRounds = 5;
/// Each round's read phase is cut into windows of about this length. The
/// query metrics pool the quietest quarter of a run's windows (see
/// EndToEnd::QuietWindows).
constexpr double kWindowSeconds = 1.0;
/// Appends per run in the bursts, so append and recovery metrics exist on
/// every workload, measured on that workload's own table and service.
constexpr size_t kBurstAppends = 100;
/// Each round boundary takes setup and recovery samples in pairs until
/// this much time has passed (at least one pair).
constexpr double kSampleSeconds = 1.0;
/// Appends of a traced olap_read run, each replayed through the snapshot
/// and WAL layers.
constexpr size_t kTracedAppends = 32;
/// Fixed op list of a traced run, per client.
constexpr size_t kTracedOpsPerClient = 80;
/// Cap on answers kept for the untimed oracle pass.
constexpr size_t kOracleSamples = 32;

// ------------------------------------------------------------------ inputs
//
// The benchmark owns its generators so that its inputs depend only on the
// seed, not on the program's random-number code (the fact table itself is
// the program's BuildStarSchema output, as seeded here).

class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

uint64_t Derive(uint64_t seed, uint64_t stream) {
  return SplitMix(seed * 0x100000001B3ULL + stream).Next();
}

/// Zipf over {0..n-1} by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  size_t Next(SplitMix& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

Predicate ProductIn(SplitMix& rng, size_t delta, int64_t lo, int64_t hi) {
  std::set<int64_t> picked;
  while (picked.size() < delta) {
    picked.insert(rng.Between(lo, hi));
  }
  std::vector<Value> values;
  for (int64_t v : picked) {
    values.push_back(Value::Int(v));
  }
  return Predicate::In("product", std::move(values));
}

Predicate DayRange(SplitMix& rng, int64_t min_width, int64_t max_width) {
  const int64_t width = rng.Between(min_width, max_width);
  const int64_t lo = rng.Between(0, static_cast<int64_t>(kDays) - width);
  return Predicate::Between("day", lo, lo + width - 1);
}

Predicate PointEq(SplitMix& rng, const std::string& column) {
  const size_t domain = column == "product"  ? kProducts
                        : column == "branch" ? kBranches
                                             : kDays;
  return Predicate::Eq(column, Value::Int(static_cast<int64_t>(
                                   rng.Below(domain))));
}

/// One olap_read query shape: the conjuncts' columns and widths (delta
/// for IN, days for BETWEEN, 1 for EQ), in order.
struct Shape {
  std::vector<std::pair<const char*, int>> conjuncts;
};

/// olap_read's shapes, after the paper's TPC-D observation: 12 of 17 lead
/// with a range search (IN on product with delta 2..128, or BETWEEN on day
/// with width 7..90) and 5 with a point EQ; 7 have one conjunct, 7 two and
/// 3 three. Shapes are fixed and only their literals are seeded, so the
/// work a run does does not depend on which shapes a seed happens to draw.
const std::vector<Shape>& OlapShapes() {
  static const std::vector<Shape> shapes = {
      {{{"product", 2}}},
      {{{"product", 8}, {"branch", 1}}},
      {{{"product", 32}}},
      {{{"product", 128}, {"day", 30}}},
      {{{"product", 4}, {"branch", 1}, {"day", 7}}},
      {{{"product", 64}, {"branch", 1}}},
      {{{"day", 7}}},
      {{{"day", 30}, {"branch", 1}}},
      {{{"day", 90}}},
      {{{"day", 14}, {"product", 1}}},
      {{{"day", 60}, {"product", 16}, {"branch", 1}}},
      {{{"day", 45}, {"branch", 1}}},
      {{{"product", 1}}},
      {{{"branch", 1}}},
      {{{"day", 1}}},
      {{{"product", 1}, {"branch", 1}}},
      {{{"product", 1}, {"branch", 1}, {"day", 1}}},
  };
  return shapes;
}

/// A query of `shape` with seeded literals.
Query OlapQuery(const Shape& shape, SplitMix& rng) {
  Query query;
  for (const auto& [column, width] : shape.conjuncts) {
    const std::string name = column;
    if (width == 1) {
      query.push_back(PointEq(rng, name));
    } else if (name == "day") {
      query.push_back(DayRange(rng, width, width));
    } else {
      query.push_back(ProductIn(rng, static_cast<size_t>(width), 0,
                                static_cast<int64_t>(kProducts) - 1));
    }
  }
  return query;
}

/// cluster_scatter: half key-pruned (IN over a 32-wide key window, or EQ
/// on product with a BETWEEN on day; one or two shards), half full fan-out
/// (BETWEEN on day, with an EQ on branch half the time). Drawn fresh each
/// time from a space large enough that almost nothing repeats.
Query ClusterQuery(SplitMix& rng) {
  if (rng.Below(2) == 0) {
    const int64_t start =
        rng.Between(0, static_cast<int64_t>(kProducts) - 32);
    if (rng.Below(2) == 0) {
      return {Predicate::Eq("product", Value::Int(start)),
              DayRange(rng, 7, 90)};
    }
    return {ProductIn(rng, 2 + rng.Below(15), start, start + 31)};
  }
  if (rng.Below(2) == 0) {
    return {DayRange(rng, 7, 90)};
  }
  return {DayRange(rng, 7, 90), PointEq(rng, "branch")};
}

/// Identity of a predicate set, for the repeat share.
std::string QueryKey(const Query& query) {
  std::vector<uint64_t> prints;
  for (const Predicate& p : query) {
    prints.push_back(p.Fingerprint());
  }
  std::sort(prints.begin(), prints.end());
  std::string key;
  for (uint64_t f : prints) {
    key += std::to_string(f) + ",";
  }
  return key;
}

/// Fact rows shaped like BuildStarSchema's (product Zipf, branch, day and
/// quantity uniform), for append batches.
class BatchSource {
 public:
  explicit BatchSource(uint64_t seed)
      : rng_(seed), products_(kProducts, kProductZipf) {}
  Rows Next() {
    Rows rows;
    for (size_t i = 0; i < kBatchRows; ++i) {
      rows.push_back(
          {Value::Int(static_cast<int64_t>(products_.Next(rng_))),
           Value::Int(static_cast<int64_t>(rng_.Below(kBranches))),
           Value::Int(static_cast<int64_t>(rng_.Below(kDays))),
           Value::Int(rng_.Between(1, 100))});
    }
    return rows;
  }

 private:
  SplitMix rng_;
  Zipf products_;
};

std::unique_ptr<ebi::StarSchema> MakeSchema(size_t rows, uint64_t seed) {
  ebi::StarSchemaConfig config;
  config.fact_rows = rows;
  config.num_products = kProducts;
  config.num_branches = kBranches;
  config.num_days = kDays;
  config.product_zipf_theta = kProductZipf;
  config.seed = Derive(seed, 1);
  auto schema = ebi::BuildStarSchema(config);
  if (!schema.ok()) {
    std::fprintf(stderr, "BuildStarSchema: %s\n",
                 schema.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(schema).value();
}

std::vector<ebi::serve::IndexSpec> Specs() {
  return {{"product", ebi::IndexKind::kEncodedBitmap},
          {"branch", ebi::IndexKind::kEncodedBitmap},
          {"day", ebi::IndexKind::kEncodedBitmap}};
}

std::unique_ptr<Table> CloneTable(const Table& table) {
  return std::make_unique<Table>(table.Clone());
}

/// `base` followed by `batches`, in order: the table a correct service
/// holds after those appends, for the scan oracle.
std::unique_ptr<Table> TableWithBatches(const Table& base,
                                        const std::vector<Rows>& batches) {
  auto table = CloneTable(base);
  for (const Rows& batch : batches) {
    for (const auto& row : batch) {
      if (!table->AppendRow(row).ok()) {
        std::fprintf(stderr, "reference table append failed\n");
        std::exit(2);
      }
    }
  }
  return table;
}

// ------------------------------------------------------------------ stats

/// Nearest-rank quantile; q in (0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Peak resident memory of the process since the last ResetPeakRss (or
/// since it started, where the kernel does not allow the reset).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Restarts the peak-RSS high-water mark at the current RSS (Linux
/// /proc/self/clear_refs, value 5).
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Current resident memory of the process (Linux /proc/self/statm).
double CurrentRssMb() {
  size_t pages = 0;
  size_t resident = 0;
  std::ifstream("/proc/self/statm") >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Prints the samples behind a reported statistic.
void PrintSamples(const char* what, const std::vector<double>& values) {
  std::printf("info %s", what);
  for (double v : values) {
    std::printf(" %.4f", v);
  }
  std::printf("\n");
}

/// Bytes of the serving indexes of `service`'s current snapshot.
size_t IndexBytes(ebi::serve::QueryService& service) {
  auto pin = service.snapshots().Acquire();
  size_t bytes = 0;
  for (const auto& spec : Specs()) {
    bytes += pin->index(spec.column)->SizeBytes();
  }
  return bytes;
}

/// Thread-safe sample lists keyed by metric name.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(value);
  }
  void Append(const std::string& name, const std::vector<double>& values) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto& out = samples_[name];
    out.insert(out.end(), values.begin(), values.end());
  }
  std::vector<double> Get(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>() : it->second;
  }
  bool Has(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return samples_.count(name) > 0;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

// ------------------------------------------------------------------ outcome

/// Ops attempted and failed, plus the oracle verdict. A failed op is a
/// non-OK status (shed, deadline, error) or an oracle mismatch.
class Outcome {
 public:
  void Attempt() { attempted_.fetch_add(1); }
  void Fail(const std::string& what) {
    failed_.fetch_add(1);
    const std::lock_guard<std::mutex> lock(mu_);
    if (errors_.size() < 8) {
      errors_.push_back(what);
    }
  }
  /// An oracle check: counts as an attempted op, and as failed on mismatch.
  void Check(bool ok, const std::string& what) {
    Attempt();
    if (!ok) {
      Fail("oracle mismatch: " + what);
    }
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  bool correct() const { return failed_.load() == 0; }
  void PrintErrors() const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& e : errors_) {
      std::fprintf(stderr, "error: %s\n", e.c_str());
    }
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> errors_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ------------------------------------------------------------------ tracing
//
// Spans recorded by the benchmark around calls into the program's public
// functions (the program itself gets no new instrumentation). Spans of one
// op share its id; each records its parent. Kept in memory and written out
// as JSON lines when the run ends.

class Tracer {
 public:
  struct Span {
    uint64_t op;
    uint32_t id;
    uint32_t parent;
    std::string name;
    double start_ms;
    double end_ms;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  uint32_t NextId() { return next_id_.fetch_add(1); }

  /// Records a finished span, and its duration as a sample under
  /// `name` + "_ms".
  double Record(uint64_t op, uint32_t id, uint32_t parent,
                const std::string& name, Clock::time_point start,
                Clock::time_point end) {
    const double start_ms =
        std::chrono::duration<double, std::milli>(start - epoch_).count();
    const double end_ms =
        std::chrono::duration<double, std::milli>(end - epoch_).count();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      spans_.push_back({op, id, parent, name, start_ms, end_ms});
    }
    samples.Add(name + "_ms", end_ms - start_ms);
    return end_ms - start_ms;
  }

  /// Times `fn` as a child span of `parent`; returns its duration in ms.
  template <typename Fn>
  double Time(uint64_t op, uint32_t parent, const std::string& name, Fn&& fn) {
    const uint32_t id = NextId();
    const Clock::time_point start = Clock::now();
    fn();
    return Record(op, id, parent, name, start, Clock::now());
  }

  bool Write(const std::string& path, uint64_t seed,
             const std::string& workload) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
        << ",\"spans\":" << spans_.size() << "}\n";
    for (const Span& s : spans_) {
      out << "{\"op\":" << s.op << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
          << "}\n";
    }
    return static_cast<bool>(out);
  }

  /// Per-layer samples (span durations plus values read off results).
  Samples samples;

 private:
  const Clock::time_point epoch_;
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Traced runs take this shared around each timed call and exclusively
/// around each replay, so a replay runs alone: its I/O deltas and the
/// reduction-counter delta belong to it, and the counts repeat exactly.
std::shared_mutex g_replay_gate;

uint64_t ReductionCount() {
  static ebi::obs::Counter* counter =
      ebi::obs::MetricsRegistry::Global().GetCounter(
          ebi::obs::kMetricReductionCount);
  return counter->Value();
}

/// The literal set a conjunct selects, as CoverForIn takes it.
std::vector<Value> ConjunctValues(const Predicate& p) {
  switch (p.kind) {
    case Predicate::Kind::kEquals:
      return {p.value};
    case Predicate::Kind::kIn:
      return p.values;
    case Predicate::Kind::kRange: {
      std::vector<Value> values;
      for (int64_t v = p.lo; v <= p.hi; ++v) {
        values.push_back(Value::Int(v));
      }
      return values;
    }
    default:
      return {};
  }
}

/// Work one replayed selection did: the paper's vectors and pages read
/// (SelectionResult::io) and the Boolean reductions it ran.
struct ReplayCounts {
  double reductions = 0;
  double vectors = 0;
  double pages = 0;
};

/// Replays one selection through the layers of `service` on a pinned
/// snapshot: SnapshotManager::Acquire, DatabaseSnapshot::MakeExecutor,
/// SelectionExecutor::Select, then per conjunct
/// EncodedBitmapIndex::CoverForIn and SecondaryIndex::Evaluate*. The
/// caller holds g_replay_gate exclusively, so the counts are this
/// replay's alone.
ReplayCounts ReplayQuery(Tracer& tracer, uint64_t op, uint32_t parent,
                         ebi::serve::QueryService& service, const Query& query,
                         Outcome& outcome) {
  ReplayCounts counts;
  ebi::serve::SnapshotManager::Pin pin;
  tracer.Time(op, parent, "snapshot.pin",
              [&] { pin = service.snapshots().Acquire(); });
  std::optional<ebi::SelectionExecutor> executor;
  tracer.Time(op, parent, "snapshot.make_executor",
              [&] { executor.emplace(pin->MakeExecutor()); });
  const uint64_t reductions_before = ReductionCount();
  ebi::Result<ebi::SelectionResult> selected = ebi::Status::Internal("not run");
  tracer.Time(op, parent, "query.select",
              [&] { selected = executor->Select(query); });
  counts.reductions = static_cast<double>(ReductionCount() - reductions_before);
  if (!selected.ok()) {
    outcome.Fail("replay select: " + selected.status().ToString());
    return counts;
  }
  counts.vectors = static_cast<double>(selected.value().io.vectors_read);
  counts.pages = static_cast<double>(selected.value().io.pages_read);
  for (const Predicate& p : query) {
    auto* index = dynamic_cast<ebi::EncodedBitmapIndex*>(pin->index(p.column));
    if (index == nullptr) {
      outcome.Fail("replay: no encoded index on " + p.column);
      return counts;
    }
    const std::vector<Value> values = ConjunctValues(p);
    size_t terms = 0;
    bool ok = true;
    const double reduce_ms = tracer.Time(op, parent, "boolean.reduce", [&] {
      auto cover = index->CoverForIn(values);
      ok = cover.ok();
      terms = ok ? cover.value().size() : 0;
    });
    tracer.samples.Add("count.cover_terms", static_cast<double>(terms));
    const double evaluate_ms =
        tracer.Time(op, parent, "index.evaluate", [&] {
          ebi::Result<BitVector> rows =
              p.kind == Predicate::Kind::kEquals ? index->EvaluateEquals(p.value)
              : p.kind == Predicate::Kind::kIn   ? index->EvaluateIn(p.values)
                                                 : index->EvaluateRange(p.lo, p.hi);
          ok = ok && rows.ok();
        });
    if (!ok) {
      outcome.Fail("replay reduce or evaluate on " + p.column);
    }
    tracer.samples.Add("index.fetch_combine_ms", evaluate_ms - reduce_ms);
  }
  return counts;
}

/// Replays one published append through the write layers: clones the
/// service's current snapshot with the same batch
/// (DatabaseSnapshot::CloneWithRows), publishes the clone into `manager`,
/// and appends the batch's WAL payload (EncodeRowBatch) to `wal`; both
/// are the benchmark's own.
void ReplayAppend(Tracer& tracer, uint64_t op, uint32_t parent,
                  ebi::serve::QueryService& service, const Rows& rows,
                  uint64_t first_row, ebi::serve::SnapshotManager& manager,
                  engine::Wal& wal, Outcome& outcome) {
  auto pin = service.snapshots().Acquire();
  std::unique_ptr<ebi::serve::DatabaseSnapshot> next;
  tracer.Time(op, parent, "snapshot.clone", [&] {
    auto cloned = pin->CloneWithRows(rows, pin->epoch() + 1);
    if (cloned.ok()) {
      next = std::move(cloned).value();
    }
  });
  pin.Release();
  if (next == nullptr) {
    outcome.Fail("replay CloneWithRows");
  } else {
    tracer.Time(op, parent, "snapshot.publish",
                [&] { manager.Publish(std::move(next)); });
  }
  const std::vector<uint8_t> payload = engine::EncodeRowBatch(first_row, rows);
  tracer.samples.Add("count.wal_bytes_per_row",
                     static_cast<double>(payload.size()) /
                         static_cast<double>(rows.size()));
  tracer.Time(op, parent, "wal.append", [&] {
    if (!wal.Append(engine::kWalRecordRowBatch, payload).ok()) {
      outcome.Fail("replay WAL append");
    }
  });
  tracer.samples.Add("count.retired", static_cast<double>(
                                          service.snapshots().RetiredCount()));
}

/// Adds one query's counts (summed over the services it touched).
void AddQueryCounts(Tracer& tracer, const ReplayCounts& counts) {
  tracer.samples.Add("count.reductions", counts.reductions);
  tracer.samples.Add("count.vectors", counts.vectors);
  tracer.samples.Add("count.pages", counts.pages);
}

// ------------------------------------------------------------------ runs

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
};

/// A query's completion time (seconds after its round began) and latency.
struct TimedQuery {
  double at_s;
  double ms;
};

/// Query latencies completed in one stretch of a read phase.
struct Window {
  std::vector<double> ms;
  double seconds = 0;
};

/// What an untraced run measured, for the end-to-end metrics.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  std::vector<Window> windows;
  std::vector<double> append_ms;
  /// Peak RSS over the first round and the append burst after it, before
  /// any throwaway service has run: their memory stays in the heap and
  /// would be counted after.
  double peak_rss_mb = 0;
  /// Wall time of the appender's appends.
  double append_s = 0;

  /// Buckets one round's queries (per client) by completion time into
  /// windows of about kWindowSeconds over the round's `planned_s`; queries
  /// in flight at the deadline finish in the last window, which also gets
  /// the overrun.
  void AddRound(const std::vector<std::vector<TimedQuery>>& clients,
                double planned_s, double actual_s) {
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(std::lround(planned_s / kWindowSeconds)));
    const double width = planned_s / static_cast<double>(n);
    std::vector<Window> round(n);
    for (Window& w : round) {
      w.seconds = width;
    }
    round.back().seconds += std::max(0.0, actual_s - planned_s);
    for (const std::vector<TimedQuery>& queries : clients) {
      for (const TimedQuery& q : queries) {
        const auto k = static_cast<size_t>(std::max(0.0, q.at_s / width));
        round[std::min(k, n - 1)].ms.push_back(q.ms);
      }
    }
    windows.insert(windows.end(), round.begin(), round.end());
  }

  /// The quietest quarter of the run's windows, ranked by median latency,
  /// pooled into one window. The host this was tuned on is shared: its
  /// neighbours slow every query for spells of 5 to 30 s, by up to 2x at
  /// p99, so the tail of a whole run measured the neighbours more than the
  /// program. Such noise only ever adds time (Chen and Revels, "Robust
  /// benchmarking in noisy environments", 2016); the quiet windows keep
  /// the program's own tail, heavy queries and queueing included, since
  /// every window draws from the same query mix. All-window figures are
  /// printed as info lines.
  Window QuietWindows() const {
    std::vector<std::pair<double, const Window*>> ranked;
    for (const Window& w : windows) {
      ranked.emplace_back(
          w.ms.empty() ? std::numeric_limits<double>::infinity()
                       : Median(w.ms),
          &w);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    Window pooled;
    const size_t keep = std::max<size_t>(1, (ranked.size() + 3) / 4);
    for (size_t i = 0; i < keep && i < ranked.size(); ++i) {
      const Window& w = *ranked[i].second;
      pooled.ms.insert(pooled.ms.end(), w.ms.begin(), w.ms.end());
      pooled.seconds += w.seconds;
    }
    return pooled;
  }

  /// Every window pooled.
  Window AllWindows() const {
    Window all;
    for (const Window& w : windows) {
      all.ms.insert(all.ms.end(), w.ms.begin(), w.ms.end());
      all.seconds += w.seconds;
    }
    return all;
  }
};

/// What a traced run measured outside the tracer's samples.
struct Traced {
  double untraced_p50 = 0;
  double traced_p50 = 0;
  /// ReclaimedCount() at shutdown, summed over the services.
  double reclaimed = 0;
  /// Replay of a log holding every traced append, and its records.
  double replay_ms = 0;
  size_t records = 0;
  double route_s = 0;
  double repeat_share = 0;
};

class Run {
 public:
  explicit Run(const Args& args)
      : args_(args), tracer_(Clock::now()) {}

  int Main();

 private:
  void Olap();
  void Cluster();

  void Report(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// p50 and p99 of a traced sample list, when the workload recorded it.
  void ReportQuantiles(const std::string& base, const std::string& unit,
                       bool p99) {
    if (!tracer_.samples.Has(base)) {
      return;
    }
    const std::vector<double> values = tracer_.samples.Get(base);
    Report(base + ".p50", Quantile(values, 0.5), unit);
    if (p99) {
      Report(base + ".p99", Quantile(values, 0.99), unit);
    }
  }
  void ReportMean(const std::string& sample, const std::string& name,
                  const std::string& unit) {
    if (tracer_.samples.Has(sample)) {
      Report(name, Mean(tracer_.samples.Get(sample)), unit);
    }
  }
  /// Every per-layer metric, from the tracer's samples and `t`.
  void ReportLayers(const Traced& t);

  void ReportEndToEnd(const EndToEnd& e);

  std::string WalPath(const std::string& name) const {
    return args_.work_dir + "/" + name + ".wal";
  }

  const Args args_;
  Outcome outcome_;
  Tracer tracer_;
  std::vector<Metric> metrics_;
};

/// Closed-loop clients: `n` threads running `fn(client)` to completion.
template <typename Fn>
void RunClients(size_t n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&fn, c] { fn(c); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

/// Wall time of QueryService::Start on a clone of `base` (the clone is not
/// timed); `service` receives the started service.
double TimedStart(const Table& base, const ebi::serve::ServeOptions& options,
                  std::unique_ptr<ebi::serve::QueryService>* service,
                  Outcome& outcome) {
  auto table = CloneTable(base);
  *service = std::make_unique<ebi::serve::QueryService>(options);
  const Clock::time_point start = Clock::now();
  const ebi::Status status = (*service)->Start(std::move(table), Specs());
  const double seconds = SecondsSince(start);
  outcome.Attempt();
  if (!status.ok()) {
    outcome.Fail("Start: " + status.ToString());
  }
  return seconds;
}

/// One setup_s sample: Start of a throwaway service on an empty log.
double SetupSample(const Table& base, ebi::serve::ServeOptions options,
                   const std::string& wal_path, Outcome& outcome) {
  std::filesystem::remove(wal_path);
  options.wal_path = wal_path;
  std::unique_ptr<ebi::serve::QueryService> service;
  return TimedStart(base, options, &service, outcome);
}

/// One recovery_s sample: Start of a throwaway service on `base` plus a
/// copy of the live service's log as it stands, which Start replays.
double RecoverySample(const Table& base, ebi::serve::ServeOptions options,
                      const std::string& copy_path, Outcome& outcome) {
  std::filesystem::copy_file(options.wal_path, copy_path,
                             std::filesystem::copy_options::overwrite_existing);
  options.wal_path = copy_path;
  std::unique_ptr<ebi::serve::QueryService> service;
  return TimedStart(base, options, &service, outcome);
}

/// Restarts from `base` plus the run's final log and checks the restarted
/// state: its row count and its answers to `probes` against a scan of
/// `reference` (base plus every appended batch). Returns the Start time.
double CheckedRestart(const Table& base,
                      const ebi::serve::ServeOptions& options,
                      size_t expected_rows, const Table& reference,
                      const std::vector<Query>& probes, Outcome& outcome) {
  std::unique_ptr<ebi::serve::QueryService> service;
  const double seconds = TimedStart(base, options, &service, outcome);
  const std::vector<size_t> counts = service->PublishedRowCounts();
  outcome.Check(!counts.empty() && counts.back() == expected_rows,
                "restarted row count");
  ebi::IoAccountant io;
  const ebi::SelectionExecutor oracle(&reference, &io);
  for (const Query& q : probes) {
    auto got = service->Select(q);
    auto want = oracle.SelectByScan(q);
    outcome.Check(got.ok() && want.ok() &&
                      got.value().selection.rows == want.value(),
                  "restarted answer");
  }
  return seconds;
}

/// Answers to `queries` by full scan (SelectionExecutor::SelectByScan) of
/// `snapshot`, four threads at a time. Untimed. A query whose scan fails
/// gets an empty answer, which no served answer equals.
std::vector<BitVector> ScanAnswers(const ebi::serve::DatabaseSnapshot& snapshot,
                                   const std::vector<Query>& queries) {
  std::vector<BitVector> answers(queries.size());
  std::atomic<size_t> next{0};
  RunClients(4, [&](size_t) {
    const ebi::SelectionExecutor oracle = snapshot.MakeExecutor();
    for (size_t i = next.fetch_add(1); i < queries.size();
         i = next.fetch_add(1)) {
      auto want = oracle.SelectByScan(queries[i]);
      if (want.ok()) {
        answers[i] = std::move(want).value();
      }
    }
  });
  return answers;
}

/// Extends `answers` (to `queries`, over the rows before `batches`) past
/// the rows of `batches`: SelectByScan over a table with `like`'s columns
/// holding only those rows. Untimed. Rows are append-only and predicates
/// row-local, so the extended answers are those of a full scan, without
/// rescanning the rows already covered. A failed scan empties the answer.
void ExtendAnswers(const Table& like, const std::vector<Rows>& batches,
                   const std::vector<Query>& queries,
                   std::vector<BitVector>* answers) {
  Table rows(like.name());
  for (size_t c = 0; c < like.NumColumns(); ++c) {
    if (!rows.AddColumn(like.column(c).name(), like.column(c).type()).ok()) {
      std::fprintf(stderr, "oracle table column failed\n");
      std::exit(2);
    }
  }
  for (const Rows& batch : batches) {
    for (const auto& row : batch) {
      if (!rows.AppendRow(row).ok()) {
        std::fprintf(stderr, "oracle table append failed\n");
        std::exit(2);
      }
    }
  }
  ebi::IoAccountant io;
  const ebi::SelectionExecutor oracle(&rows, &io);
  for (size_t i = 0; i < queries.size(); ++i) {
    BitVector& answer = (*answers)[i];
    auto tail = oracle.SelectByScan(queries[i]);
    if (!tail.ok() || answer.empty()) {
      answer = BitVector();
      continue;
    }
    const size_t covered = answer.size();
    answer.Resize(covered + rows.NumRows());
    answer.BlitFrom(tail.value(), covered);
  }
}

/// Checks `answers` (query, rows) against a full scan of `table`, four
/// threads at a time. An answer shorter than the table was taken at an
/// earlier epoch: rows are append-only and predicates row-local, so it
/// must equal the scan cut to its length.
void CheckByScan(const Table& table,
                 const std::vector<std::pair<Query, BitVector>>& answers,
                 Outcome& outcome) {
  std::atomic<size_t> next{0};
  RunClients(4, [&](size_t) {
    ebi::IoAccountant io;
    const ebi::SelectionExecutor oracle(&table, &io);
    for (size_t i = next.fetch_add(1); i < answers.size();
         i = next.fetch_add(1)) {
      auto want = oracle.SelectByScan(answers[i].first);
      const BitVector& got = answers[i].second;
      if (want.ok() && want.value().size() > got.size()) {
        want.value().Resize(got.size());
      }
      outcome.Check(want.ok() && want.value() == got, "scan oracle");
    }
  });
}

void Run::ReportLayers(const Traced& t) {
  ReportQuantiles("serve.queue_ms", "ms", true);
  ReportQuantiles("serve.run_ms", "ms", false);
  ReportQuantiles("snapshot.pin_ms", "ms", false);
  ReportQuantiles("snapshot.make_executor_ms", "ms", false);
  ReportQuantiles("query.select_ms", "ms", true);
  ReportQuantiles("boolean.reduce_ms", "ms", true);
  ReportMean("count.cover_terms", "boolean.cover_terms", "terms");
  ReportMean("count.reductions", "boolean.reductions_per_query", "count");
  ReportQuantiles("index.evaluate_ms", "ms", true);
  ReportQuantiles("index.fetch_combine_ms", "ms", false);
  ReportMean("count.vectors", "index.vectors_per_query", "vectors");
  ReportMean("count.pages", "index.pages_per_query", "pages");
  ReportQuantiles("snapshot.clone_ms", "ms", true);
  ReportQuantiles("snapshot.publish_ms", "ms", false);
  const std::vector<double> retired = tracer_.samples.Get("count.retired");
  Report("snapshot.retired_max",
         retired.empty() ? 0.0
                         : *std::max_element(retired.begin(), retired.end()),
         "count");
  Report("snapshot.reclaimed", t.reclaimed, "count");
  ReportQuantiles("wal.append_ms", "ms", true);
  ReportMean("count.wal_bytes_per_row", "wal.bytes_per_row", "B/row");
  Report("wal.replay_ms", t.replay_ms, "ms");
  Report("wal.records", static_cast<double>(t.records), "count");
  ReportMean("count.fanout", "cluster.fanout", "shards");
  ReportQuantiles("cluster.shard_ms", "ms", true);
  ReportQuantiles("cluster.gather_ms", "ms", false);
  Report("cluster.route_s", t.route_s, "s");
  Report("trace.query_p50_overhead_ms", t.traced_p50 - t.untraced_p50, "ms");
  Report("workload.repeat_share", t.repeat_share, "share");
}

/// Replays the log at `path` (engine::Wal::Replay, then DecodeRowBatch on
/// each record); returns the milliseconds taken, and the decoded records
/// in `records`.
double ReplayLog(const std::string& path, size_t* records, Outcome& outcome) {
  *records = 0;
  const Clock::time_point start = Clock::now();
  auto replay = engine::Wal::Replay(path);
  if (replay.ok()) {
    for (const engine::WalRecord& record : replay.value().records) {
      *records += engine::DecodeRowBatch(record.payload).ok() ? 1 : 0;
    }
  }
  const double ms = MsSince(start);
  outcome.Check(replay.ok(), "replay " + path);
  return ms;
}

void Run::ReportEndToEnd(const EndToEnd& e) {
  PrintSamples("setup_s samples", e.setup_s);
  PrintSamples("recovery_s samples", e.recovery_s);
  PrintSamples("append_ms samples", e.append_ms);
  const Window all = e.AllWindows();
  const Window quiet = e.QuietWindows();
  const auto qps = [](const Window& w) {
    return static_cast<double>(w.ms.size()) / std::max(w.seconds, 1e-9);
  };
  std::printf("info samples: %zu queries in %zu windows, %zu in the "
              "quietest quarter; %zu appends\n",
              all.ms.size(), e.windows.size(), quiet.ms.size(),
              e.append_ms.size());
  std::printf("info all windows: query_p50_ms %.4f query_p99_ms %.4f "
              "query_qps %.4f\n",
              Quantile(all.ms, 0.5), Quantile(all.ms, 0.99), qps(all));
  Report("setup_s", Mean(e.setup_s), "s");
  Report("query_p50_ms", Quantile(quiet.ms, 0.5), "ms");
  Report("query_p99_ms", Quantile(quiet.ms, 0.99), "ms");
  Report("query_qps", qps(quiet), "1/s");
  Report("append_p50_ms", Quantile(e.append_ms, 0.5), "ms");
  Report("append_p90_ms", Quantile(e.append_ms, 0.9), "ms");
  Report("append_rows_per_s",
         static_cast<double>(e.append_ms.size() * kBatchRows) / e.append_s,
         "rows/s");
  Report("recovery_s", Mean(e.recovery_s), "s");
  Report("peak_rss_mb", e.peak_rss_mb, "MB");
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// One burst of appends from one closed-loop appender, after a round of
/// olap_read or cluster_scatter. `appended` keeps every batch in order.
template <typename Service>
void AppendBurst(Service& service, BatchSource& batches,
                 std::vector<Rows>* appended, EndToEnd* e, Outcome& outcome) {
  for (size_t i = 0; i < kBurstAppends / kRounds; ++i) {
    Rows rows = batches.Next();
    appended->push_back(rows);
    const Clock::time_point start = Clock::now();
    auto epoch = service.Append(std::move(rows));
    e->append_ms.push_back(MsSince(start));
    e->append_s += e->append_ms.back() / 1000.0;
    outcome.Attempt();
    if (!epoch.ok()) {
      outcome.Fail("append: " + epoch.status().ToString());
    }
  }
}

/// Runs each call of `sample` pinned to the next CPU the process may use,
/// in turn. Start is single-threaded, and on the host this was tuned on
/// one vCPU could run it 1.5x slower than another at the same moment;
/// rotating spreads a run's samples over all of them. The pin is lifted
/// after each call.
class CpuRotation {
 public:
  CpuRotation() {
    sched_getaffinity(0, sizeof(allowed_), &allowed_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) {
        cpus_.push_back(cpu);
      }
    }
  }

  template <typename Fn>
  void Pinned(Fn&& sample) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    sample();
    sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// A round boundary's setup and recovery samples for a single service, in
/// pairs until kSampleSeconds have passed.
void StartSamples(const Table& base, const ebi::serve::ServeOptions& options,
                  const std::string& setup_wal, const std::string& copy_wal,
                  CpuRotation& cpus, EndToEnd* e, Outcome& outcome) {
  const Clock::time_point begin = Clock::now();
  do {
    cpus.Pinned([&] {
      e->setup_s.push_back(SetupSample(base, options, setup_wal, outcome));
      e->recovery_s.push_back(
          RecoverySample(base, options, copy_wal, outcome));
    });
  } while (SecondsSince(begin) < kSampleSeconds);
}

/// Quartiles of the product column: the range partition's split points.
std::vector<int64_t> ProductQuartiles(const Table& table) {
  auto column = table.FindColumn("product");
  std::vector<int64_t> keys;
  keys.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    keys.push_back(column.value()->ValueAt(r).int_value);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<int64_t> splits;
  for (size_t q = 1; q < 4; ++q) {
    int64_t split = keys[keys.size() * q / 4];
    if (!splits.empty() && split <= splits.back()) {
      split = splits.back() + 1;
    }
    splits.push_back(split);
  }
  return splits;
}

/// Seconds ShardRouter::RouteAppend takes to place every row of `table`
/// over 4 range shards split at `split_points`, on a router the benchmark
/// owns.
double RouteSeconds(const Table& table, const std::vector<int64_t>& split_points,
                    Outcome& outcome) {
  Rows rows;
  rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      row.push_back(table.column(c).ValueAt(r));
    }
    rows.push_back(std::move(row));
  }
  auto partitioner = cluster::MakePartitioner(cluster::PartitionKind::kRange,
                                              4, split_points);
  cluster::ShardRouter router(std::move(partitioner).value(), "product");
  const Clock::time_point start = Clock::now();
  const bool routed = router.RouteAppend(rows, 0).ok();
  const double seconds = SecondsSince(start);
  outcome.Check(routed && router.placement()->total_rows == table.NumRows(),
                "router placement");
  return seconds;
}

// ---------------------------------------------------------------- olap_read

void Run::Olap() {
  const auto schema = MakeSchema(kOlapRows, args_.seed);
  const Table& base = *schema->sales;
  std::printf("info benchmark_rss_mb %.1f\n", CurrentRssMb());

  // Pool of distinct predicate sets; the Zipf draw over it makes the
  // popular ones repeat.
  std::vector<Query> pool;
  std::set<std::string> keys;
  SplitMix pool_rng(Derive(args_.seed, 2));
  // Entry i has shape i mod 17, so popularity rank maps to shape the same
  // way on every seed.
  const std::vector<Shape>& shapes = OlapShapes();
  while (pool.size() < kOlapPool) {
    Query q = OlapQuery(shapes[pool.size() % shapes.size()], pool_rng);
    if (keys.insert(QueryKey(q)).second) {
      pool.push_back(std::move(q));
    }
  }
  const Zipf pool_zipf(kOlapPool, kOlapPoolZipf);
  constexpr size_t kClients = 3;
  // The traced run's fixed op list: the first kClients * kTracedOpsPerClient
  // draws. Its repeat share is the workload's defining figure; the share
  // over a timed run grows with the number of draws, so with run length
  // and with the program's speed.
  std::vector<size_t> ops;
  {
    SplitMix draw(Derive(args_.seed, 3));
    for (size_t i = 0; i < kClients * kTracedOpsPerClient; ++i) {
      ops.push_back(pool_zipf.Next(draw));
    }
  }
  const double op_list_repeat_share =
      1.0 - static_cast<double>(std::set<size_t>(ops.begin(), ops.end()).size()) /
                static_cast<double>(ops.size());
  std::printf("info op_list_repeat_share %.4f over %zu draws\n",
              op_list_repeat_share, ops.size());

  ebi::serve::ServeOptions options;
  options.worker_threads = 2;
  options.wal_path = WalPath("olap");
  options.wal_sync_on_append = true;
  std::filesystem::remove(options.wal_path);
  std::unique_ptr<ebi::serve::QueryService> service;
  EndToEnd e;
  e.setup_s.push_back(TimedStart(base, options, &service, outcome_));
  std::printf("info index_bytes %zu\n", IndexBytes(*service));

  // Oracle, untimed: every distinct pool query against a full scan on a
  // pinned snapshot. The checked answers then verify every timed answer.
  std::vector<BitVector> expected =
      ScanAnswers(*service->snapshots().Acquire(), pool);
  for (size_t i = 0; i < pool.size(); ++i) {
    auto got = service->Select(pool[i]);
    outcome_.Check(got.ok() && got.value().selection.rows == expected[i],
                   "pool query " + std::to_string(i));
  }

  auto one_query = [&](size_t index, bool traced,
                       std::vector<double>* latencies) {
    const Clock::time_point start = Clock::now();
    auto got = service->Select(pool[index]);
    const double ms = MsSince(start);
    outcome_.Attempt();
    if (!got.ok()) {
      outcome_.Fail("select: " + got.status().ToString());
      return;
    }
    latencies->push_back(ms);
    if (got.value().selection.rows != expected[index]) {
      outcome_.Check(false, "timed answer");
    }
    if (traced) {
      tracer_.samples.Add("serve.queue_ms", got.value().queue_ms);
      tracer_.samples.Add("serve.run_ms", got.value().run_ms);
      // One service is one shard: every query visits it, and the client's
      // time outside it stands where a cluster's gather time would.
      const double shard_ms = got.value().queue_ms + got.value().run_ms;
      tracer_.samples.Add("count.fanout", 1.0);
      tracer_.samples.Add("cluster.shard_ms", shard_ms);
      tracer_.samples.Add("cluster.gather_ms", ms - shard_ms);
    }
  };

  if (args_.trace) {
    auto run_list = [&](bool traced) {
      Samples latencies;
      std::atomic<size_t> next{0};
      RunClients(kClients, [&](size_t) {
        std::vector<double> mine;
        for (size_t i = next.fetch_add(1); i < ops.size();
             i = next.fetch_add(1)) {
          if (!traced) {
            one_query(ops[i], false, &mine);
            continue;
          }
          const uint32_t root = tracer_.NextId();
          const Clock::time_point start = Clock::now();
          {
            const std::shared_lock<std::shared_mutex> gate(g_replay_gate);
            tracer_.Time(i, root, "serve.select",
                         [&] { one_query(ops[i], true, &mine); });
          }
          {
            const std::unique_lock<std::shared_mutex> gate(g_replay_gate);
            AddQueryCounts(tracer_, ReplayQuery(tracer_, i, root, *service,
                                                pool[ops[i]], outcome_));
          }
          tracer_.Record(i, root, 0, "op", start, Clock::now());
        }
        latencies.Append("query", mine);
      });
      return Median(latencies.Get("query"));
    };
    Traced t;
    t.untraced_p50 = run_list(false);
    t.traced_p50 = run_list(true);
    t.repeat_share = op_list_repeat_share;

    // Write layers: a fixed list of appends from one closed-loop
    // appender, each replayed through the snapshot and WAL layers.
    const std::string replay_path = WalPath("olap-replay");
    std::filesystem::remove(replay_path);
    auto replay_wal = engine::Wal::Open(replay_path);
    ebi::serve::SnapshotManager replay_manager;
    BatchSource batches(Derive(args_.seed, 4));
    std::vector<Rows> appended;
    for (size_t i = 0; replay_wal.ok() && i < kTracedAppends; ++i) {
      Rows rows = batches.Next();
      appended.push_back(rows);
      const uint64_t op = ops.size() + i;
      const uint32_t root = tracer_.NextId();
      const Clock::time_point start = Clock::now();
      const size_t first_row = service->PublishedRowCounts().back();
      auto epoch = service->Append(rows);
      const Clock::time_point end = Clock::now();
      outcome_.Attempt();
      if (!epoch.ok()) {
        outcome_.Fail("append: " + epoch.status().ToString());
        continue;
      }
      tracer_.Record(op, tracer_.NextId(), root, "serve.append", start, end);
      ReplayAppend(tracer_, op, root, *service, rows, first_row,
                   replay_manager, *replay_wal.value(), outcome_);
      tracer_.Record(op, root, 0, "op", start, Clock::now());
    }
    outcome_.Check(replay_wal.ok(), "open the replay WAL");
    const size_t final_rows = service->PublishedRowCounts().back();
    (void)service->Shutdown();
    t.reclaimed = static_cast<double>(service->snapshots().ReclaimedCount());
    service.reset();

    t.replay_ms = ReplayLog(options.wal_path, &t.records, outcome_);
    outcome_.Check(t.records == appended.size(),
                   "WAL holds every appended batch");
    const auto reference = TableWithBatches(base, appended);
    const std::vector<Query> probes(pool.begin(), pool.begin() + 8);
    (void)CheckedRestart(base, options, final_rows, *reference, probes,
                         outcome_);

    t.route_s = RouteSeconds(base, ProductQuartiles(base), outcome_);
    ReportLayers(t);
    return;
  }

  // Rounds: three closed-loop clients read against two workers, so a small
  // queue forms; then, clients stopped, a burst of appends from one
  // closed-loop appender and the round's setup and recovery samples. The
  // read phases run no snapshot, WAL or cluster code beyond the pin.
  std::atomic<size_t> repeats{0};
  std::atomic<size_t> draws{0};
  std::vector<std::atomic<bool>> seen(pool.size());
  BatchSource batches(Derive(args_.seed, 4));
  CpuRotation cpus;
  std::vector<Rows> appended;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<TimedQuery>> timed(kClients);
    if (round == 0) {
      ResetPeakRss();
    }
    const Clock::time_point begin = Clock::now();
    const double planned_s = args_.seconds / kRounds;
    const Clock::time_point deadline = After(planned_s);
    RunClients(kClients, [&](size_t c) {
      SplitMix draw(Derive(args_.seed, 10 + kClients * round + c));
      std::vector<double> mine;
      while (Clock::now() < deadline) {
        const size_t index = pool_zipf.Next(draw);
        draws.fetch_add(1);
        if (seen[index].exchange(true)) {
          repeats.fetch_add(1);
        }
        one_query(index, false, &mine);
        if (mine.size() > timed[c].size()) {
          timed[c].push_back({SecondsSince(begin), mine.back()});
        }
      }
    });
    e.AddRound(timed, planned_s, SecondsSince(begin));

    AppendBurst(*service, batches, &appended, &e, outcome_);
    if (round == 0) {
      e.peak_rss_mb = PeakRssMb();
    }
    // The checked pool answers follow the appends: the burst's rows,
    // scanned on their own, extend them.
    ExtendAnswers(base,
                  std::vector<Rows>(appended.end() -
                                        static_cast<std::ptrdiff_t>(
                                            kBurstAppends / kRounds),
                                    appended.end()),
                  pool, &expected);
    StartSamples(base, options, WalPath("olap-setup"), WalPath("olap-recover"),
                 cpus, &e, outcome_);
  }
  const size_t final_rows = service->PublishedRowCounts().back();
  (void)service->Shutdown();
  service.reset();

  const auto reference = TableWithBatches(base, appended);
  const std::vector<Query> probes(pool.begin(), pool.begin() + 8);
  e.recovery_s.push_back(CheckedRestart(base, options, final_rows, *reference,
                                        probes, outcome_));
  ReportEndToEnd(e);
  std::printf("info run_repeat_share %.4f over %zu queries\n",
              static_cast<double>(repeats.load()) /
                  static_cast<double>(std::max<size_t>(draws.load(), 1)),
              draws.load());
}

// ---------------------------------------------------------- cluster_scatter

/// Wall time of ClusterQueryService::Start on a clone of `table` (the
/// clone is not timed); `service` receives the started cluster.
double TimedClusterStart(const Table& table,
                         const cluster::ClusterOptions& options,
                         std::unique_ptr<ClusterQueryService>* service,
                         Outcome& outcome) {
  auto clone = CloneTable(table);
  *service = std::make_unique<ClusterQueryService>(options);
  const Clock::time_point start = Clock::now();
  const ebi::Status status = (*service)->Start(std::move(clone), Specs());
  const double seconds = SecondsSince(start);
  outcome.Attempt();
  if (!status.ok()) {
    outcome.Fail("cluster Start: " + status.ToString());
  }
  return seconds;
}

void Run::Cluster() {
  const auto schema = MakeSchema(kClusterRows, args_.seed);
  const Table& base = *schema->sales;
  std::printf("info benchmark_rss_mb %.1f\n", CurrentRssMb());

  cluster::ClusterOptions options;
  options.shards = 4;
  options.partition = cluster::PartitionKind::kRange;
  options.split_points = ProductQuartiles(base);
  options.key_column = "product";
  options.shard_options.worker_threads = 1;
  std::unique_ptr<ClusterQueryService> service;
  EndToEnd e;
  e.setup_s.push_back(TimedClusterStart(base, options, &service, outcome_));
  size_t index_bytes = 0;
  for (size_t shard = 0; shard < options.shards; ++shard) {
    index_bytes += IndexBytes(service->shard(shard));
  }
  std::printf("info index_bytes %zu\n", index_bytes);

  // Two closed-loop clients, so a small queue forms at the shards. With one
  // client the vCPUs idled between queries, and every query waited for the
  // host to wake the shard workers' vCPUs: on a shared host, five runs
  // alternated with five two-client runs spread 0.42 of the median in
  // query_p99_ms against 0.08 for two clients.
  constexpr size_t kClients = 2;
  // The traced run's fixed op list, and its repeat share (see Olap()).
  std::vector<Query> ops;
  {
    SplitMix draw(Derive(args_.seed, 3));
    for (size_t i = 0; i < kClients * kTracedOpsPerClient; ++i) {
      ops.push_back(ClusterQuery(draw));
    }
  }
  std::set<std::string> op_keys;
  for (const Query& q : ops) {
    op_keys.insert(QueryKey(q));
  }
  const double op_list_repeat_share =
      1.0 - static_cast<double>(op_keys.size()) /
                static_cast<double>(ops.size());
  std::printf("info op_list_repeat_share %.4f over %zu draws\n",
              op_list_repeat_share, ops.size());

  // The cluster's answers to `n` seeded probe queries, untimed.
  auto probe_answers = [&](int n) {
    std::vector<std::pair<Query, BitVector>> answers;
    SplitMix probe(Derive(args_.seed, 6));
    for (int k = 0; k < n; ++k) {
      Query q = ClusterQuery(probe);
      auto got = service->Select(q);
      outcome_.Attempt();
      if (got.ok()) {
        answers.emplace_back(q, got.value().selection.rows);
      } else {
        outcome_.Fail("probe select: " + got.status().ToString());
      }
    }
    return answers;
  };

  std::mutex sampled_mu;
  std::vector<std::pair<Query, BitVector>> sampled;
  std::mutex keys_mu;
  std::set<std::string> keys;
  size_t repeats = 0;
  size_t draws = 0;

  // One cluster query; traced runs add the layer samples and replays.
  auto one_query = [&](const Query& q, bool traced, uint64_t op,
                       std::vector<double>* latencies) {
    {
      const std::lock_guard<std::mutex> lock(keys_mu);
      ++draws;
      repeats += keys.insert(QueryKey(q)).second ? 0 : 1;
    }
    const uint32_t root = traced ? tracer_.NextId() : 0;
    const Clock::time_point start = Clock::now();
    ebi::Result<cluster::ClusterResult> got = ebi::Status::Internal("not run");
    {
      std::shared_lock<std::shared_mutex> gate(g_replay_gate, std::defer_lock);
      if (traced) {
        gate.lock();
      }
      got = service->Select(q);
    }
    const Clock::time_point end = Clock::now();
    outcome_.Attempt();
    if (!got.ok() || got.value().partial) {
      outcome_.Fail("cluster select: " + got.status().ToString());
      return;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    latencies->push_back(ms);
    if (op % 16 == 0) {
      const std::lock_guard<std::mutex> lock(sampled_mu);
      if (sampled.size() < kOracleSamples) {
        sampled.emplace_back(q, got.value().selection.rows);
      }
    }
    if (!traced) {
      return;
    }
    const cluster::ClusterResult& result = got.value();
    tracer_.Record(op, tracer_.NextId(), root, "cluster.select", start, end);
    tracer_.samples.Add("count.fanout",
                        static_cast<double>(result.visited_shards.size()));
    double slowest = 0;
    for (const cluster::ShardOutcome& shard : result.outcomes) {
      tracer_.samples.Add("cluster.shard_ms", shard.latency_ms);
      slowest = std::max(slowest, shard.latency_ms);
    }
    tracer_.samples.Add("cluster.gather_ms", ms - slowest);
    {
      // Serve layer of each visited shard, under the same load.
      const std::shared_lock<std::shared_mutex> gate(g_replay_gate);
      for (size_t s : result.visited_shards) {
        auto served = service->shard(s).Select(q);
        if (served.ok()) {
          tracer_.samples.Add("serve.queue_ms", served.value().queue_ms);
          tracer_.samples.Add("serve.run_ms", served.value().run_ms);
        }
      }
    }
    {
      const std::unique_lock<std::shared_mutex> gate(g_replay_gate);
      // A cluster query's counts sum over its visited shards.
      ReplayCounts total;
      for (size_t s : result.visited_shards) {
        const ReplayCounts shard =
            ReplayQuery(tracer_, op, root, service->shard(s), q, outcome_);
        total.reductions += shard.reductions;
        total.vectors += shard.vectors;
        total.pages += shard.pages;
      }
      AddQueryCounts(tracer_, total);
    }
    tracer_.Record(op, root, 0, "op", start, Clock::now());
  };

  if (args_.trace) {
    auto run_list = [&](bool traced) {
      Samples latencies;
      std::atomic<size_t> next{0};
      RunClients(kClients, [&](size_t) {
        std::vector<double> mine;
        for (size_t i = next.fetch_add(1); i < ops.size();
             i = next.fetch_add(1)) {
          one_query(ops[i], traced, i, &mine);
        }
        latencies.Append("query", mine);
      });
      return Median(latencies.Get("query"));
    };
    Traced t;
    t.untraced_p50 = run_list(false);
    t.traced_p50 = run_list(true);
    t.repeat_share = op_list_repeat_share;
    CheckByScan(base, sampled, outcome_);

    // Write layers: a fixed list of routed appends from one closed-loop
    // appender. Each shard's part of a batch is replayed through that
    // shard's snapshot layer and, since this cluster runs without a WAL,
    // a benchmark-owned log in the same directory.
    auto partitioner = cluster::MakePartitioner(
        cluster::PartitionKind::kRange, options.shards, options.split_points);
    const std::string replay_path = WalPath("cluster-replay");
    std::filesystem::remove(replay_path);
    auto replay_wal = engine::Wal::Open(replay_path);
    ebi::serve::SnapshotManager replay_manager;
    BatchSource batches(Derive(args_.seed, 4));
    std::vector<Rows> appended;
    size_t shard_batches = 0;
    for (size_t i = 0; partitioner.ok() && replay_wal.ok() && i < kTracedAppends;
         ++i) {
      Rows rows = batches.Next();
      appended.push_back(rows);
      std::vector<Rows> parts(options.shards);
      for (const auto& row : rows) {
        parts[partitioner.value()->ShardOf(row[0].int_value)].push_back(row);
      }
      std::vector<size_t> first_rows;
      for (size_t s = 0; s < options.shards; ++s) {
        first_rows.push_back(service->shard(s).PublishedRowCounts().back());
      }
      const uint64_t op = ops.size() + i;
      const uint32_t root = tracer_.NextId();
      const Clock::time_point start = Clock::now();
      auto epoch = service->Append(rows);
      const Clock::time_point end = Clock::now();
      outcome_.Attempt();
      if (!epoch.ok()) {
        outcome_.Fail("cluster append: " + epoch.status().ToString());
        continue;
      }
      tracer_.Record(op, tracer_.NextId(), root, "cluster.append", start, end);
      for (size_t s = 0; s < options.shards; ++s) {
        if (parts[s].empty()) {
          continue;
        }
        outcome_.Check(service->shard(s).PublishedRowCounts().back() ==
                           first_rows[s] + parts[s].size(),
                       "rows routed to shard " + std::to_string(s));
        ReplayAppend(tracer_, op, root, service->shard(s), parts[s],
                     first_rows[s], replay_manager, *replay_wal.value(),
                     outcome_);
        ++shard_batches;
      }
      tracer_.Record(op, root, 0, "op", start, Clock::now());
    }
    outcome_.Check(partitioner.ok() && replay_wal.ok(),
                   "partitioner and replay WAL");
    const auto reference = TableWithBatches(base, appended);
    CheckByScan(*reference, probe_answers(4), outcome_);
    (void)service->Shutdown();
    for (size_t s = 0; s < options.shards; ++s) {
      t.reclaimed +=
          static_cast<double>(service->shard(s).snapshots().ReclaimedCount());
    }
    service.reset();
    if (replay_wal.ok()) {
      replay_wal.value().reset();
    }
    t.replay_ms = ReplayLog(replay_path, &t.records, outcome_);
    outcome_.Check(t.records == shard_batches,
                   "replay WAL holds every shard batch");

    t.route_s = RouteSeconds(base, options.split_points, outcome_);
    ReportLayers(t);
    return;
  }

  // Warm-up (untimed): a few queries on every shard.
  {
    SplitMix warm(Derive(args_.seed, 5));
    std::vector<double> ignored;
    for (int i = 0; i < 32; ++i) {
      one_query(ClusterQuery(warm), false, 1, &ignored);
    }
    keys.clear();
    repeats = 0;
    draws = 0;
  }

  // Rounds: the client queries; then, client stopped, a burst
  // of routed appends and the round's setup and recovery samples. The
  // cluster keeps its placement in memory only, so it recovers by
  // reloading every row it had made visible: a recovery sample is Start on
  // the base table plus the rows appended so far.
  std::atomic<uint64_t> op_counter{0};
  BatchSource batches(Derive(args_.seed, 4));
  CpuRotation cpus;
  std::vector<Rows> appended;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<TimedQuery>> timed(kClients);
    if (round == 0) {
      ResetPeakRss();
    }
    const Clock::time_point begin = Clock::now();
    const double planned_s = args_.seconds / kRounds;
    const Clock::time_point deadline = After(planned_s);
    RunClients(kClients, [&](size_t c) {
      SplitMix draw(Derive(args_.seed, 10 + kClients * round + c));
      std::vector<double> mine;
      while (Clock::now() < deadline) {
        one_query(ClusterQuery(draw), false, op_counter.fetch_add(1), &mine);
        if (mine.size() > timed[c].size()) {
          timed[c].push_back({SecondsSince(begin), mine.back()});
        }
      }
    });
    e.AddRound(timed, planned_s, SecondsSince(begin));

    AppendBurst(*service, batches, &appended, &e, outcome_);
    if (round == 0) {
      e.peak_rss_mb = PeakRssMb();
    }
    const auto reloaded = TableWithBatches(base, appended);
    const Clock::time_point samples_begin = Clock::now();
    do {
      cpus.Pinned([&] {
        std::unique_ptr<ClusterQueryService> other;
        e.setup_s.push_back(
            TimedClusterStart(base, options, &other, outcome_));
        other.reset();
        e.recovery_s.push_back(
            TimedClusterStart(*reloaded, options, &other, outcome_));
      });
    } while (SecondsSince(samples_begin) < kSampleSeconds);
  }
  (void)service->Shutdown();
  service.reset();

  // Sampled answers, and a reload of the final state, against scans of
  // the unpartitioned table (global row ids follow its row order).
  const auto reference = TableWithBatches(base, appended);
  CheckByScan(*reference, sampled, outcome_);
  e.recovery_s.push_back(
      TimedClusterStart(*reference, options, &service, outcome_));
  outcome_.Check(service->router().placement()->total_rows ==
                     reference->NumRows(),
                 "reloaded placement");
  CheckByScan(*reference, probe_answers(8), outcome_);
  service.reset();
  ReportEndToEnd(e);
  std::printf("info run_repeat_share %.4f over %zu queries\n",
              static_cast<double>(repeats) /
                  static_cast<double>(std::max<size_t>(draws, 1)),
              draws);
}

int Run::Main() {
  std::filesystem::create_directories(args_.work_dir);
  std::printf("info workload %s seed %llu seconds %g trace %d\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0);
  if (args_.workload == "olap_read") {
    Olap();
  } else {
    Cluster();
  }
  if (args_.trace) {
    const std::string path = args_.work_dir + "/" + args_.workload +
                             ".spans.jsonl";
    if (!tracer_.Write(path, args_.seed, args_.workload)) {
      outcome_.Fail("cannot write " + path);
    }
  }
  outcome_.PrintErrors();
  for (const Metric& m : metrics_) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += outcome_.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome_.attempted());
  json += ", \"failed\": " + std::to_string(outcome_.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics_[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return outcome_.correct() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  const bool known = args->workload == "olap_read" ||
                     args->workload == "cluster_scatter";
  return known && have_seed && args->seconds > 0 && !args->work_dir.empty() &&
         argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: warehouse_bench --workload "
                 "<olap_read|cluster_scatter> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  Run run(args);
  return run.Main();
}
