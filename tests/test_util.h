#ifndef EBI_TESTS_TEST_UTIL_H_
#define EBI_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/engine/storage_engine.h"
#include "storage/table.h"
#include "util/bitvector.h"
#include "util/random.h"

namespace ebi {
namespace testing_util {

/// Opens a scratch storage engine under the test temp dir (unlinked on
/// close) whose pool holds `pool_pages` pages and charges `io`. `tag`
/// names the file; keep it unique across test binaries, which may run
/// concurrently. A `prefetch_pool` must outlive the engine.
inline std::unique_ptr<engine::StorageEngine> ScratchEngine(
    const std::string& tag, size_t pool_pages, IoAccountant* io,
    exec::ThreadPool* prefetch_pool = nullptr) {
  static int opened = 0;
  engine::StorageEngineOptions options;
  options.pool_pages = pool_pages;
  options.io = io;
  options.prefetch_pool = prefetch_pool;
  options.remove_on_close = true;
  auto engine = engine::StorageEngine::Open(
      std::string(::testing::TempDir()) + "/ebi_" + tag + "_" +
          std::to_string(opened++) + ".bin",
      options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

/// Builds a one-column int64 table from explicit values (INT64_MIN means
/// NULL for brevity in tests).
inline std::unique_ptr<Table> IntTable(const std::vector<int64_t>& values) {
  auto table = std::make_unique<Table>("T");
  EXPECT_TRUE(table->AddColumn("a", Column::Type::kInt64).ok());
  for (int64_t v : values) {
    if (v == INT64_MIN) {
      EXPECT_TRUE(table->AppendRow({Value::Null()}).ok());
    } else {
      EXPECT_TRUE(table->AppendRow({Value::Int(v)}).ok());
    }
  }
  return table;
}

/// Builds a random one-column int64 table with values in [0, cardinality),
/// optional NULLs.
inline std::unique_ptr<Table> RandomIntTable(size_t rows, size_t cardinality,
                                             uint64_t seed,
                                             double null_fraction = 0.0) {
  auto table = std::make_unique<Table>("T");
  EXPECT_TRUE(table->AddColumn("a", Column::Type::kInt64).ok());
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    if (null_fraction > 0 && rng.Bernoulli(null_fraction)) {
      EXPECT_TRUE(table->AppendRow({Value::Null()}).ok());
    } else {
      EXPECT_TRUE(table
                      ->AppendRow({Value::Int(static_cast<int64_t>(
                          rng.UniformInt(cardinality)))})
                      .ok());
    }
  }
  return table;
}

/// Reference bitmap for "column == v" over existing rows.
inline BitVector ScanEquals(const Table& table, const Column& column,
                            int64_t v) {
  BitVector out(table.NumRows());
  for (size_t row = 0; row < table.NumRows(); ++row) {
    if (!table.RowExists(row)) {
      continue;
    }
    const Value cell = column.ValueAt(row);
    if (!cell.is_null() && cell.int_value == v) {
      out.Set(row);
    }
  }
  return out;
}

/// Reference bitmap for "lo <= column <= hi" over existing rows.
inline BitVector ScanRange(const Table& table, const Column& column,
                           int64_t lo, int64_t hi) {
  BitVector out(table.NumRows());
  for (size_t row = 0; row < table.NumRows(); ++row) {
    if (!table.RowExists(row)) {
      continue;
    }
    const Value cell = column.ValueAt(row);
    if (!cell.is_null() && cell.int_value >= lo && cell.int_value <= hi) {
      out.Set(row);
    }
  }
  return out;
}

}  // namespace testing_util
}  // namespace ebi

#endif  // EBI_TESTS_TEST_UTIL_H_
