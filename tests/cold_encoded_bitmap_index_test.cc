// EncodedBitmapIndex with its slices on storage-engine pages ("cold"),
// checked against the same index with resident slices: answers, the I/O
// each residency charges, maintenance, and concurrent readers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <tuple>

#include "encoding/encoders.h"
#include "exec/thread_pool.h"
#include "index/encoded_bitmap_index.h"
#include "storage/engine/storage_engine.h"
#include "test_util.h"
#include "util/bit_util.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;
using testing_util::ScanEquals;
using testing_util::ScanRange;

// ---------------------------------------------------------------------------
// One index, two residencies: the same mapping and cover code over
// resident slices or storage-engine pages, in every physical format.

enum class Residency { kResident, kEngine };

using ResidencyParam = std::tuple<Residency, BitmapFormat>;

class EncodedResidencyTest : public ::testing::TestWithParam<ResidencyParam> {
 protected:
  bool on_engine() const {
    return std::get<0>(GetParam()) == Residency::kEngine;
  }

  /// Builds the index over `table`; engine residency gets a pool of
  /// `pool_pages` pages charging the index's accountant.
  void Init(std::unique_ptr<Table> table, size_t pool_pages = 64,
            EncodedBitmapIndexOptions options = {}) {
    index_.reset();
    table_ = std::move(table);
    engine_ = testing_util::ScratchEngine("encoded_residency", pool_pages,
                                          &io_);
    ASSERT_NE(engine_, nullptr);
    options.format = std::get<1>(GetParam());
    options.engine = on_engine() ? engine_.get() : nullptr;
    index_ = std::make_unique<EncodedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_, options);
    ASSERT_TRUE(index_->Build().ok());
  }

  /// Every equality and a sweep of ranges against the scan oracle.
  void ExpectMatchesScan(int64_t cardinality) {
    for (int64_t v = 0; v < cardinality; ++v) {
      const auto got = index_->EvaluateEquals(Value::Int(v));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, ScanEquals(*table_, table_->column(0), v)) << v;
    }
    for (int64_t lo = 0; lo < cardinality; lo += 3) {
      const auto got = index_->EvaluateRange(lo, lo + 7);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, ScanRange(*table_, table_->column(0), lo, lo + 7))
          << lo;
    }
  }

  /// Slices the reduced cover for `values` references.
  int ReferencedSlices(const std::vector<Value>& values) const {
    const auto cover = index_->CoverForIn(values);
    EXPECT_TRUE(cover.ok());
    return cover.ok() ? DistinctVariables(*cover) : -1;
  }

  IoAccountant io_;
  std::unique_ptr<engine::StorageEngine> engine_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<EncodedBitmapIndex> index_;
};

TEST_P(EncodedResidencyTest, AnswersMatchScan) {
  Init(RandomIntTable(600, 40, 17, /*null_fraction=*/0.05));
  EXPECT_EQ(index_->NumVectors(),
            static_cast<size_t>(Log2Ceil(40 + 2)));  // + void, NULL.
  EXPECT_EQ(index_->slices().empty(), on_engine());
  ExpectMatchesScan(40);
  const auto in = index_->EvaluateIn(
      {Value::Int(3), Value::Int(11), Value::Int(29), Value::Int(404)});
  ASSERT_TRUE(in.ok());
  BitVector expected = ScanEquals(*table_, table_->column(0), 3);
  expected.OrWith(ScanEquals(*table_, table_->column(0), 11));
  expected.OrWith(ScanEquals(*table_, table_->column(0), 29));
  EXPECT_EQ(*in, expected);
}

TEST_P(EncodedResidencyTest, MatchesResidentPlainTwin) {
  auto table = RandomIntTable(400, 60, 31, 0.05);
  IoAccountant twin_io;
  EncodedBitmapIndex twin(&table->column(0), &table->existence(), &twin_io);
  ASSERT_TRUE(twin.Build().ok());
  Init(std::move(table));
  EXPECT_EQ(index_->Name(), std::string("encoded-bitmap") +
                                BitmapFormatSuffix(std::get<1>(GetParam())));
  EXPECT_EQ(index_->NumVectors(), twin.NumVectors());
  Rng rng(77);
  for (int q = 0; q < 15; ++q) {
    const int64_t lo = static_cast<int64_t>(rng.UniformInt(60));
    const int64_t hi = lo + static_cast<int64_t>(rng.UniformInt(20));
    const auto a = twin.EvaluateRange(lo, hi);
    const auto b = index_->EvaluateRange(lo, hi);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << lo << ".." << hi;
  }
}

TEST_P(EncodedResidencyTest, ReadsChargeTheResidencyContract) {
  // One pooled page for slices of one page each: a query over r >= 2
  // slices evicts each of them before it is read again, so a repeat
  // misses on every one.
  Init(RandomIntTable(3000, 200, 43), /*pool_pages=*/1);
  const std::vector<Value> values = {Value::Int(17)};
  const auto cover = index_->CoverForIn(values);
  ASSERT_TRUE(cover.ok());
  const int r = DistinctVariables(*cover);
  ASSERT_GE(r, 2);
  ASSERT_TRUE(index_->EvaluateIn(values).ok());
  const uint64_t misses_before =
      on_engine() ? engine_->pool_stats().misses : 0;
  io_.Reset();
  ASSERT_TRUE(index_->EvaluateIn(values).ok());
  EXPECT_EQ(io_.stats().vectors_read, static_cast<uint64_t>(r));
  if (!on_engine()) {
    // Resident: one vector read of each referenced slice's physical
    // bytes.
    const uint64_t vars = VariablesOf(*cover);
    uint64_t bytes = 0;
    for (size_t i = 0; i < index_->NumVectors(); ++i) {
      if ((vars >> i) & 1) {
        bytes += index_->slices()[i].SizeBytes();
      }
    }
    EXPECT_EQ(io_.stats().bytes_read, bytes);
    return;
  }
  // Engine: every missed page, plus one vector touch per missed slice.
  const uint64_t missed_pages = engine_->pool_stats().misses - misses_before;
  EXPECT_EQ(missed_pages, static_cast<uint64_t>(r));
  EXPECT_EQ(io_.stats().pages_read, missed_pages);
  EXPECT_GT(io_.stats().bytes_read, 0u);
}

TEST_P(EncodedResidencyTest, RepeatsChargeNothingOnlyWhenPooled) {
  Init(RandomIntTable(300, 20, 41), /*pool_pages=*/64);
  io_.Reset();
  ASSERT_TRUE(index_->EvaluateEquals(Value::Int(3)).ok());
  const IoStats first = io_.stats();
  const engine::BufferPoolStats before = engine_->pool_stats();
  io_.Reset();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(index_->EvaluateEquals(Value::Int(3)).ok());
  }
  if (!on_engine()) {
    // Resident slices have no pool: every repeat is charged again.
    EXPECT_EQ(io_.stats().vectors_read, 5 * first.vectors_read);
    return;
  }
  // Every slice stayed pooled: no page, byte or vector is charged.
  EXPECT_EQ(io_.stats(), IoStats());
  EXPECT_GT(engine_->pool_stats().hits, before.hits);
  EXPECT_EQ(engine_->pool_stats().misses, before.misses);
}

TEST_P(EncodedResidencyTest, OnlyReferencedSlicesAreRead) {
  Init(IntTable({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}),
       /*pool_pages=*/1);
  // Values 7..14 take codes 8..15 (code 0 is void): the reduced
  // expression is B3 alone.
  std::vector<Value> values;
  for (int64_t v = 7; v <= 14; ++v) {
    values.push_back(Value::Int(v));
  }
  const int r = ReferencedSlices(values);
  ASSERT_LT(r, static_cast<int>(index_->NumVectors()));
  const uint64_t misses_before =
      on_engine() ? engine_->pool_stats().misses : 0;
  io_.Reset();
  const auto result = index_->EvaluateIn(values);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Count(), 8u);
  EXPECT_LE(io_.stats().vectors_read, static_cast<uint64_t>(r));
  if (on_engine()) {
    EXPECT_LE(engine_->pool_stats().misses - misses_before,
              static_cast<uint64_t>(r));
  }
}

TEST_P(EncodedResidencyTest, TinyPoolForcesFaults) {
  Init(RandomIntTable(300, 200, 43), /*pool_pages=*/1);
  ASSERT_TRUE(index_->EvaluateRange(0, 150).ok());
  io_.Reset();
  ASSERT_TRUE(index_->EvaluateRange(0, 150).ok());
  // More referenced slices than pool pages: some must fault and charge.
  EXPECT_GT(io_.stats().vectors_read, 0u);
  if (on_engine()) {
    EXPECT_GT(io_.stats().pages_read, 0u);
  }
}

TEST_P(EncodedResidencyTest, AppendsWidthExpansionAndDeletes) {
  Init(IntTable({0}));
  for (int64_t v = 1; v < 20; ++v) {
    ASSERT_TRUE(table_->AppendRow({Value::Int(v)}).ok());
    ASSERT_TRUE(index_->Append(static_cast<size_t>(v)).ok());
  }
  EXPECT_EQ(index_->NumVectors(), static_cast<size_t>(Log2Ceil(21)));
  ASSERT_TRUE(table_->AppendRow({Value::Int(2)}).ok());
  ASSERT_TRUE(index_->Append(20).ok());
  ASSERT_TRUE(table_->DeleteRow(2).ok());
  ASSERT_TRUE(index_->MarkDeleted(2).ok());
  ExpectMatchesScan(20);
}

TEST_P(EncodedResidencyTest, AppendBatchExpandsTheDomain) {
  Init(IntTable({1, 2, 3}));
  const size_t first = table_->NumRows();
  for (int64_t v = 4; v < 40; ++v) {
    ASSERT_TRUE(table_->AppendRow({Value::Int(v % 37)}).ok());
  }
  ASSERT_TRUE(index_->AppendBatch(first, table_->NumRows() - first).ok());
  EXPECT_EQ(index_->NumVectors(), static_cast<size_t>(Log2Ceil(37 + 1)));
  ExpectMatchesScan(40);
}

TEST_P(EncodedResidencyTest, IsNullHasItsOwnCodeword) {
  Init(IntTable({1, INT64_MIN, 2, INT64_MIN, 1}));
  ASSERT_TRUE(index_->SupportsIsNull());
  const auto nulls = index_->EvaluateIsNull();
  ASSERT_TRUE(nulls.ok());
  EXPECT_EQ(nulls->ToString(), "01010");
  const auto one = index_->EvaluateEquals(Value::Int(1));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->ToString(), "10001");
}

TEST_P(EncodedResidencyTest, GrayEncodingAndReencode) {
  EncodedBitmapIndexOptions options;
  options.strategy = EncodingStrategy::kGray;
  Init(RandomIntTable(500, 25, 11), 64, options);
  ExpectMatchesScan(25);
  // Re-encoding rewrites every slice under the new mapping.
  EncoderOptions eo;
  eo.reserve_void_zero = true;
  eo.encode_null = false;
  auto sequential = MakeSequentialMapping(25, eo);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(index_->Reencode(std::move(sequential).value()).ok());
  ExpectMatchesScan(25);
}

TEST_P(EncodedResidencyTest, CloneReboundOnlyForResidentSlices) {
  Init(RandomIntTable(100, 10, 3));
  const auto clone = index_->CloneRebound(&table_->column(0),
                                          &table_->existence(), &io_);
  if (on_engine()) {
    EXPECT_EQ(clone.status().code(), StatusCode::kUnimplemented);
  } else {
    ASSERT_TRUE(clone.ok());
    EXPECT_EQ(*(*clone)->EvaluateEquals(Value::Int(4)),
              ScanEquals(*table_, table_->column(0), 4));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllResidencies, EncodedResidencyTest,
    ::testing::Combine(::testing::Values(Residency::kResident,
                                         Residency::kEngine),
                       ::testing::Values(BitmapFormat::kPlain,
                                         BitmapFormat::kEwah)),
    [](const ::testing::TestParamInfo<ResidencyParam>& param_info) {
      return std::string(std::get<0>(param_info.param) == Residency::kEngine
                             ? "Engine"
                             : "Resident") +
             (std::get<1>(param_info.param) == BitmapFormat::kEwah
                  ? "Ewah"
                  : "Plain");
    });

// Concurrent readers on one engine-resident index whose pool is smaller
// than its slice set, so pages are evicted while other readers fetch and
// while the engine prefetches asynchronously — the reader contract the
// serve layer relies on, for both residencies. Run under ThreadSanitizer
// in CI.
TEST(EncodedBitmapIndexConcurrencyTest, EngineResidentReadersRace) {
  auto table = RandomIntTable(4000, 100, 29, /*null_fraction=*/0.02);
  IoAccountant io;
  exec::ThreadPool prefetcher(1);
  auto engine =
      testing_util::ScratchEngine("encoded_readers", 3, &io, &prefetcher);
  ASSERT_NE(engine, nullptr);
  EncodedBitmapIndexOptions options;
  options.engine = engine.get();
  EncodedBitmapIndex index(&table->column(0), &table->existence(), &io,
                           options);
  ASSERT_TRUE(index.Build().ok());
  ASSERT_GT(index.NumVectors(), 3u);

  std::atomic<int> wrong{0};
  {
    exec::ThreadPool pool(4);
    for (int t = 0; t < 4; ++t) {
      pool.Submit([&, t] {
        Rng rng(100 + static_cast<uint64_t>(t));
        for (int q = 0; q < 40; ++q) {
          const int64_t lo = static_cast<int64_t>(rng.UniformInt(100));
          const int64_t hi = lo + static_cast<int64_t>(rng.UniformInt(12));
          const auto range = index.EvaluateRange(lo, hi);
          const auto in = index.EvaluateIn({Value::Int(lo), Value::Int(hi)});
          BitVector expected_in = ScanEquals(*table, table->column(0), lo);
          expected_in.OrWith(ScanEquals(*table, table->column(0), hi));
          if (!range.ok() || !in.ok() ||
              *range != ScanRange(*table, table->column(0), lo, hi) ||
              *in != expected_in) {
            wrong.fetch_add(1);
          }
        }
      });
    }
  }  // Joins the workers.
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(engine->pool_stats().evictions, 0u);
}

}  // namespace
}  // namespace ebi
