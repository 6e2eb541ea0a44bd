#include "query/executor.h"

#include <gtest/gtest.h>

#include "index/encoded_bitmap_index.h"
#include "index/simple_bitmap_index.h"
#include "util/kernels/kernels.h"
#include "util/random.h"

namespace ebi {
namespace {

std::unique_ptr<Table> TwoColumnTable() {
  auto table = std::make_unique<Table>("SALES");
  EXPECT_TRUE(table->AddColumn("product", Column::Type::kInt64).ok());
  EXPECT_TRUE(table->AddColumn("region", Column::Type::kInt64).ok());
  const int64_t rows[][2] = {{1, 0}, {2, 1}, {1, 1}, {3, 0},
                             {2, 0}, {1, 2}, {3, 1}, {2, 2}};
  for (const auto& r : rows) {
    EXPECT_TRUE(table->AppendRow({Value::Int(r[0]), Value::Int(r[1])}).ok());
  }
  return table;
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = TwoColumnTable();
    product_index_ = std::make_unique<EncodedBitmapIndex>(
        &table_->column(0), &table_->existence(), &io_);
    region_index_ = std::make_unique<EncodedBitmapIndex>(
        &table_->column(1), &table_->existence(), &io_);
    ASSERT_TRUE(product_index_->Build().ok());
    ASSERT_TRUE(region_index_->Build().ok());
    executor_ = std::make_unique<SelectionExecutor>(table_.get(), &io_);
    executor_->RegisterIndex("product", product_index_.get());
    executor_->RegisterIndex("region", region_index_.get());
  }

  IoAccountant io_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<EncodedBitmapIndex> product_index_;
  std::unique_ptr<EncodedBitmapIndex> region_index_;
  std::unique_ptr<SelectionExecutor> executor_;
};

TEST_F(ExecutorTest, SinglePredicate) {
  const auto result = executor_->Select({Predicate::Eq("product", Value::Int(1))});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "10100100");
  EXPECT_EQ(result->count, 3u);
}

TEST_F(ExecutorTest, ConjunctionAndsBitmaps) {
  // Section 2.1's cooperativity: product = 1 AND region = 1.
  const auto result =
      executor_->Select({Predicate::Eq("product", Value::Int(1)),
                         Predicate::Eq("region", Value::Int(1))});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "00100000");
  EXPECT_EQ(result->count, 1u);
}

TEST_F(ExecutorTest, ConjunctionMatchesScan) {
  const std::vector<Predicate> query = {
      Predicate::In("product", {Value::Int(1), Value::Int(2)}),
      Predicate::Between("region", 0, 1)};
  const auto indexed = executor_->Select(query);
  const auto scanned = executor_->SelectByScan(query);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(indexed->rows, *scanned);
}

TEST_F(ExecutorTest, EmptyConjunctionSelectsAllExisting) {
  ASSERT_TRUE(table_->DeleteRow(3).ok());
  ASSERT_TRUE(product_index_->MarkDeleted(3).ok());
  ASSERT_TRUE(region_index_->MarkDeleted(3).ok());
  const auto result = executor_->Select({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 7u);
}

TEST_F(ExecutorTest, MissingIndexRejected) {
  const auto result =
      executor_->Select({Predicate::Eq("nope", Value::Int(1))});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, IoDeltaReported) {
  const auto result =
      executor_->Select({Predicate::Eq("product", Value::Int(1))});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->io.vectors_read, 0u);
  const auto second =
      executor_->Select({Predicate::Eq("product", Value::Int(2))});
  ASSERT_TRUE(second.ok());
  // Each selection reports only its own delta.
  EXPECT_EQ(second->io.vectors_read, result->io.vectors_read);
}

TEST_F(ExecutorTest, IsNullPredicate) {
  ASSERT_TRUE(table_->AppendRow({Value::Null(), Value::Int(0)}).ok());
  // Rebuild the product index so the NULL codeword exists.
  product_index_ = std::make_unique<EncodedBitmapIndex>(
      &table_->column(0), &table_->existence(), &io_);
  ASSERT_TRUE(product_index_->Build().ok());
  region_index_ = std::make_unique<EncodedBitmapIndex>(
      &table_->column(1), &table_->existence(), &io_);
  ASSERT_TRUE(region_index_->Build().ok());
  executor_ = std::make_unique<SelectionExecutor>(table_.get(), &io_);
  executor_->RegisterIndex("product", product_index_.get());
  executor_->RegisterIndex("region", region_index_.get());

  const auto result = executor_->Select({Predicate::IsNull("product")});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 1u);
  EXPECT_TRUE(result->rows.Get(8));
}

TEST_F(ExecutorTest, DnfCrossColumnOr) {
  // product = 1 OR region = 0.
  const std::vector<std::vector<Predicate>> dnf = {
      {Predicate::Eq("product", Value::Int(1))},
      {Predicate::Eq("region", Value::Int(0))}};
  const auto result = executor_->SelectDnf(dnf);
  ASSERT_TRUE(result.ok());
  // product=1: rows 0,2,5; region=0: rows 0,3,4 -> union {0,2,3,4,5}.
  EXPECT_EQ(result->rows.ToString(), "10111100");
  const auto scanned = executor_->SelectDnfByScan(dnf);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(result->rows, *scanned);
}

TEST_F(ExecutorTest, DnfOfConjunctions) {
  // (product = 1 AND region = 1) OR (product = 2 AND region = 2).
  const std::vector<std::vector<Predicate>> dnf = {
      {Predicate::Eq("product", Value::Int(1)),
       Predicate::Eq("region", Value::Int(1))},
      {Predicate::Eq("product", Value::Int(2)),
       Predicate::Eq("region", Value::Int(2))}};
  const auto result = executor_->SelectDnf(dnf);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.ToString(), "00100001");
  EXPECT_EQ(result->count, 2u);
}

TEST_F(ExecutorTest, EmptyDnfIsFalse) {
  const auto result = executor_->SelectDnf({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0u);
}

TEST_F(ExecutorTest, DnfIoAccumulatesAcrossBranches) {
  const std::vector<std::vector<Predicate>> dnf = {
      {Predicate::Eq("product", Value::Int(1))},
      {Predicate::Eq("product", Value::Int(2))}};
  const auto result = executor_->SelectDnf(dnf);
  ASSERT_TRUE(result.ok());
  const auto single =
      executor_->Select({Predicate::Eq("product", Value::Int(1))});
  ASSERT_TRUE(single.ok());
  EXPECT_GE(result->io.vectors_read, 2 * single->io.vectors_read);
}

TEST(ExecutorBlockedTest, ConjunctionsAcrossBlocksMatchScan) {
  // A row count that is no multiple of 64 and spans several blocks of the
  // blocked AND-and-count pass, with deleted rows scattered through it.
  const size_t n = 3 * kernels::kBlockWords * 64 + 37;
  Table table("WIDE");
  const std::vector<std::string> columns = {"a", "b", "c"};
  for (const std::string& name : columns) {
    ASSERT_TRUE(table.AddColumn(name, Column::Type::kInt64).ok());
  }
  Rng rng(64);
  for (size_t row = 0; row < n; ++row) {
    ASSERT_TRUE(table
                    .AppendRow({Value::Int(static_cast<int64_t>(
                                    rng.UniformInt(40))),
                                Value::Int(static_cast<int64_t>(
                                    rng.UniformInt(6))),
                                Value::Int(static_cast<int64_t>(
                                    rng.UniformInt(3)))})
                    .ok());
  }
  IoAccountant io;
  std::vector<std::unique_ptr<EncodedBitmapIndex>> indexes;
  SelectionExecutor executor(&table, &io);
  for (size_t c = 0; c < columns.size(); ++c) {
    indexes.push_back(std::make_unique<EncodedBitmapIndex>(
        &table.column(c), &table.existence(), &io));
    ASSERT_TRUE(indexes.back()->Build().ok());
    executor.RegisterIndex(columns[c], indexes.back().get());
  }
  for (size_t row = 5; row < n; row += 997) {
    ASSERT_TRUE(table.DeleteRow(row).ok());
    for (const auto& index : indexes) {
      ASSERT_TRUE(index->MarkDeleted(row).ok());
    }
  }
  const std::vector<std::vector<Predicate>> queries = {
      {},
      {Predicate::Between("a", 3, 30)},
      {Predicate::Between("a", 3, 30),
       Predicate::In("b", {Value::Int(0), Value::Int(2), Value::Int(5)})},
      {Predicate::Between("a", 3, 30),
       Predicate::In("b", {Value::Int(0), Value::Int(2), Value::Int(5)}),
       Predicate::NotEq("c", Value::Int(1))}};
  for (const std::vector<Predicate>& query : queries) {
    const auto indexed = executor.Select(query);
    const auto scanned = executor.SelectByScan(query);
    ASSERT_TRUE(indexed.ok());
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(indexed->rows, *scanned) << query.size() << " conjuncts";
    EXPECT_EQ(indexed->count, scanned->Count()) << query.size();
    EXPECT_TRUE(indexed->rows.TailIsClean());
  }
}

TEST_F(ExecutorTest, PredicateToString) {
  EXPECT_EQ(Predicate::Eq("a", Value::Int(3)).ToString(), "a = 3");
  EXPECT_EQ(Predicate::In("a", {Value::Int(1), Value::Int(2)}).ToString(),
            "a IN {1, 2}");
  EXPECT_EQ(Predicate::Between("a", 2, 5).ToString(), "2 <= a <= 5");
  EXPECT_EQ(Predicate::IsNull("a").ToString(), "a IS NULL");
}

TEST_F(ExecutorTest, PredicateWidth) {
  const Column& product = table_->column(0);
  EXPECT_EQ(Predicate::Eq("product", Value::Int(1)).Width(product), 1u);
  EXPECT_EQ(
      Predicate::In("product", {Value::Int(1), Value::Int(2)}).Width(product),
      2u);
  EXPECT_EQ(Predicate::Between("product", 1, 3).Width(product), 3u);
}

}  // namespace
}  // namespace ebi
