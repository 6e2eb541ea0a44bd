// Engine-resident encoded bitmap index: the k slice vectors live as pages
// of a storage engine behind an LRU buffer pool, so the paper's cost
// metric (vectors read) becomes actual page faults. Sweeps the pool size
// to show the working-set behaviour: once the pool holds the pages the
// reduced retrieval expressions reference, queries stop touching the
// disk.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "index/encoded_bitmap_index.h"
#include "storage/engine/storage_engine.h"
#include "workload/query_mix.h"

namespace ebi {
namespace {

void RunQueries(EncodedBitmapIndex* index,
                const std::vector<Predicate>& queries) {
  for (const Predicate& q : queries) {
    switch (q.kind) {
      case Predicate::Kind::kEquals:
        bench::CheckOk(index->EvaluateEquals(q.value));
        break;
      case Predicate::Kind::kIn:
        bench::CheckOk(index->EvaluateIn(q.values));
        break;
      default:
        bench::CheckOk(index->EvaluateRange(q.lo, q.hi));
    }
  }
}

void Run() {
  const size_t n = 50000;
  const size_t m = 500;
  auto table = bench::RoundRobinTable(n, m);

  QueryMixConfig mix;
  mix.num_queries = 120;
  mix.max_delta = 100;
  mix.seed = 5;
  const auto queries = GenerateQueryMix("a", m, mix);

  std::printf("=== Engine-resident encoded bitmap index: pool sweep ===\n");
  std::printf("n = %zu rows, |A| = %zu (k = 10 slices), %zu-query mix\n",
              n, m, queries.size());
  std::printf(
      "Page-level pool counters over one pass of the mix. Build writes\n"
      "every slice through the pool, which is the warm-up.\n\n");
  std::printf("%-11s %-14s %-12s %-12s %-10s\n", "pool_pages",
              "vector_reads", "page_hits", "page_misses", "hit_rate");

  for (size_t pool : std::vector<size_t>{1, 2, 4, 8, 16, 32}) {
    IoAccountant io;
    engine::StorageEngineOptions engine_options;
    engine_options.pool_pages = pool;
    engine_options.io = &io;
    engine_options.remove_on_close = true;
    const std::unique_ptr<engine::StorageEngine> engine =
        bench::CheckOk(engine::StorageEngine::Open(
            "/tmp/ebi_cold_index_" + std::to_string(pool) + ".bin",
            engine_options));
    EncodedBitmapIndexOptions options;
    options.engine = engine.get();
    EncodedBitmapIndex index(&table->column(0), &table->existence(), &io,
                             options);
    bench::CheckOk(index.Build());
    io.Reset();
    const engine::BufferPoolStats before = engine->pool_stats();
    RunQueries(&index, queries);
    const engine::BufferPoolStats after = engine->pool_stats();
    const uint64_t hits = after.hits - before.hits;
    const uint64_t misses = after.misses - before.misses;
    std::printf("%-11zu %-14llu %-12llu %-12llu %-10.2f\n", pool,
                static_cast<unsigned long long>(io.stats().vectors_read),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                hits + misses == 0 ? 0.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(hits + misses));
  }
  std::printf(
      "\n(The slices span 20 pages: with a pool of at least that many,\n"
      " every query after warm-up is answered from memory; tiny pools page\n"
      " per query — but even then a query faults at most the vectors its\n"
      " *reduced* expression needs.)\n");
}

}  // namespace
}  // namespace ebi

int main() {
  ebi::Run();
  return 0;
}
