// google-benchmark microbenchmarks for the bitmap substrate: the logical
// operations every bitmap index in the library bottoms out in, plus
// compressed-form operations and the exact minimizer.

#include <benchmark/benchmark.h>

#include "boolean/reduction.h"
#include "util/bitvector.h"
#include "util/ewah_bitmap.h"
#include "util/random.h"

namespace ebi {
namespace {

BitVector RandomBits(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) {
      v.Set(i);
    }
  }
  return v;
}

void BM_BitVectorAnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BitVector a = RandomBits(n, 0.5, 1);
  const BitVector b = RandomBits(n, 0.5, 2);
  for (auto _ : state) {
    BitVector out = And(a, b);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n / 4);
}
BENCHMARK(BM_BitVectorAnd)->Range(1 << 10, 1 << 22);

void BM_BitVectorOrInPlace(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  BitVector a = RandomBits(n, 0.5, 3);
  const BitVector b = RandomBits(n, 0.5, 4);
  for (auto _ : state) {
    a.OrWith(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_BitVectorOrInPlace)->Range(1 << 10, 1 << 22);

void BM_BitVectorCount(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BitVector a = RandomBits(n, 0.5, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
}
BENCHMARK(BM_BitVectorCount)->Range(1 << 10, 1 << 22);

void BM_EwahCompressSparse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BitVector a = RandomBits(n, 0.01, 9);
  for (auto _ : state) {
    EwahBitmap ewah = EwahBitmap::Compress(a);
    benchmark::DoNotOptimize(ewah);
  }
}
BENCHMARK(BM_EwahCompressSparse)->Range(1 << 12, 1 << 20);

void BM_EwahAndSparse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const EwahBitmap a = EwahBitmap::Compress(RandomBits(n, 0.01, 10));
  const EwahBitmap b = EwahBitmap::Compress(RandomBits(n, 0.01, 11));
  for (auto _ : state) {
    EwahBitmap out = EwahBitmap::And(a, b);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_EwahAndSparse)->Range(1 << 12, 1 << 20);

void BM_EwahOrDense(benchmark::State& state) {
  // Half-dense inputs: literal-dominated buffers, the EWAH worst case
  // (bench/sparsity prints its throughput ratio to the plain OR).
  const size_t n = static_cast<size_t>(state.range(0));
  const EwahBitmap a = EwahBitmap::Compress(RandomBits(n, 0.5, 12));
  const EwahBitmap b = EwahBitmap::Compress(RandomBits(n, 0.5, 13));
  for (auto _ : state) {
    EwahBitmap out = EwahBitmap::Or(a, b);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n / 4);
}
BENCHMARK(BM_EwahOrDense)->Range(1 << 12, 1 << 20);

void BM_EwahDecompress(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const EwahBitmap a = EwahBitmap::Compress(RandomBits(n, 0.01, 14));
  for (auto _ : state) {
    BitVector out = a.Decompress();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_EwahDecompress)->Range(1 << 12, 1 << 20);

void BM_ReduceConsecutiveInList(benchmark::State& state) {
  const size_t delta = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> onset(delta);
  for (size_t i = 0; i < delta; ++i) {
    onset[i] = i;
  }
  for (auto _ : state) {
    Cover cover = ReduceRetrievalFunction(onset, {}, 10);
    benchmark::DoNotOptimize(cover);
  }
}
BENCHMARK(BM_ReduceConsecutiveInList)->RangeMultiplier(4)->Range(4, 1024);

}  // namespace
}  // namespace ebi
