// google-benchmark microbenchmarks for the bitmap substrate: the logical
// operations every bitmap index in the library bottoms out in, plus
// compressed-form operations, the exact minimizer and the blocked cover
// evaluator.

#include <benchmark/benchmark.h>

#include "boolean/cover.h"
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

void BM_EvaluateCover(benchmark::State& state) {
  // The combine half of an encoded IN selection, apart from any serving
  // tier: a 1000-value column under the sequential 10-bit mapping (value
  // v has code v; codes 1000..1023 are don't-cares), and the reduced
  // cover of `delta` random values evaluated over n rows.
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t delta = static_cast<size_t>(state.range(1));
  constexpr int kWidth = 10;
  constexpr uint64_t kValues = 1000;
  Rng rng(42);
  std::vector<BitVector> slices(kWidth, BitVector(n));
  for (size_t row = 0; row < n; ++row) {
    const uint64_t code = rng.UniformInt(kValues);
    for (int i = 0; i < kWidth; ++i) {
      if ((code >> i) & 1) {
        slices[static_cast<size_t>(i)].Set(row);
      }
    }
  }
  std::vector<uint64_t> values(kValues);
  for (uint64_t v = 0; v < kValues; ++v) {
    values[v] = v;
  }
  rng.Shuffle(&values);
  const std::vector<uint64_t> onset(values.begin(), values.begin() + delta);
  std::vector<uint64_t> dontcare;
  for (uint64_t code = kValues; code < (uint64_t{1} << kWidth); ++code) {
    dontcare.push_back(code);
  }
  const Cover cover = ReduceRetrievalFunction(onset, dontcare, kWidth);
  std::vector<const BitVector*> ptrs;
  for (const BitVector& slice : slices) {
    ptrs.push_back(&slice);
  }
  for (auto _ : state) {
    BitVector out = EvaluateCover(cover, ptrs, n);
    benchmark::DoNotOptimize(out);
  }
  state.counters["cubes"] = static_cast<double>(cover.size());
  state.counters["literals"] = static_cast<double>(TotalLiterals(cover));
  state.counters["vectors"] = static_cast<double>(DistinctVariables(cover));
}
BENCHMARK(BM_EvaluateCover)
    ->ArgsProduct({{1 << 16, 1 << 20, 1 << 22}, {8, 32, 128}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ebi
