// Edge-case and randomized-equivalence coverage for the bitmap kernel
// layer: BitVector (the oracle) and EwahBitmap (the compressed
// backend). Every compressed-form operation is checked bit-for-bit
// against the plain BitVector result over ~1k seeded random trials.

#include <gtest/gtest.h>

#include <vector>

#include "util/bitvector.h"
#include "util/ewah_bitmap.h"
#include "util/random.h"

namespace ebi {
namespace {

BitVector RandomBits(size_t n, double density, Rng* rng) {
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(density)) {
      v.Set(i);
    }
  }
  return v;
}

// --- Empty / all-zero / all-one edge cases -------------------------------

TEST(BitmapKernelEdgeTest, EmptyBitmapsThroughEveryKernel) {
  const BitVector empty;
  EXPECT_EQ(And(empty, empty), empty);
  EXPECT_EQ(Or(empty, empty), empty);
  EXPECT_EQ(Not(empty), empty);
  EXPECT_EQ(EwahBitmap::Or(EwahBitmap(), EwahBitmap()).size(), 0u);
  EXPECT_EQ(EwahBitmap().Not().Count(), 0u);
}

TEST(BitmapKernelEdgeTest, AllZeroAllOneCombinations) {
  const size_t n = 1000;
  const BitVector zeros(n);
  const BitVector ones(n, true);
  const EwahBitmap ewah_zeros = EwahBitmap::Compress(zeros);
  const EwahBitmap ewah_ones = EwahBitmap::Compress(ones);

  EXPECT_EQ(EwahBitmap::And(ewah_zeros, ewah_ones).Decompress(), zeros);
  EXPECT_EQ(EwahBitmap::Or(ewah_zeros, ewah_ones).Decompress(), ones);
  EXPECT_EQ(EwahBitmap::Xor(ewah_ones, ewah_ones).Decompress(), zeros);
  EXPECT_EQ(EwahBitmap::AndNot(ewah_ones, ewah_zeros).Decompress(), ones);
  EXPECT_EQ(ewah_zeros.Not().Decompress(), ones);
}

// --- Size-contract enforcement -------------------------------------------

TEST(BitmapKernelEdgeTest, CheckedVariantsRejectMismatchedSizes) {
  const BitVector a_bits(100);
  const BitVector b_bits(101);
  const EwahBitmap ea = EwahBitmap::Compress(a_bits);
  const EwahBitmap eb = EwahBitmap::Compress(b_bits);
  EXPECT_EQ(EwahBitmap::AndChecked(ea, eb).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EwahBitmap::OrChecked(ea, eb).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(EwahBitmap::OrChecked(eb, eb).ok());
}

// --- Tail-masking invariants ---------------------------------------------

TEST(BitmapKernelEdgeTest, ResizeShrinkMasksTailBeforeFlipAndCount) {
  BitVector v(128, true);
  v.Resize(70);
  EXPECT_EQ(v.Count(), 70u);
  // FlipAll after the shrink: the 58 dropped tail positions must stay
  // zero, so the flipped vector has no set bits at all.
  v.FlipAll();
  EXPECT_EQ(v.Count(), 0u);
  EXPECT_TRUE(v.IsZero());
  v.FlipAll();
  EXPECT_EQ(v.Count(), 70u);
  EXPECT_EQ(v, BitVector(70, true));
}

TEST(BitmapKernelEdgeTest, ResizeShrinkWithinLastWord) {
  BitVector v(64, true);
  v.Resize(10);
  EXPECT_EQ(v.Count(), 10u);
  v.FlipAll();
  EXPECT_TRUE(v.IsZero());
  // Growing back exposes zero bits, not stale ones.
  v.Resize(64);
  EXPECT_EQ(v.Count(), 0u);
}

TEST(BitmapKernelEdgeTest, CompressedTailsStayClearAfterNot) {
  for (size_t n : std::vector<size_t>{1, 63, 65, 100, 130}) {
    const BitVector zeros(n);
    EXPECT_EQ(EwahBitmap::Compress(zeros).Not().Count(), n) << n;
    EXPECT_EQ(EwahBitmap::Compress(zeros).Not().Decompress(),
              BitVector(n, true))
        << n;
  }
}

// --- Randomized equivalence: compressed kernels vs the plain oracle ------

TEST(BitmapKernelEdgeTest, RandomizedEquivalenceAgainstPlainOracle) {
  // ~1k trials: 250 iterations x (And, Or, Xor, Not) on EWAH,
  // with sizes crossing word boundaries and densities spanning sparse to
  // dense. Seeded, so failures reproduce.
  Rng rng(20260805);
  for (int trial = 0; trial < 250; ++trial) {
    const size_t n = 1 + rng.UniformInt(2500);
    const double da = rng.UniformDouble();
    const double db = rng.UniformDouble();
    const BitVector a = RandomBits(n, da * da, &rng);  // skew sparse
    const BitVector b = RandomBits(n, db, &rng);

    const EwahBitmap ea = EwahBitmap::Compress(a);
    const EwahBitmap eb = EwahBitmap::Compress(b);
    ASSERT_EQ(ea.Decompress(), a) << "trial " << trial;
    ASSERT_EQ(EwahBitmap::And(ea, eb).Decompress(), And(a, b))
        << "trial " << trial;
    ASSERT_EQ(EwahBitmap::Or(ea, eb).Decompress(), Or(a, b))
        << "trial " << trial;
    ASSERT_EQ(EwahBitmap::Xor(ea, eb).Decompress(), Xor(a, b))
        << "trial " << trial;
    ASSERT_EQ(ea.Not().Decompress(), Not(a)) << "trial " << trial;
    ASSERT_EQ(ea.Count(), a.Count()) << "trial " << trial;
  }
}

TEST(BitmapKernelEdgeTest, RandomizedRunHeavyEquivalence) {
  // Run-heavy inputs (long homogeneous stretches) exercise the clean-run
  // fast paths of the compressed kernel rather than literal handling.
  Rng rng(97);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 200 + rng.UniformInt(3000);
    BitVector a(n);
    BitVector b(n);
    for (size_t i = 0; i < n;) {
      const size_t len = 1 + rng.UniformInt(400);
      const bool va = rng.Bernoulli(0.5);
      const bool vb = rng.Bernoulli(0.5);
      for (size_t j = i; j < std::min(n, i + len); ++j) {
        a.Assign(j, va);
        b.Assign(j, vb);
      }
      i += len;
    }
    ASSERT_EQ(EwahBitmap::And(EwahBitmap::Compress(a),
                              EwahBitmap::Compress(b))
                  .Decompress(),
              And(a, b))
        << "trial " << trial;
    ASSERT_EQ(EwahBitmap::Or(EwahBitmap::Compress(a), EwahBitmap::Compress(b))
                  .Decompress(),
              Or(a, b))
        << "trial " << trial;
    ASSERT_EQ(EwahBitmap::AndNot(EwahBitmap::Compress(a),
                                 EwahBitmap::Compress(b))
                  .Decompress(),
              BitVector(a).AndNotWith(b))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ebi
