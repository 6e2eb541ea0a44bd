#include "boolean/cover.h"

#include <gtest/gtest.h>

#include "util/kernels/kernels.h"
#include "util/random.h"

namespace ebi {
namespace {

Cover FigureOneInList() {
  // Section 2.2: f_a + f_b = B1'B0' + B1'B0 (before reduction).
  return {Cube::MinTerm(0b00, 2), Cube::MinTerm(0b01, 2)};
}

TEST(CoverTest, VariablesOfUnionsMasks) {
  const Cover cover = {Cube(0b00, 0b01), Cube(0b10, 0b10)};
  EXPECT_EQ(VariablesOf(cover), 0b11u);
  EXPECT_EQ(DistinctVariables(cover), 2);
}

TEST(CoverTest, DistinctVariablesCountsOnce) {
  const Cover cover = FigureOneInList();
  EXPECT_EQ(DistinctVariables(cover), 2);
  const Cover reduced = {Cube(0b00, 0b10)};  // B1'.
  EXPECT_EQ(DistinctVariables(reduced), 1);
}

TEST(CoverTest, TotalLiterals) {
  EXPECT_EQ(TotalLiterals(FigureOneInList()), 4);
  EXPECT_EQ(TotalLiterals({}), 0);
}

TEST(CoverTest, CoverCovers) {
  const Cover cover = FigureOneInList();
  EXPECT_TRUE(CoverCovers(cover, 0b00));
  EXPECT_TRUE(CoverCovers(cover, 0b01));
  EXPECT_FALSE(CoverCovers(cover, 0b10));
  EXPECT_FALSE(CoverCovers(cover, 0b11));
}

TEST(CoverTest, EmptyCoverIsFalse) {
  EXPECT_FALSE(CoverCovers({}, 0));
  EXPECT_EQ(CoverToString({}, 2), "0");
}

TEST(CoverTest, ToStringJoinsWithPlus) {
  EXPECT_EQ(CoverToString(FigureOneInList(), 2), "B1'B0' + B1'B0");
}

std::vector<const BitVector*> Ptrs(const std::vector<BitVector>& slices) {
  std::vector<const BitVector*> out;
  for (const BitVector& slice : slices) {
    out.push_back(&slice);
  }
  return out;
}

TEST(CoverTest, EvaluateFigureOneExample) {
  // Figure 1: column A over {a,b,c} encoded a=00, b=01, c=10; rows:
  // a c b NULL? -> use a c b a b with B1/B0 slices.
  // Rows:        a    c    b    a    b
  const BitVector b1 = BitVector::FromString("01000");
  const BitVector b0 = BitVector::FromString("00101");
  const std::vector<BitVector> slices = {b0, b1};  // slices[i] = B_i.

  // f_a = B1'B0' selects rows 0 and 3.
  const Cover fa = {Cube::MinTerm(0b00, 2)};
  EXPECT_EQ(EvaluateCover(fa, Ptrs(slices), 5).ToString(), "10010");

  // f_a + f_b reduces to B1'; selects rows 0, 2, 3, 4.
  const Cover fb_or_fa_reduced = {Cube(0b00, 0b10)};
  EXPECT_EQ(EvaluateCover(fb_or_fa_reduced, Ptrs(slices), 5).ToString(),
            "10111");

  // Unreduced f_a + f_b must select the same rows.
  EXPECT_EQ(EvaluateCover(FigureOneInList(), Ptrs(slices), 5).ToString(),
            "10111");
}

TEST(CoverTest, EvaluateSkipsUnreferencedSlices) {
  // B1' references only B1, so B0 may be absent.
  const BitVector b1 = BitVector::FromString("01000");
  const Cover not_b1 = {Cube(0b00, 0b10)};
  EXPECT_EQ(EvaluateCover(not_b1, {nullptr, &b1}, 5).ToString(), "10111");
}

TEST(CoverTest, EvaluateEmptyCoverIsAllZero) {
  const std::vector<BitVector> slices = {BitVector(4), BitVector(4)};
  EXPECT_TRUE(EvaluateCover({}, Ptrs(slices), 4).IsZero());
}

TEST(CoverTest, EvaluateTautologyCube) {
  const std::vector<BitVector> slices = {BitVector(6), BitVector(6)};
  const Cover cover = {Cube(0, 0)};
  EXPECT_EQ(EvaluateCover(cover, Ptrs(slices), 6).Count(), 6u);
}

TEST(CoverTest, EvaluateMatchesCoverCoversOnAllCodes) {
  // Build slices that enumerate every 3-bit code once.
  const int k = 3;
  const size_t n = 8;
  std::vector<BitVector> slices(k, BitVector(n));
  for (size_t row = 0; row < n; ++row) {
    for (int i = 0; i < k; ++i) {
      if ((row >> i) & 1) {
        slices[i].Set(row);
      }
    }
  }
  const Cover cover = {Cube(0b010, 0b110), Cube::MinTerm(0b101, 3)};
  const BitVector result = EvaluateCover(cover, Ptrs(slices), n);
  for (size_t row = 0; row < n; ++row) {
    EXPECT_EQ(result.Get(row), CoverCovers(cover, row)) << row;
  }
}

// Random row codes over k variables, one slice per variable.
std::vector<BitVector> RandomSlices(int k, size_t n, Rng* rng) {
  std::vector<BitVector> slices(static_cast<size_t>(k), BitVector(n));
  for (size_t row = 0; row < n; ++row) {
    const uint64_t code = rng->UniformInt(uint64_t{1} << k);
    for (int i = 0; i < k; ++i) {
      if ((code >> i) & 1) {
        slices[static_cast<size_t>(i)].Set(row);
      }
    }
  }
  return slices;
}

// The code of `row` read back from the slices; a slice shorter than the
// row reads as zero (the zero-extension contract).
uint64_t CodeAt(const std::vector<const BitVector*>& slices, size_t row) {
  uint64_t code = 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    if (slices[i] != nullptr && row < slices[i]->size() &&
        slices[i]->Get(row)) {
      code |= uint64_t{1} << i;
    }
  }
  return code;
}

// A random cover over k variables mixing every cube shape the blocked
// sweep special-cases: single positive literals, cubes led by a negated
// literal, full min-terms and (rarely) the tautology cube.
Cover RandomCover(int k, Rng* rng) {
  Cover cover;
  const size_t cubes = rng->UniformInt(6);
  const uint64_t full = (uint64_t{1} << k) - 1;
  for (size_t c = 0; c < cubes; ++c) {
    switch (rng->UniformInt(5)) {
      case 0:
        cover.push_back(Cube(full, uint64_t{1} << rng->UniformInt(
                                       static_cast<uint64_t>(k))));
        break;
      case 1: {
        // The lowest referenced variable is negated; half the time every
        // literal is, so the chain has to start with a complement.
        const uint64_t mask = (rng->Next() & full) | 1;
        const uint64_t values =
            rng->Bernoulli(0.5) ? 0 : rng->Next() & ~uint64_t{1};
        cover.push_back(Cube(values, mask));
        break;
      }
      case 2:
        cover.push_back(Cube::MinTerm(rng->UniformInt(full + 1), k));
        break;
      case 3:
        if (rng->Bernoulli(0.2)) {
          cover.push_back(Cube(0, 0));
          break;
        }
        [[fallthrough]];
      default:
        cover.push_back(Cube(rng->Next(), rng->Next() & full));
        break;
    }
  }
  return cover;
}

TEST(CoverTest, BlockedEvaluationMatchesCoverCoversAcrossBlocks) {
  constexpr size_t kBits = kernels::kBlockWords * 64;
  const std::vector<size_t> sizes = {0,         1,         63,
                                     64,        65,        kBits - 1,
                                     kBits,     kBits + 1, 3 * kBits + 17};
  Rng rng(20260317);
  for (const size_t n : sizes) {
    for (int trial = 0; trial < 12; ++trial) {
      const int k = 1 + static_cast<int>(rng.UniformInt(10));
      const std::vector<BitVector> slices = RandomSlices(k, n, &rng);
      const Cover cover = trial == 0 ? Cover{} : RandomCover(k, &rng);
      // Unreferenced slices may be absent.
      std::vector<const BitVector*> ptrs = Ptrs(slices);
      const uint64_t vars = VariablesOf(cover);
      for (int i = 0; i < k; ++i) {
        if (((vars >> i) & 1) == 0) {
          ptrs[static_cast<size_t>(i)] = nullptr;
        }
      }
      const BitVector result = EvaluateCover(cover, ptrs, n);
      ASSERT_EQ(result.size(), n);
      ASSERT_TRUE(result.TailIsClean());
      for (size_t row = 0; row < n; ++row) {
        ASSERT_EQ(result.Get(row), CoverCovers(cover, CodeAt(ptrs, row)))
            << "n=" << n << " k=" << k << " row=" << row << " cover="
            << CoverToString(cover, k);
      }
    }
  }
}

TEST(CoverTest, ShortSliceReadsAsZeroExtended) {
  // B0 spans only the first block and a half; B1 spans the full result.
  // Past B0's end the expression sees B0 = 0, so B0' holds there, and
  // the sweep never reads past B0's last word (AddressSanitizer builds
  // would flag it).
  constexpr size_t kBits = kernels::kBlockWords * 64;
  const size_t n = 3 * kBits + 17;
  Rng rng(7);
  const std::vector<BitVector> full = RandomSlices(2, n, &rng);
  const BitVector b0_short =
      RandomSlices(1, kBits + kBits / 2 + 5, &rng).front();
  const std::vector<const BitVector*> ptrs = {&b0_short, &full[1]};
  const std::vector<Cover> covers = {
      {Cube(0b00, 0b01)},                     // B0'
      {Cube(0b01, 0b01)},                     // B0
      {Cube(0b10, 0b11)},                     // B1B0'
      {Cube(0b00, 0b11), Cube(0b01, 0b01)},   // B1'B0' + B0
      {Cube(0b01, 0b11), Cube(0b10, 0b10)},   // B1'B0 + B1
      {Cube(0b00, 0b11), Cube(0b11, 0b11)}};  // B1'B0' + B1B0
  for (const Cover& cover : covers) {
    const BitVector result = EvaluateCover(cover, ptrs, n);
    ASSERT_EQ(result.size(), n);
    ASSERT_TRUE(result.TailIsClean());
    for (size_t row = 0; row < n; ++row) {
      ASSERT_EQ(result.Get(row), CoverCovers(cover, CodeAt(ptrs, row)))
          << CoverToString(cover, 2) << " row=" << row;
    }
  }
}

TEST(CoverTest, CoversEquivalentDetectsEquality) {
  const Cover raw = FigureOneInList();
  const Cover reduced = {Cube(0b00, 0b10)};
  EXPECT_TRUE(CoversEquivalent(raw, reduced, 2));
  const Cover different = {Cube(0b10, 0b10)};
  EXPECT_FALSE(CoversEquivalent(raw, different, 2));
}

}  // namespace
}  // namespace ebi
