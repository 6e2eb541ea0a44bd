#include "boolean/cover.h"

#include <gtest/gtest.h>

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

TEST(CoverTest, CoversEquivalentDetectsEquality) {
  const Cover raw = FigureOneInList();
  const Cover reduced = {Cube(0b00, 0b10)};
  EXPECT_TRUE(CoversEquivalent(raw, reduced, 2));
  const Cover different = {Cube(0b10, 0b10)};
  EXPECT_FALSE(CoversEquivalent(raw, different, 2));
}

}  // namespace
}  // namespace ebi
