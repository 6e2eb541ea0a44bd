#include "boolean/cover.h"

#include <algorithm>
#include <array>
#include <bit>

#include "util/kernels/kernels.h"

namespace ebi {

uint64_t VariablesOf(const Cover& cover) {
  uint64_t vars = 0;
  for (const Cube& cube : cover) {
    vars |= cube.mask;
  }
  return vars;
}

int DistinctVariables(const Cover& cover) {
  return std::popcount(VariablesOf(cover));
}

int TotalLiterals(const Cover& cover) {
  int total = 0;
  for (const Cube& cube : cover) {
    total += cube.NumLiterals();
  }
  return total;
}

bool CoverCovers(const Cover& cover, uint64_t minterm) {
  for (const Cube& cube : cover) {
    if (cube.Covers(minterm)) {
      return true;
    }
  }
  return false;
}

std::string CoverToString(const Cover& cover, int k) {
  if (cover.empty()) {
    return "0";
  }
  std::string out;
  for (size_t i = 0; i < cover.size(); ++i) {
    if (i > 0) {
      out += " + ";
    }
    out += cover[i].ToString(k);
  }
  return out;
}

namespace {

/// One literal of a cube: the slice it reads and its polarity.
struct Literal {
  const BitVector* slice;
  bool positive;
};

/// The words of `slice` inside the block of `len` words starting at word
/// `begin`, and their count in `*have` (< len when the slice ends inside
/// the block). A slice shorter than the result is zero-extended: words
/// past its end are never read.
const uint64_t* SliceBlock(const BitVector& slice, size_t begin, size_t len,
                           size_t* have) {
  const size_t words = slice.NumWords();
  *have = words <= begin ? 0 : std::min(len, words - begin);
  return *have == 0 ? nullptr : slice.words().data() + begin;
}

/// dst[0..len) = the AND of `count` literals over one block, positive
/// literals first: one fused and_many over all of them (a positive slice
/// that ends inside the block zeroes the rest), then one andnot per
/// negated literal. A cube of negated literals only starts from all ones.
void AndChain(const kernels::BitmapKernels& k, const Literal* literals,
              size_t count, size_t begin, size_t len, uint64_t* dst) {
  std::array<const uint64_t*, 64> positives;
  size_t num_positive = 0;
  size_t span = len;
  size_t j = 0;
  for (; j < count && literals[j].positive; ++j) {
    size_t have = 0;
    positives[num_positive++] =
        SliceBlock(*literals[j].slice, begin, len, &have);
    span = std::min(span, have);
  }
  if (num_positive == 0) {
    k.fill_words(dst, ~uint64_t{0}, len);
  } else {
    if (span > 0) {
      k.and_many(dst, positives.data(), num_positive, span);
    }
    k.fill_words(dst + span, 0, len - span);
  }
  for (; j < count; ++j) {
    size_t have = 0;
    const uint64_t* src = SliceBlock(*literals[j].slice, begin, len, &have);
    k.andnot_words(dst, src, have);
  }
}

}  // namespace

BitVector EvaluateCover(const Cover& cover,
                        const std::vector<const BitVector*>& slices,
                        size_t n) {
  // Flatten every cube into its literal run once, positive literals
  // first (AndChain fuses them into one pass).
  std::vector<Literal> literals;
  std::vector<size_t> cube_ends;
  cube_ends.reserve(cover.size());
  for (const Cube& cube : cover) {
    if (cube.mask == 0) {
      // Constant-true cube: the whole expression is a tautology.
      return BitVector(n, true);
    }
    const size_t cube_begin = literals.size();
    for (const bool positive : {true, false}) {
      for (uint64_t rest = cube.mask; rest != 0; rest &= rest - 1) {
        const size_t i = static_cast<size_t>(std::countr_zero(rest));
        const bool set = ((cube.values >> i) & 1) != 0;
        if (i < slices.size() && set == positive) {
          literals.push_back({slices[i], positive});
        }
      }
    }
    if (literals.size() > cube_begin) {
      cube_ends.push_back(literals.size());
    }
  }
  if (cube_ends.empty()) {
    return BitVector(n);
  }
  // One sweep over the slices, a block at a time: every cube's AND chain
  // runs in a scratch block that stays in L1 and is ORed into the result
  // block, so each referenced slice streams from memory once (the
  // paper's c_e) instead of once per literal that names it. The result
  // grows one block at a time and each block is written only while it
  // is in cache; FromWords masks the tail once at the end.
  const kernels::BitmapKernels& k = kernels::Active();
  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> out;
  out.reserve(words);
  std::array<uint64_t, kernels::kBlockWords> scratch;
  for (size_t begin = 0; begin < words; begin += kernels::kBlockWords) {
    const size_t len = std::min(kernels::kBlockWords, words - begin);
    out.resize(begin + len);
    uint64_t* const dst = out.data() + begin;
    // The first cube's chain is built in the result block itself.
    AndChain(k, literals.data(), cube_ends[0], begin, len, dst);
    for (size_t c = 1; c < cube_ends.size(); ++c) {
      const Literal* first = literals.data() + cube_ends[c - 1];
      const size_t count = cube_ends[c] - cube_ends[c - 1];
      if (count == 1 && first->positive) {
        // A single positive literal ORs straight from its slice.
        size_t have = 0;
        const uint64_t* src = SliceBlock(*first->slice, begin, len, &have);
        k.or_words(dst, src, have);
        continue;
      }
      AndChain(k, first, count, begin, len, scratch.data());
      k.or_words(dst, scratch.data(), len);
    }
  }
  return BitVector::FromWords(n, std::move(out));
}

bool CoversEquivalent(const Cover& a, const Cover& b, int k) {
  const uint64_t limit = uint64_t{1} << k;
  for (uint64_t m = 0; m < limit; ++m) {
    if (CoverCovers(a, m) != CoverCovers(b, m)) {
      return false;
    }
  }
  return true;
}

}  // namespace ebi
