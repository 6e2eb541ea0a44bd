#include "boolean/cover.h"

#include <bit>

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

BitVector EvaluateCover(const Cover& cover,
                        const std::vector<const BitVector*>& slices,
                        size_t n) {
  BitVector result(n, false);
  // Evaluate each cube to a term, then OR all terms in one fused pass
  // instead of a chain of binary ORs. Cubes that are a single positive
  // literal alias their slice directly and need no materialized term.
  std::vector<BitVector> terms;
  terms.reserve(cover.size());
  std::vector<const BitVector*> operands;
  operands.reserve(cover.size());
  for (const Cube& cube : cover) {
    if (cube.mask == 0) {
      // Constant-true cube: the whole expression is a tautology.
      result.SetAll();
      return result;
    }
    if (std::has_single_bit(cube.mask) && (cube.values & cube.mask) != 0) {
      const size_t i = static_cast<size_t>(std::countr_zero(cube.mask));
      if (i < slices.size() && slices[i] != nullptr &&
          slices[i]->size() == n) {
        operands.push_back(slices[i]);
        continue;
      }
    }
    BitVector term;
    bool first = true;
    for (size_t i = 0; i < slices.size(); ++i) {
      const uint64_t bit = uint64_t{1} << i;
      if ((cube.mask & bit) == 0) {
        continue;
      }
      const bool positive = (cube.values & bit) != 0;
      if (first) {
        term = *slices[i];
        if (!positive) {
          term.FlipAll();
        }
        first = false;
      } else if (positive) {
        term.AndWith(*slices[i]);
      } else {
        term.AndNotWith(*slices[i]);
      }
    }
    if (!first) {
      terms.push_back(std::move(term));
    }
  }
  // `terms` is fully built before any pointer into it is taken, so the
  // vector cannot reallocate under the operand list.
  for (const BitVector& term : terms) {
    operands.push_back(&term);
  }
  result.OrWithMany(operands);
  return result;
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
