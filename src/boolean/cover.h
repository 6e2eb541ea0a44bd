#ifndef EBI_BOOLEAN_COVER_H_
#define EBI_BOOLEAN_COVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "boolean/cube.h"
#include "util/bitvector.h"

namespace ebi {

/// A sum-of-products Boolean expression: the disjunction of its cubes.
/// Retrieval expressions for IN-list selections are Covers; logical
/// reduction rewrites a Cover into an equivalent one referencing fewer
/// bitmap vectors.
using Cover = std::vector<Cube>;

/// Bitwise OR of all cube masks: the set of variables (bitmap vectors) the
/// expression references.
uint64_t VariablesOf(const Cover& cover);

/// Number of distinct bitmap vectors referenced — the paper's cost metric
/// c_e (Section 3.1, footnote 4: the cost counted after logical reduction).
int DistinctVariables(const Cover& cover);

/// Total number of literals across all cubes.
int TotalLiterals(const Cover& cover);

/// True iff the cover evaluates to 1 on the full assignment `minterm`.
bool CoverCovers(const Cover& cover, uint64_t minterm);

/// Renders like "B1'B0 + B2B0'"; the empty cover renders as "0".
std::string CoverToString(const Cover& cover, int k);

/// Evaluates the expression over bitmap slices: slices[i] points at the
/// bitmap vector for variable B_i, and may be nullptr when the cover does
/// not reference B_i. Returns the `n`-bit result bitmap (bit j set iff the
/// expression is 1 on tuple j's code). A referenced slice shorter than `n`
/// reads as zero-extended and is never read past its end; bits of a longer
/// one past `n` are ignored. The empty cover yields all zeros and a
/// tautology cube all ones.
///
/// Evaluation is one cache-blocked sweep (DESIGN.md §3): per block of
/// kernels::kBlockWords words, each cube's negation-aware AND chain is
/// built in an L1-resident scratch block and ORed into the result block.
/// Each referenced slice is read from memory once and the result written
/// once, so memory traffic is (c_e + 1) slice lengths, not one slice
/// length per literal.
BitVector EvaluateCover(const Cover& cover,
                        const std::vector<const BitVector*>& slices,
                        size_t n);

/// True iff the two covers denote the same Boolean function over k
/// variables (exhaustive check; intended for tests and small k).
bool CoversEquivalent(const Cover& a, const Cover& b, int k);

}  // namespace ebi

#endif  // EBI_BOOLEAN_COVER_H_
