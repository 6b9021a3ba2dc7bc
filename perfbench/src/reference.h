// The reference scorer every workload's correctness check uses: a naive
// double-precision implementation of the two scoring rules, written
// independently of the program's kernels (no panels, no SIMD, no IVF).
//
//   max-interest:  s(u, i) = max_k  h_k . e_i
//   attentive:     s(u, i) = sum_k softmax_k(h . e_i) (h_k . e_i)
//                  — Eq. 5 with the candidate item as the query.
//
// Comparisons with the program's float answers allow for rounding: an
// item is "tied" with another when their reference scores differ by at
// most the tolerance, and rank checks accept any position a tie permits.
#ifndef PERFBENCH_SRC_REFERENCE_H_
#define PERFBENCH_SRC_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/interaction.h"
#include "eval/ranker.h"
#include "nn/tensor.h"

namespace perfbench {

// Relative tolerance for score agreement: |got - ref| <= kScoreTol *
// max(1, |ref|).
inline constexpr double kScoreTol = 1e-5;

// Reference scores of every row of `items` (num_items x d) for one user's
// (K x d) interests.
void ReferenceScoreAll(imsr::nn::ConstMatrixView interests,
                       const imsr::nn::Tensor& items,
                       imsr::eval::ScoreRule rule, std::vector<double>* scores);

// Score of one item row (d floats).
double ReferenceScore(imsr::nn::ConstMatrixView interests, const float* item,
                      imsr::eval::ScoreRule rule);

// Absolute tolerance at reference score magnitude `ref`.
inline double ScoreTolerance(double ref) {
  return kScoreTol * std::max(1.0, std::fabs(ref));
}

// The n-th best reference score (1-based n, clamped to the corpus).
double NthBestScore(const std::vector<double>& scores, int n);

// Checks a returned top-N list against the reference: the list is as
// long as it should be, sorted non-increasing, free of duplicates, every
// returned score agrees with the item's reference score, and the set is
// the reference top-N up to exact ties (no returned item ranks clearly
// below the N-th best, no missing item ranks clearly above it). On
// failure `why` says which rule broke.
bool CheckExactTopN(
    const std::vector<std::pair<imsr::data::ItemId, float>>& got,
    const std::vector<double>& ref_scores, int n, std::string* why);

// Checks only that every returned score equals the item's reference score
// and the list is sorted and duplicate-free (the IVF contract: exact
// scores on an approximate shortlist).
bool CheckReturnedScores(
    const std::vector<std::pair<imsr::data::ItemId, float>>& got,
    const std::vector<double>& ref_scores, std::string* why);

// Share of the reference top-N the answer holds, counting an item as a
// hit when its reference score ties or beats the N-th best.
double RecallAtN(const std::vector<std::pair<imsr::data::ItemId, float>>& got,
                 const std::vector<double>& ref_scores, int n);

// 1-based rank interval of `target` the reference allows: `best` counts
// only items clearly above the target, `worst` also every item tied
// with it (the evaluator breaks ties pessimistically).
struct RankBounds {
  int64_t best = 1;
  int64_t worst = 1;
};
RankBounds ReferenceRankBounds(const std::vector<double>& scores,
                               imsr::data::ItemId target);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REFERENCE_H_
