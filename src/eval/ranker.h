// Full-corpus ranking from a user's interest vectors. Implements both the
// paper's attentive inference rule (Algorithm 2: v_u built per candidate
// via Eq. 5, scored by inner product) and ComiRec's max-interest serving
// rule.
//
// The scoring path is allocation-free per user when driven through
// RankScratch: logits = E H^T come from the blocked MatMulTransB kernel
// (no materialised Transpose) into a reused buffer, and the per-item
// attentive/max reduction runs in SIMD lanes across items over a
// k-major copy of each item block.
#ifndef IMSR_EVAL_RANKER_H_
#define IMSR_EVAL_RANKER_H_

#include <string>
#include <utility>
#include <vector>

#include "data/interaction.h"
#include "nn/tensor.h"

namespace imsr::eval {

enum class ScoreRule { kAttentive, kMaxInterest };

const char* ScoreRuleName(ScoreRule rule);
// Fallible parse ("attentive" | "max"); on an unknown name returns false
// and fills `error` with the valid spellings.
bool ScoreRuleFromName(const std::string& name, ScoreRule* rule,
                       std::string* error);

// Per-item reduction over one row of K interest logits: max_k for
// kMaxInterest, the softmax-weighted combination (Eq. 5 with the
// candidate as query) for kAttentive, with nn::ExpApprox as the exp.
// The IVF index applies it to its few re-rank rows;
// ScoresFromKMajorLogits is its lane form. Both run the same per-item
// operation sequence (max over j ascending, then exp, total and
// weighted sums over j ascending, one divide), so they return the same
// bits and every path that scores an item agrees with every other.
float ScoreFromLogits(const float* row, int64_t k, ScoreRule rule);

// Lane form of ScoreFromLogits over a k-major logits tile: item i's
// logit for interest j is tile[j * ld + i], for i < rows and j < k.
// Writes scores[i] for every item. The passes over j each run one
// contiguous loop over items, so SIMD lanes carry independent items
// while every item's j-order stays sequential: the result is
// memcmp-equal to ScoreFromLogits on item i's K logits at any vector
// width (and under -DIMSR_SIMD=OFF, where it compiles scalar). A user's
// columns inside a fused multi-user tile are read by passing
// tile + column_offset * ld — the serve micro-batch (DESIGN.md §15).
void ScoresFromKMajorLogits(const float* tile, int64_t rows, int64_t ld,
                            int64_t k, ScoreRule rule, float* scores);

// Row-major form: item i's K logits are logits[i * k .. i * k + k).
// Copies each block of up to 1024 rows k-major into `tile` (resized as
// needed; a pure permutation) and runs ScoresFromKMajorLogits on it, so
// scores[i] has ScoreFromLogits' bits. ScoreAllItemsInto uses it on its
// E H^T product, the IVF index on its shortlist's approximate logits.
void ScoresFromLogits(const float* logits, int64_t num_items, int64_t k,
                      ScoreRule rule, nn::Tensor* tile, float* scores);

// Reusable buffers for repeated full-corpus scoring (one per worker
// thread in the evaluator; never shared across threads concurrently).
struct RankScratch {
  nn::Tensor logits;          // logits buffer, reused across users
  nn::Tensor tile;            // (K x block) k-major copy of a logits block
  std::vector<float> scores;  // num_items
};

// Scores every item into scratch->scores (resized to num_items), reusing
// scratch->logits for the row-major E H^T product and scratch->tile for
// the k-major copy of each item block that the lane reduction reads.
void ScoreAllItemsInto(const nn::Tensor& interests,
                       const nn::Tensor& item_embeddings, ScoreRule rule,
                       RankScratch* scratch);
// Same, with the (K x d) interests given as a view over packed storage
// (the ServingSnapshot read path). Shares every kernel with the Tensor
// overload, so equal values score bitwise identically.
void ScoreAllItemsInto(nn::ConstMatrixView interests,
                       const nn::Tensor& item_embeddings, ScoreRule rule,
                       RankScratch* scratch);

// Allocating convenience wrapper around ScoreAllItemsInto.
std::vector<float> ScoreAllItems(const nn::Tensor& interests,
                                 const nn::Tensor& item_embeddings,
                                 ScoreRule rule);

// 1-based rank of `target` among precomputed full-corpus scores (ties
// resolved pessimistically: equal scores ahead of the target count
// against it).
int64_t TargetRankFromScores(const std::vector<float>& scores,
                             data::ItemId target);

// Top-N (item, score) pairs from precomputed scores: score descending,
// ties by item id ascending — the order IvfIndex::SearchTopN returns, so
// exact and full-probe IVF answers agree even on tied scores. A bounded
// selection over the scores: no per-call O(num_items) buffer.
std::vector<std::pair<data::ItemId, float>> TopNFromScores(
    const std::vector<float>& scores, int n);

// 1-based rank of `target` among all items under `rule`; scores the
// corpus from scratch. Prefer ScoreAllItemsInto + TargetRankFromScores
// when several metrics share one user's scores.
int64_t TargetRank(const nn::Tensor& interests,
                   const nn::Tensor& item_embeddings, data::ItemId target,
                   ScoreRule rule);

// Top-N (item, score) pairs, highest first; scores the corpus from
// scratch (see TargetRank's note about reusing scores).
std::vector<std::pair<data::ItemId, float>> TopNItems(
    const nn::Tensor& interests, const nn::Tensor& item_embeddings, int n,
    ScoreRule rule);

}  // namespace imsr::eval

#endif  // IMSR_EVAL_RANKER_H_
