#include "eval/ranker.h"

#include <algorithm>

#include "nn/exp_approx.h"
#include "nn/simd.h"
#include "util/check.h"
#include "util/hot.h"

namespace imsr::eval {

namespace {

// Items per block of ScoresFromLogits: each block of row-major logits is
// copied into a k-major tile this tall, which stays in L1/L2 for the
// lane reduction that follows.
constexpr int64_t kTileRows = 1024;

// Items per pass of the lane reduction: its per-item running max, total
// and weighted sums live in three stack arrays this long (768 B), so
// each pass over j streams one tile column against L1-resident state.
constexpr int64_t kLaneChunk = 64;

}  // namespace

float ScoreFromLogits(const float* row, int64_t k, ScoreRule rule) {
  float max_logit = row[0];
  for (int64_t j = 1; j < k; ++j) max_logit = std::max(max_logit, row[j]);
  if (rule == ScoreRule::kMaxInterest) return max_logit;
  // Attentive: v_u(e_i) . e_i = sum_k softmax(row)_k row_k.
  float total = nn::ExpApprox(row[0] - max_logit);
  float weighted = total * row[0];
  for (int64_t j = 1; j < k; ++j) {
    const float w = nn::ExpApprox(row[j] - max_logit);
    total += w;
    weighted += w * row[j];
  }
  return weighted / total;
}

// Each statement below is ScoreFromLogits' statement for one item, run
// for a chunk of items at a time: `m < x ? x : m` is std::max(m, x)
// spelled out, and the sums start from j = 0's term in both forms.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
void ScoresFromKMajorLogits(const float* tile, int64_t rows, int64_t ld,
                            int64_t k, ScoreRule rule, float* scores) {
  for (int64_t c0 = 0; c0 < rows; c0 += kLaneChunk) {
    const int64_t c = std::min(kLaneChunk, rows - c0);
    const float* __restrict__ base = tile + c0;
    float* __restrict__ out = scores + c0;
    float m[kLaneChunk];
    IMSR_SIMD_PRAGMA()
    for (int64_t i = 0; i < c; ++i) m[i] = base[i];
    for (int64_t j = 1; j < k; ++j) {
      const float* __restrict__ col = base + j * ld;
      IMSR_SIMD_PRAGMA()
      for (int64_t i = 0; i < c; ++i) m[i] = m[i] < col[i] ? col[i] : m[i];
    }
    if (rule == ScoreRule::kMaxInterest) {
      IMSR_SIMD_PRAGMA()
      for (int64_t i = 0; i < c; ++i) out[i] = m[i];
      continue;
    }
    float total[kLaneChunk];
    float weighted[kLaneChunk];
    IMSR_SIMD_PRAGMA()
    for (int64_t i = 0; i < c; ++i) {
      const float w = nn::ExpApprox(base[i] - m[i]);
      total[i] = w;
      weighted[i] = w * base[i];
    }
    for (int64_t j = 1; j < k; ++j) {
      const float* __restrict__ col = base + j * ld;
      IMSR_SIMD_PRAGMA()
      for (int64_t i = 0; i < c; ++i) {
        const float w = nn::ExpApprox(col[i] - m[i]);
        total[i] += w;
        weighted[i] += w * col[i];
      }
    }
    IMSR_SIMD_PRAGMA()
    for (int64_t i = 0; i < c; ++i) out[i] = weighted[i] / total[i];
  }
}
IMSR_HOT_END

void ScoresFromLogits(const float* logits, int64_t num_items, int64_t k,
                      ScoreRule rule, nn::Tensor* tile, float* scores) {
  if (num_items == 0) return;
  const int64_t tile_rows = std::min(kTileRows, num_items);
  tile->ResizeUninitialized({k, tile_rows});
  float* t = tile->data();
  for (int64_t b0 = 0; b0 < num_items; b0 += tile_rows) {
    const int64_t rows = std::min(tile_rows, num_items - b0);
    for (int64_t i = 0; i < rows; ++i) {
      const float* row = logits + (b0 + i) * k;
      for (int64_t j = 0; j < k; ++j) t[j * rows + i] = row[j];
    }
    ScoresFromKMajorLogits(t, rows, rows, k, rule, scores + b0);
  }
}

const char* ScoreRuleName(ScoreRule rule) {
  switch (rule) {
    case ScoreRule::kAttentive:
      return "attentive";
    case ScoreRule::kMaxInterest:
      return "max";
  }
  return "?";
}

bool ScoreRuleFromName(const std::string& name, ScoreRule* rule,
                       std::string* error) {
  IMSR_CHECK(rule != nullptr);
  if (name == "attentive") {
    *rule = ScoreRule::kAttentive;
    return true;
  }
  if (name == "max" || name == "max-interest") {
    *rule = ScoreRule::kMaxInterest;
    return true;
  }
  if (error != nullptr) {
    *error = "unknown score rule '" + name +
             "' (valid: attentive, max)";
  }
  return false;
}

void ScoreAllItemsInto(const nn::Tensor& interests,
                       const nn::Tensor& item_embeddings, ScoreRule rule,
                       RankScratch* scratch) {
  IMSR_CHECK_EQ(interests.dim(), 2);
  ScoreAllItemsInto(nn::ViewOf(interests), item_embeddings, rule, scratch);
}

void ScoreAllItemsInto(nn::ConstMatrixView interests,
                       const nn::Tensor& item_embeddings, ScoreRule rule,
                       RankScratch* scratch) {
  IMSR_CHECK(scratch != nullptr);
  IMSR_CHECK(interests.data != nullptr);
  IMSR_CHECK_EQ(item_embeddings.dim(), 2);
  IMSR_CHECK_EQ(interests.cols, item_embeddings.size(1));
  const int64_t num_items = item_embeddings.size(0);
  const int64_t k = interests.rows;

  // logits = E H^T, one row of K interest scores per item.
  nn::MatMulTransBInto(item_embeddings, interests, &scratch->logits);
  scratch->scores.resize(static_cast<size_t>(num_items));
  ScoresFromLogits(scratch->logits.data(), num_items, k, rule,
                   &scratch->tile, scratch->scores.data());
}

std::vector<float> ScoreAllItems(const nn::Tensor& interests,
                                 const nn::Tensor& item_embeddings,
                                 ScoreRule rule) {
  RankScratch scratch;
  ScoreAllItemsInto(interests, item_embeddings, rule, &scratch);
  return std::move(scratch.scores);
}

int64_t TargetRankFromScores(const std::vector<float>& scores,
                             data::ItemId target) {
  IMSR_CHECK(target >= 0 &&
             target < static_cast<data::ItemId>(scores.size()));
  const float target_score = scores[static_cast<size_t>(target)];
  int64_t rank = 1;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (static_cast<data::ItemId>(i) == target) continue;
    if (scores[i] >= target_score) ++rank;
  }
  return rank;
}

std::vector<std::pair<data::ItemId, float>> TopNFromScores(
    const std::vector<float>& scores, int n) {
  IMSR_CHECK_GT(n, 0);
  using Entry = std::pair<data::ItemId, float>;
  // `ahead(a, b)`: a ranks before b — score descending, then id ascending.
  const auto ahead = [](const Entry& a, const Entry& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  const size_t num_items = scores.size();
  const size_t keep = std::min(static_cast<size_t>(n), num_items);
  std::vector<Entry> top;
  top.reserve(keep);
  if (keep == 0) return top;
  for (size_t i = 0; i < keep; ++i) {
    top.emplace_back(static_cast<data::ItemId>(i), scores[i]);
  }
  // A heap under `ahead` keeps the entry that ranks last at the front.
  std::make_heap(top.begin(), top.end(), ahead);
  float floor = top.front().second;
  for (size_t i = keep; i < num_items; ++i) {
    // Ids ascend through the scan, so an item that only ties the front's
    // score ranks behind it: a strictly higher score is needed to enter.
    if (scores[i] > floor) {
      std::pop_heap(top.begin(), top.end(), ahead);
      top.back() = {static_cast<data::ItemId>(i), scores[i]};
      std::push_heap(top.begin(), top.end(), ahead);
      floor = top.front().second;
    }
  }
  std::sort_heap(top.begin(), top.end(), ahead);
  return top;
}

int64_t TargetRank(const nn::Tensor& interests,
                   const nn::Tensor& item_embeddings, data::ItemId target,
                   ScoreRule rule) {
  IMSR_CHECK(target >= 0 && target < item_embeddings.size(0));
  return TargetRankFromScores(
      ScoreAllItems(interests, item_embeddings, rule), target);
}

std::vector<std::pair<data::ItemId, float>> TopNItems(
    const nn::Tensor& interests, const nn::Tensor& item_embeddings, int n,
    ScoreRule rule) {
  return TopNFromScores(ScoreAllItems(interests, item_embeddings, rule), n);
}

}  // namespace imsr::eval
