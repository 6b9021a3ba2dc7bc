#include "src/reference.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {

using imsr::data::ItemId;
using imsr::eval::ScoreRule;

double ReferenceScore(imsr::nn::ConstMatrixView interests, const float* item,
                      ScoreRule rule) {
  const int64_t k = interests.rows;
  const int64_t d = interests.cols;
  std::vector<double> logits(static_cast<size_t>(k));
  for (int64_t j = 0; j < k; ++j) {
    const float* h = interests.data + j * d;
    double dot = 0.0;
    for (int64_t c = 0; c < d; ++c) {
      dot += static_cast<double>(h[c]) * static_cast<double>(item[c]);
    }
    logits[static_cast<size_t>(j)] = dot;
  }
  const double top = *std::max_element(logits.begin(), logits.end());
  if (rule == ScoreRule::kMaxInterest) return top;
  double total = 0.0;
  double weighted = 0.0;
  for (double logit : logits) {
    const double w = std::exp(logit - top);
    total += w;
    weighted += w * logit;
  }
  return weighted / total;
}

void ReferenceScoreAll(imsr::nn::ConstMatrixView interests,
                       const imsr::nn::Tensor& items, ScoreRule rule,
                       std::vector<double>* scores) {
  const int64_t num_items = items.size(0);
  const int64_t d = items.size(1);
  scores->resize(static_cast<size_t>(num_items));
  for (int64_t i = 0; i < num_items; ++i) {
    (*scores)[static_cast<size_t>(i)] =
        ReferenceScore(interests, items.data() + i * d, rule);
  }
}

double NthBestScore(const std::vector<double>& scores, int n) {
  std::vector<double> copy = scores;
  const size_t index =
      std::min(copy.size(), static_cast<size_t>(std::max(n, 1))) - 1;
  std::nth_element(copy.begin(), copy.begin() + static_cast<int64_t>(index),
                   copy.end(), std::greater<double>());
  return copy[index];
}

bool CheckReturnedScores(const std::vector<std::pair<ItemId, float>>& got,
                         const std::vector<double>& ref_scores,
                         std::string* why) {
  std::unordered_set<ItemId> seen;
  for (size_t r = 0; r < got.size(); ++r) {
    const auto [item, score] = got[r];
    if (item < 0 || static_cast<size_t>(item) >= ref_scores.size()) {
      *why = "item id " + std::to_string(item) + " out of range";
      return false;
    }
    if (!seen.insert(item).second) {
      *why = "item " + std::to_string(item) + " returned twice";
      return false;
    }
    const double ref = ref_scores[static_cast<size_t>(item)];
    if (std::fabs(static_cast<double>(score) - ref) > ScoreTolerance(ref)) {
      *why = "item " + std::to_string(item) + " score " +
             std::to_string(score) + " vs reference " + std::to_string(ref);
      return false;
    }
    if (r > 0 && got[r - 1].second < score) {
      *why = "scores not sorted at position " + std::to_string(r);
      return false;
    }
  }
  return true;
}

bool CheckExactTopN(const std::vector<std::pair<ItemId, float>>& got,
                    const std::vector<double>& ref_scores, int n,
                    std::string* why) {
  const size_t expected =
      std::min(ref_scores.size(), static_cast<size_t>(n));
  if (got.size() != expected) {
    *why = "returned " + std::to_string(got.size()) + " items, expected " +
           std::to_string(expected);
    return false;
  }
  if (!CheckReturnedScores(got, ref_scores, why)) return false;
  const double nth = NthBestScore(ref_scores, n);
  const double tol = ScoreTolerance(nth);
  std::unordered_set<ItemId> returned;
  for (const auto& [item, score] : got) {
    if (ref_scores[static_cast<size_t>(item)] < nth - tol) {
      *why = "item " + std::to_string(item) + " ranks below the top-" +
             std::to_string(n);
      return false;
    }
    returned.insert(item);
  }
  for (size_t i = 0; i < ref_scores.size(); ++i) {
    if (ref_scores[i] > nth + tol &&
        returned.count(static_cast<ItemId>(i)) == 0) {
      *why = "reference top-" + std::to_string(n) + " item " +
             std::to_string(i) + " missing";
      return false;
    }
  }
  return true;
}

double RecallAtN(const std::vector<std::pair<ItemId, float>>& got,
                 const std::vector<double>& ref_scores, int n) {
  const size_t expected =
      std::min(ref_scores.size(), static_cast<size_t>(n));
  if (expected == 0) return 1.0;
  const double nth = NthBestScore(ref_scores, n);
  const double floor = nth - ScoreTolerance(nth);
  size_t hits = 0;
  for (size_t r = 0; r < got.size() && r < expected; ++r) {
    const ItemId item = got[r].first;
    if (item >= 0 && static_cast<size_t>(item) < ref_scores.size() &&
        ref_scores[static_cast<size_t>(item)] >= floor) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(expected);
}

RankBounds ReferenceRankBounds(const std::vector<double>& scores,
                               ItemId target) {
  const double t = scores[static_cast<size_t>(target)];
  const double tol = ScoreTolerance(t);
  RankBounds bounds;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (static_cast<ItemId>(i) == target) continue;
    if (scores[i] > t + tol) ++bounds.best;
    if (scores[i] >= t - tol) ++bounds.worst;
  }
  return bounds;
}

}  // namespace perfbench
