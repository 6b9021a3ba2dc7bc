// Equivalence and determinism properties of the blocked nn kernels: every
// fast path must match a naive reference within 1e-5 and produce bitwise
// identical results regardless of the pool's thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "eval/ranker.h"
#include "nn/optim.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "nn/variable.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imsr {
namespace {

// Naive jki reference matmul, independent of the production kernel.
nn::Tensor ReferenceMatMul(const nn::Tensor& a, const nn::Tensor& b) {
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  const int64_t n = b.size(1);
  nn::Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a.at(i, kk) * b.at(kk, j);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

const std::vector<std::vector<int64_t>> kShapes = {
    // {m, k, n} — odd sizes exercise every panel-remainder path.
    {1, 1, 1}, {1, 5, 1},  {2, 3, 4},  {3, 7, 5},   {4, 4, 4},
    {5, 2, 9}, {7, 17, 3}, {8, 32, 6}, {33, 13, 21}, {64, 32, 32},
};

TEST(KernelsTest, MatMulMatchesNaiveReference) {
  util::Rng rng(101);
  for (const auto& shape : kShapes) {
    const nn::Tensor a = nn::Tensor::Randn({shape[0], shape[1]}, rng);
    const nn::Tensor b = nn::Tensor::Randn({shape[1], shape[2]}, rng);
    EXPECT_LE(nn::MaxAbsDiff(nn::MatMul(a, b), ReferenceMatMul(a, b)),
              1e-5f)
        << shape[0] << "x" << shape[1] << "x" << shape[2];
  }
}

TEST(KernelsTest, MatMulTransBMatchesMaterialisedTranspose) {
  util::Rng rng(102);
  for (const auto& shape : kShapes) {
    const nn::Tensor a = nn::Tensor::Randn({shape[0], shape[1]}, rng);
    const nn::Tensor b = nn::Tensor::Randn({shape[2], shape[1]}, rng);
    EXPECT_LE(nn::MaxAbsDiff(nn::MatMulTransB(a, b),
                             ReferenceMatMul(a, nn::Transpose(b))),
              1e-5f)
        << shape[0] << "x" << shape[1] << "x" << shape[2];
  }
}

TEST(KernelsTest, MatMulTransAMatchesMaterialisedTranspose) {
  util::Rng rng(103);
  for (const auto& shape : kShapes) {
    const nn::Tensor a = nn::Tensor::Randn({shape[1], shape[0]}, rng);
    const nn::Tensor b = nn::Tensor::Randn({shape[1], shape[2]}, rng);
    EXPECT_LE(nn::MaxAbsDiff(nn::MatMulTransA(a, b),
                             ReferenceMatMul(nn::Transpose(a), b)),
              1e-5f)
        << shape[0] << "x" << shape[1] << "x" << shape[2];
  }
}

TEST(KernelsTest, MatMulTransBIntoReusesBuffer) {
  util::Rng rng(104);
  const nn::Tensor a1 = nn::Tensor::Randn({9, 8}, rng);
  const nn::Tensor b1 = nn::Tensor::Randn({5, 8}, rng);
  const nn::Tensor a2 = nn::Tensor::Randn({9, 8}, rng);
  nn::Tensor out;
  nn::MatMulTransBInto(a1, b1, &out);
  EXPECT_LE(nn::MaxAbsDiff(out, nn::MatMulTransB(a1, b1)), 0.0f);
  const float* storage = out.data();
  nn::MatMulTransBInto(a2, b1, &out);  // same shape: buffer reused
  EXPECT_EQ(out.data(), storage);
  EXPECT_LE(nn::MaxAbsDiff(out, nn::MatMulTransB(a2, b1)), 0.0f);
}

TEST(KernelsTest, MatMulSparseSkipsZerosWithoutChangingResults) {
  util::Rng rng(105);
  nn::Tensor a = nn::Tensor::Randn({12, 16}, rng);
  // Zero out ~2/3 of `a` to hit the skip path.
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (i % 3 != 0) a.data()[i] = 0.0f;
  }
  const nn::Tensor b = nn::Tensor::Randn({16, 10}, rng);
  EXPECT_LE(nn::MaxAbsDiff(nn::MatMulSparse(a, b), ReferenceMatMul(a, b)),
            1e-5f);
}

TEST(KernelsTest, MatVecBatchMatchesPerRowMatVec) {
  util::Rng rng(106);
  const nn::Tensor a = nn::Tensor::Randn({19, 11}, rng);
  const nn::Tensor xs = nn::Tensor::Randn({7, 11}, rng);
  const nn::Tensor batched = nn::MatVecBatch(a, xs);
  ASSERT_EQ(batched.size(0), 7);
  ASSERT_EQ(batched.size(1), 19);
  for (int64_t r = 0; r < xs.size(0); ++r) {
    const nn::Tensor single = nn::MatVec(a, xs.Row(r));
    EXPECT_LE(nn::MaxAbsDiff(batched.Row(r), single), 1e-5f) << "row " << r;
  }
}

TEST(KernelsTest, SoftmaxRowsInPlaceMatchesSoftmax) {
  util::Rng rng(107);
  for (int64_t rows : {1, 3, 64}) {
    for (int64_t cols : {1, 2, 9, 33}) {
      const nn::Tensor a = nn::Tensor::Randn({rows, cols}, rng);
      nn::Tensor in_place = a;
      nn::SoftmaxRowsInPlace(&in_place);
      EXPECT_LE(nn::MaxAbsDiff(in_place, nn::Softmax(a)), 0.0f)
          << rows << "x" << cols;
    }
  }
}

// Kernels dispatched over the pool must be bitwise identical for 1 and N
// threads (row-partitioned work, fixed per-row accumulation order).
TEST(KernelsTest, LargeKernelsBitwiseIdenticalAcrossThreadCounts) {
  util::Rng rng(108);
  // Big enough to cross the pool-dispatch threshold.
  const nn::Tensor a = nn::Tensor::Randn({257, 65}, rng);
  const nn::Tensor b = nn::Tensor::Randn({65, 63}, rng);
  const nn::Tensor bt = nn::Tensor::Randn({63, 65}, rng);
  const nn::Tensor wide = nn::Tensor::Randn({3000, 100}, rng);

  util::SetGlobalThreadCount(1);
  const nn::Tensor mm1 = nn::MatMul(a, b);
  const nn::Tensor tb1 = nn::MatMulTransB(a, bt);
  const nn::Tensor sm1 = nn::Softmax(wide);

  for (int threads : {2, 5}) {
    util::SetGlobalThreadCount(threads);
    EXPECT_EQ(mm1.storage(), nn::MatMul(a, b).storage())
        << "threads=" << threads;
    EXPECT_EQ(tb1.storage(), nn::MatMulTransB(a, bt).storage())
        << "threads=" << threads;
    EXPECT_EQ(sm1.storage(), nn::Softmax(wide).storage())
        << "threads=" << threads;
  }
  util::SetGlobalThreadCount(1);
}

TEST(KernelsTest, AdamStepBitwiseIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    util::SetGlobalThreadCount(threads);
    util::Rng rng(109);
    nn::Var parameter(nn::Tensor::Randn({1200, 32}, rng), true);
    nn::Adam adam(nn::Adam::Config{});
    adam.Register(parameter);
    for (int step = 0; step < 3; ++step) {
      parameter.ZeroGrad();
      parameter.node()->AccumulateGrad(
          nn::Tensor::Randn(parameter.value().shape(), rng));
      adam.Step();
    }
    return parameter.value().storage();
  };
  const std::vector<float> serial = run(1);
  EXPECT_EQ(serial, run(4));
  util::SetGlobalThreadCount(1);
}

// The serve scoring kernel: A supplied in the panelized k-major layout,
// SIMD lanes across output rows, every element's kk accumulation
// strictly sequential. Its bits must equal the scalar dot order (the
// SimdEnabled()==false MatMulTransBInto path) for ANY operand width,
// any SIMD setting, and any thread count — that width invariance is the
// RecommendBatch == RecommendOne contract. m values cover lane
// remainders (non-multiple-of-8), a compact partial last panel
// (m < 1024 and m = 2001 = 1024 + 977), and both the serial and
// pool-dispatched regimes; n straddles every historical dispatch
// boundary.
TEST(KernelsTest, MatMulTransBPanelMatchesScalarOrderAnyWidth) {
  util::Rng rng(111);
  const bool prev_simd = nn::SetSimdEnabled(true);
  for (int64_t m : {5, 12, 300, 2001}) {
    const nn::Tensor a = nn::Tensor::Randn({m, 24}, rng);
    nn::Tensor panels;
    nn::PanelizeKMajorInto(a, &panels);
    for (int64_t n : {1, 2, 3, 8, 12, 51}) {
      const nn::Tensor b = nn::Tensor::Randn({n, 24}, rng);
      // Scalar-order reference: the dot kernels with SIMD forced off.
      nn::SetSimdEnabled(false);
      nn::Tensor expected;
      nn::MatMulTransBInto(a, b, &expected);
      for (const bool simd : {false, true}) {
        nn::SetSimdEnabled(simd);
        for (int threads : {1, 3}) {
          util::SetGlobalThreadCount(threads);
          nn::Tensor out;
          nn::MatMulTransBPanelInto(nn::ViewOf(panels), nn::ViewOf(b), &out);
          EXPECT_EQ(out.storage(), expected.storage())
              << "m=" << m << " n=" << n << " simd=" << simd
              << " threads=" << threads;
        }
        util::SetGlobalThreadCount(1);
      }
    }
  }
  nn::SetSimdEnabled(prev_simd);
}

// Width invariance directly: one fused call over concatenated operands
// equals per-operand calls column-for-column, bit for bit; and the
// blocked row-range sweep (the serve scoring loop's shape) reproduces
// the full product wherever the block boundaries land, including blocks
// that straddle a panel boundary. This is the exact shape of the serve
// micro-batch (users' interest rows packed into one operand, per-user
// columns read back strided out of block tiles).
TEST(KernelsTest, MatMulTransBPanelFusedColumnsMatchPerOperand) {
  util::Rng rng(113);
  const int64_t m = 1500, d = 24;  // spans two panels (1024 + 476)
  const nn::Tensor a = nn::Tensor::Randn({m, d}, rng);
  nn::Tensor panels;
  nn::PanelizeKMajorInto(a, &panels);
  const std::vector<int64_t> widths = {3, 2, 4, 3};
  int64_t total = 0;
  for (int64_t w : widths) total += w;
  const nn::Tensor packed = nn::Tensor::Randn({total, d}, rng);
  nn::Tensor fused;
  nn::MatMulTransBPanelInto(nn::ViewOf(panels), nn::ViewOf(packed), &fused);
  int64_t offset = 0;
  for (size_t u = 0; u < widths.size(); ++u) {
    const int64_t w = widths[u];
    nn::Tensor solo;
    nn::MatMulTransBPanelInto(
        nn::ViewOf(panels), {packed.data() + offset * d, w, d}, &solo);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < w; ++j) {
        ASSERT_EQ(fused.at(i, offset + j), solo.at(i, j))
            << "operand=" << u << " i=" << i << " j=" << j;
      }
    }
    offset += w;
  }
  // Range sweep: odd-sized blocks that do not divide the panel size, so
  // some cross the panel seam mid-block. The range tile is k-major:
  // element (i, j) at tile[j * rows + (i - b0)].
  std::vector<float> tile(707 * total);
  for (int64_t b0 = 0; b0 < m; b0 += 707) {
    const int64_t b1 = std::min<int64_t>(m, b0 + 707);
    const int64_t rows = b1 - b0;
    nn::MatMulTransBPanelRangeInto(nn::ViewOf(panels), nn::ViewOf(packed),
                                   b0, b1, tile.data());
    for (int64_t i = b0; i < b1; ++i) {
      for (int64_t j = 0; j < total; ++j) {
        ASSERT_EQ(tile[static_cast<size_t>(j * rows + (i - b0))],
                  fused.at(i, j))
            << "block@" << b0 << " i=" << i << " j=" << j;
      }
    }
  }
}

// Lays `rows` row-major rows of k logits out k-major the way the serve
// micro-batch does: `lead` columns of another user first, then this
// user's k columns, leading dimension ld = rows + pad. Every slot that
// is not one of this user's logits holds NaN, so a lane reduction that
// read outside its columns or rows would return NaN.
std::vector<float> KMajorTile(const std::vector<float>& row_major,
                              int64_t rows, int64_t k, int64_t lead,
                              int64_t pad) {
  const int64_t ld = rows + pad;
  std::vector<float> tile(static_cast<size_t>((lead + k) * ld),
                          std::numeric_limits<float>::quiet_NaN());
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      tile[static_cast<size_t>((lead + j) * ld + i)] =
          row_major[static_cast<size_t>(i * k + j)];
    }
  }
  return tile;
}

// The lane form against scalar ScoreFromLogits on each item's row:
// memcmp over every score, both rules.
void ExpectLaneMatchesScalar(const std::vector<float>& row_major,
                             int64_t rows, int64_t k) {
  const int64_t lead = 2, pad = 3, ld = rows + pad;
  const std::vector<float> tile = KMajorTile(row_major, rows, k, lead, pad);
  for (const auto rule :
       {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
    std::vector<float> lane(static_cast<size_t>(rows));
    eval::ScoresFromKMajorLogits(tile.data() + lead * ld, rows, ld, k, rule,
                                 lane.data());
    std::vector<float> scalar(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      scalar[static_cast<size_t>(i)] =
          eval::ScoreFromLogits(row_major.data() + i * k, k, rule);
    }
    EXPECT_EQ(std::memcmp(lane.data(), scalar.data(),
                          lane.size() * sizeof(float)),
              0)
        << "rows=" << rows << " k=" << k
        << " rule=" << eval::ScoreRuleName(rule);
  }
}

// Lane counts straddle every vector width and the 64-item chunk; K
// covers the single-interest case, the paper's K = 4 and expanded users.
TEST(KernelsTest, LaneScoreReductionMatchesScalarBitwise) {
  util::Rng rng(115);
  for (int64_t k : {1, 2, 3, 4, 5, 8, 17}) {
    for (int64_t rows : {1, 15, 16, 17, 1023, 1024, 1025}) {
      std::vector<float> logits(static_cast<size_t>(rows * k));
      for (float& x : logits) x = 4.0f * static_cast<float>(rng.NextGaussian());
      ExpectLaneMatchesScalar(logits, rows, k);
    }
  }
}

TEST(KernelsTest, LaneScoreReductionEdgeLogits) {
  // Spreads past ExpApprox's -87.3 clamp, huge positive logits, rows of
  // equal logits and mixed signs, at a row count with a lane remainder.
  const std::vector<std::vector<float>> patterns = {
      {0.0f, -100.0f, -200.0f, 50.0f},
      {-300.0f, 0.0f, -87.4f, -87.3f},
      {80.0f, -20.0f, 80.0f, 79.0f},
      {3.5f, 3.5f, 3.5f, 3.5f},
      {-0.0f, 0.0f, -0.0f, 0.0f},
      {1e-40f, -1e-40f, 0.0f, 1e-38f},
      {1e30f, -1e30f, 0.0f, 1.0f},
  };
  const int64_t k = 4, rows = 37;
  std::vector<float> logits;
  for (int64_t i = 0; i < rows; ++i) {
    const std::vector<float>& p = patterns[static_cast<size_t>(i) %
                                           patterns.size()];
    logits.insert(logits.end(), p.begin(), p.end());
  }
  ExpectLaneMatchesScalar(logits, rows, k);
  std::vector<float> scores(static_cast<size_t>(rows));
  eval::ScoresFromKMajorLogits(KMajorTile(logits, rows, k, 0, 0).data(),
                               rows, rows, k, eval::ScoreRule::kAttentive,
                               scores.data());
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = logits.data() + i * k;
    const float top = *std::max_element(row, row + k);
    const float score = scores[static_cast<size_t>(i)];
    ASSERT_TRUE(std::isfinite(score)) << "row " << i;
    // Every weight is at most 1 and the max logit's is exactly 1, so the
    // score is a convex combination pulled toward the max.
    EXPECT_LE(score, top + 1e-6f * std::max(1.0f, std::fabs(top)))
        << "row " << i;
  }
  // Far below the clamp the other terms contribute ~2^-126 each: the
  // score is the max logit.
  EXPECT_EQ(scores[0], 50.0f);
  EXPECT_EQ(scores[3], 3.5f);  // all equal: 4 * 3.5 / 4, exact
}

TEST(KernelsTest, LaneScoreReductionSingleInterestIsTheLogit) {
  util::Rng rng(116);
  std::vector<float> logits = {-0.0f, 0.0f,    1e-40f, -1e-40f,
                               1e30f, -1e30f, 87.0f,  -90.0f};
  for (int i = 0; i < 1017; ++i) {
    logits.push_back(10.0f * static_cast<float>(rng.NextGaussian()));
  }
  const int64_t rows = static_cast<int64_t>(logits.size());
  for (const auto rule :
       {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
    std::vector<float> scores(logits.size());
    eval::ScoresFromKMajorLogits(logits.data(), rows, rows, 1, rule,
                                 scores.data());
    EXPECT_EQ(std::memcmp(scores.data(), logits.data(),
                          logits.size() * sizeof(float)),
              0)
        << eval::ScoreRuleName(rule);
    for (int64_t i = 0; i < rows; ++i) {
      const float one = eval::ScoreFromLogits(&logits[static_cast<size_t>(i)],
                                              1, rule);
      ASSERT_EQ(std::memcmp(&one, &logits[static_cast<size_t>(i)],
                            sizeof(float)),
                0)
          << "item " << i;
    }
  }
}

// Attentive scores against a double-precision Eq. 5 on a random corpus,
// at the bar perfbench's serve checks apply: 1e-5 * max(1, |ref|).
TEST(KernelsTest, AttentiveScoresWithinDoubleReference) {
  util::Rng rng(117);
  const int64_t num_items = 2100, d = 32;
  const nn::Tensor items = nn::Tensor::Randn({num_items, d}, rng);
  eval::RankScratch scratch;
  for (int64_t k : {1, 2, 4, 8}) {
    const nn::Tensor interests = nn::Tensor::Randn({k, d}, rng);
    eval::ScoreAllItemsInto(interests, items, eval::ScoreRule::kAttentive,
                            &scratch);
    double worst = 0.0;
    for (int64_t i = 0; i < num_items; ++i) {
      std::vector<double> logit(static_cast<size_t>(k));
      for (int64_t j = 0; j < k; ++j) {
        double dot = 0.0;
        for (int64_t c = 0; c < d; ++c) {
          dot += static_cast<double>(items.at(i, c)) *
                 static_cast<double>(interests.at(j, c));
        }
        logit[static_cast<size_t>(j)] = dot;
      }
      const double top = *std::max_element(logit.begin(), logit.end());
      double total = 0.0, weighted = 0.0;
      for (double x : logit) {
        total += std::exp(x - top);
        weighted += std::exp(x - top) * x;
      }
      const double ref = weighted / total;
      const double err =
          std::fabs(static_cast<double>(scratch.scores[static_cast<size_t>(i)]) -
                    ref) /
          std::max(1.0, std::fabs(ref));
      worst = std::max(worst, err);
    }
    EXPECT_LE(worst, 1e-5) << "k=" << k;
  }
}

TEST(KernelsTest, RankerPrecomputedScoresMatchFromScratchPaths) {
  util::Rng rng(110);
  const nn::Tensor items = nn::Tensor::Randn({120, 16}, rng);
  const nn::Tensor interests_a = nn::Tensor::Randn({4, 16}, rng);
  const nn::Tensor interests_b = nn::Tensor::Randn({6, 16}, rng);

  for (auto rule : {eval::ScoreRule::kAttentive,
                    eval::ScoreRule::kMaxInterest}) {
    eval::RankScratch scratch;
    // Scratch reuse across users with different K must not leak state.
    for (const nn::Tensor* interests : {&interests_a, &interests_b}) {
      eval::ScoreAllItemsInto(*interests, items, rule, &scratch);
      const std::vector<float> fresh =
          eval::ScoreAllItems(*interests, items, rule);
      ASSERT_EQ(scratch.scores.size(), fresh.size());
      EXPECT_EQ(scratch.scores, fresh);

      for (data::ItemId target : {0, 7, 119}) {
        EXPECT_EQ(eval::TargetRankFromScores(scratch.scores, target),
                  eval::TargetRank(*interests, items, target, rule));
      }
      EXPECT_EQ(eval::TopNFromScores(scratch.scores, 10),
                eval::TopNItems(*interests, items, 10, rule));
    }
  }
}

}  // namespace
}  // namespace imsr
