// train-incremental: Algorithm 2 on the Taobao preset (Table V's
// per-span cost). ComiRec-DR with IMSR (EIR + NID/PIT): pretrain, then
// every incremental span; after each, the trainer publishes a snapshot
// and the next span is evaluated on it — the paper's protocol.
//
// The traced run repeats each span on a replica trainer loaded with the
// primary's model and interests, calling the public pieces TrainSpan is
// made of one by one (see README "How the training numbers are taken").
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "core/checkpoint.h"
#include "core/imsr_trainer.h"
#include "core/interest_store.h"
#include "core/interests_expansion.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "src/common.h"
#include "src/reference.h"
#include "src/workloads.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "models/msr_model.h"
#include "nn/arena.h"
#include "nn/ops.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using imsr::data::ItemId;
using imsr::data::UserId;

// Taobao preset at scale 3.5: 2100 users and 7000 items before
// filtering; span 0 keeps about two thousand users.
constexpr double kScale = 3.5;
constexpr int kIncrementalSpans = 4;
constexpr int kPretrainEpochs = 2;
constexpr int kSpanEpochs = 3;  // r in Algorithm 2
constexpr int kSetups = 3;
// A run trains max(1, seconds / kRoundSeconds) whole rounds, a number
// fixed by the run length alone; one round takes about this long.
constexpr double kRoundSeconds = 20.0;
constexpr int kTopN = 20;
constexpr int kRecommendTopN = 10;
// EvaluateSpan runs per evaluated span; its time is their median.
constexpr int kEvalRepeats = 3;
// Test users per evaluated span answered with RecommendOne (latency);
// the first kCheckUsers answers are checked against the reference scorer
// (recall), and the first kHrCheckUsers of those also re-derive HR/NDCG
// from reference ranks.
constexpr size_t kRequestUsers = 1000;
constexpr size_t kCheckUsers = 250;
constexpr size_t kHrCheckUsers = 100;

struct Trainer {
  std::unique_ptr<imsr::models::MsrModel> model;
  imsr::core::InterestStore store;
  imsr::serve::SnapshotRegistry registry;
  std::unique_ptr<imsr::core::ImsrTrainer> trainer;
};

imsr::core::TrainConfig MakeTrainConfig(uint64_t seed) {
  imsr::core::TrainConfig config;
  config.pretrain_epochs = kPretrainEpochs;
  config.epochs = kSpanEpochs;
  config.seed = seed;
  return config;
}

std::unique_ptr<Trainer> MakeTrainer(const imsr::data::Dataset& dataset,
                                     uint64_t seed) {
  auto t = std::make_unique<Trainer>();
  t->model = std::make_unique<imsr::models::MsrModel>(
      imsr::models::ModelConfig{}, dataset.num_items(), seed);
  t->trainer = std::make_unique<imsr::core::ImsrTrainer>(
      t->model.get(), &t->store, MakeTrainConfig(seed));
  t->trainer->set_snapshot_registry(&t->registry);
  return t;
}

// Everything measured over a run, across rounds.
struct Totals {
  std::vector<double> pretrain_s;
  std::vector<double> span_ms;
  double eval_seconds = 0.0;
  int64_t eval_users = 0;
  std::vector<double> eval_ms;
  std::vector<double> hr;    // incremental spans only
  std::vector<double> ndcg;
  // Per evaluated span: the p50 and p99 of its RecommendOne times.
  std::vector<double> request_p50_ms;
  std::vector<double> request_p99_ms;
  std::vector<double> recall;
  std::vector<double> score_all_us;
  double avg_interests = 0.0;
  // Traced: the replica's component timings.
  std::vector<double> samples_ms, teacher_ms, ensure_ms, expansion_ms,
      epoch_ms, refresh_ms, build_ms, publish_us, components_ms,
      batch_loss_us, backward_us, adam_us, steps, snapshot_mb;
  int64_t added = 0;
  int64_t trimmed = 0;
  int64_t timer_reads = 0;
};

// The evaluable (user, target) pairs of `test_span` in the snapshot.
std::vector<std::pair<UserId, ItemId>> TestPairs(
    const imsr::data::Dataset& dataset, int test_span,
    const imsr::serve::ServingSnapshot& snapshot) {
  std::vector<std::pair<UserId, ItemId>> pairs;
  for (UserId user : dataset.active_users(test_span)) {
    const ItemId target = dataset.user_span(user, test_span).test;
    if (target >= 0 && snapshot.HasUser(user)) pairs.emplace_back(user, target);
  }
  return pairs;
}

// A snapshot holding only `users`' interests, so EvaluateSpan scores
// exactly the sampled users.
std::shared_ptr<imsr::serve::ServingSnapshot> SubSnapshot(
    const imsr::serve::ServingSnapshot& snapshot, std::vector<UserId> users) {
  std::sort(users.begin(), users.end());
  imsr::core::PackedInterests packed;
  packed.dim = snapshot.dim();
  for (UserId user : users) {
    const imsr::nn::ConstMatrixView rows = snapshot.Interests(user);
    packed.users.push_back(user);
    packed.row_begin.push_back(static_cast<int64_t>(packed.data.size()) /
                               packed.dim);
    packed.counts.push_back(static_cast<int32_t>(rows.rows));
    packed.data.insert(packed.data.end(), rows.data,
                       rows.data + rows.rows * rows.cols);
  }
  return std::make_shared<imsr::serve::ServingSnapshot>(
      snapshot.item_embeddings().Clone(), std::move(packed),
      snapshot.trained_through_span());
}

// Evaluates `test_span` on the current snapshot (the paper's protocol),
// answers a sample of its users with RecommendOne, and checks both
// against the reference scorer.
void EvaluateAndCheck(const imsr::data::Dataset& dataset, int test_span,
                      bool incremental, const imsr::serve::ServingSnapshot& snapshot,
                      bool trace, Totals* totals, Report* report) {
  imsr::eval::EvalConfig eval_config;
  eval_config.top_n = kTopN;
  eval_config.threads = 0;  // the whole pool
  eval_config.retrieval = imsr::serve::RetrievalMode::kExact;
  imsr::eval::EvalResult result;
  std::vector<double> eval_runs;
  Clock::time_point start;
  for (int r = 0; r < kEvalRepeats; ++r) {
    start = Clock::now();
    result = imsr::eval::EvaluateSpan(snapshot, dataset, test_span,
                                      eval_config);
    eval_runs.push_back(SecondsSince(start));
  }
  const double eval_s = Median(eval_runs);
  report->Attempt();
  totals->eval_seconds += eval_s;
  totals->eval_ms.push_back(eval_s * 1e3);
  totals->eval_users += result.metrics.users;
  if (incremental) {
    totals->hr.push_back(result.metrics.hit_ratio);
    totals->ndcg.push_back(result.metrics.ndcg);
  }

  // Requests: an even spread of the span's test users.
  const std::vector<std::pair<UserId, ItemId>> pairs =
      TestPairs(dataset, test_span, snapshot);
  std::vector<std::pair<UserId, ItemId>> picked;
  const size_t stride = std::max<size_t>(1, pairs.size() / kRequestUsers);
  for (size_t i = 0; i < pairs.size() && picked.size() < kRequestUsers;
       i += stride) {
    picked.push_back(pairs[i]);
  }
  imsr::serve::ServeConfig serve_config;
  serve_config.default_top_n = kRecommendTopN;
  serve_config.retrieval = imsr::serve::RetrievalMode::kExact;
  imsr::serve::RecommendScratch scratch;
  std::vector<imsr::serve::RecommendResponse> responses(picked.size());
  std::vector<double> request_ms;
  for (size_t i = 0; i < picked.size(); ++i) {
    start = Clock::now();
    imsr::serve::RecommendOne(snapshot, {picked[i].first, kRecommendTopN},
                              serve_config, &scratch, &responses[i]);
    request_ms.push_back(MillisSince(start));
    report->Attempt();
    if (!responses[i].ok) {
      report->Fail("RecommendOne user " + std::to_string(picked[i].first) +
                   ": " + responses[i].error);
    }
  }
  totals->request_p50_ms.push_back(Quantile(request_ms, 0.5));
  totals->request_p99_ms.push_back(Quantile(request_ms, 0.99));
  if (trace) {
    imsr::eval::RankScratch rank;
    for (size_t i = 0; i < picked.size(); ++i) {
      start = Clock::now();
      imsr::eval::ScoreAllItemsInto(snapshot.Interests(picked[i].first),
                                    snapshot.item_embeddings(),
                                    eval_config.rule, &rank);
      totals->score_all_us.push_back(MicrosSince(start));
    }
    totals->timer_reads += 4 * static_cast<int64_t>(picked.size());
  }

  // Reference scores for the checked users (4 threads).
  // Sized here so the worker threads below do not allocate.
  picked.resize(std::min(picked.size(), kCheckUsers));
  std::vector<std::vector<double>> scores(
      picked.size(),
      std::vector<double>(static_cast<size_t>(snapshot.num_items())));
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < picked.size(); i = next++) {
        ReferenceScoreAll(snapshot.Interests(picked[i].first),
                          snapshot.item_embeddings(), eval_config.rule,
                          &scores[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < picked.size(); ++i) {
    if (!responses[i].ok) continue;  // already counted as failed
    report->Attempt();
    std::string why;
    if (!CheckExactTopN(responses[i].items, scores[i], kRecommendTopN, &why)) {
      report->Fail("RecommendOne user " + std::to_string(picked[i].first) +
                   ": " + why);
    }
    totals->recall.push_back(
        RecallAtN(responses[i].items, scores[i], kRecommendTopN));
  }

  // HR@20 / NDCG@20 of the first users, from reference ranks, against
  // EvaluateSpan restricted to the same users. Ties allow a rank range,
  // so the evaluator's figures must fall inside the implied interval.
  const size_t check = std::min(kHrCheckUsers, picked.size());
  std::vector<UserId> users;
  imsr::eval::MetricsAccumulator best(kTopN);
  imsr::eval::MetricsAccumulator worst(kTopN);
  for (size_t i = 0; i < check; ++i) {
    users.push_back(picked[i].first);
    const RankBounds bounds = ReferenceRankBounds(scores[i], picked[i].second);
    best.AddRank(bounds.best);
    worst.AddRank(bounds.worst);
  }
  const imsr::eval::EvalResult sub = imsr::eval::EvaluateSpan(
      *SubSnapshot(snapshot, users), dataset, test_span, eval_config);
  const imsr::eval::TopNMetrics hi = best.Finalize();
  const imsr::eval::TopNMetrics lo = worst.Finalize();
  constexpr double kEps = 1e-12;
  report->Attempt();
  if (sub.metrics.users != static_cast<int64_t>(check) ||
      sub.metrics.hit_ratio < lo.hit_ratio - kEps ||
      sub.metrics.hit_ratio > hi.hit_ratio + kEps ||
      sub.metrics.ndcg < lo.ndcg - kEps || sub.metrics.ndcg > hi.ndcg + kEps) {
    report->Fail("span " + std::to_string(test_span) + ": EvaluateSpan HR " +
                 std::to_string(sub.metrics.hit_ratio) + " NDCG " +
                 std::to_string(sub.metrics.ndcg) +
                 " outside the reference range HR [" +
                 std::to_string(lo.hit_ratio) + ", " +
                 std::to_string(hi.hit_ratio) + "] NDCG [" +
                 std::to_string(lo.ndcg) + ", " + std::to_string(hi.ndcg) +
                 "] over " + std::to_string(check) + " users");
  }
}

// One span on the replica: TrainSpan's public pieces, each timed. The
// replica holds the primary's model and interests (loaded from a
// checkpoint just before); its optimizer moments, RNG stream and graph
// arena are its own.
void ReplicaSpan(const imsr::data::Dataset& dataset, int span,
                 const std::string& checkpoint, Trainer* primary,
                 Trainer* replica, imsr::util::Rng* rng, Totals* totals,
                 Report* report) {
  std::string error;
  imsr::core::CheckpointMetadata metadata;
  if (!imsr::core::SaveCheckpoint(checkpoint, *primary->model, primary->store,
                                  metadata, &error) ||
      !imsr::core::LoadCheckpoint(checkpoint, replica->model.get(),
                                  &replica->store, &metadata, &error)) {
    report->Fail("replica checkpoint: " + error);
    return;
  }
  imsr::core::ImsrTrainer& trainer = *replica->trainer;
  const imsr::core::TrainConfig& config = trainer.config();
  double components = 0.0;
  const auto timed = [&components](std::vector<double>* out, auto&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const double ms = MillisSince(start);
    out->push_back(ms);
    components += ms;
  };

  imsr::core::TeacherSnapshot teacher;
  timed(&totals->teacher_ms,
        [&] { teacher = trainer.SnapshotTeacher(dataset, span); });
  timed(&totals->ensure_ms, [&] { trainer.EnsureUserState(dataset, span); });
  std::vector<imsr::data::TrainingSample> samples;
  timed(&totals->samples_ms, [&] {
    samples = imsr::data::BuildSpanSamples(dataset, span, config.max_history);
  });
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    if (epoch == 0) {
      imsr::core::ExpansionOutcome outcome;
      timed(&totals->expansion_ms, [&] {
        outcome = imsr::core::RunInterestsExpansion(
            replica->model.get(), &replica->store, dataset, span,
            config.expansion, *rng, &trainer.optimizer());
      });
      totals->added += outcome.interests_added;
      totals->trimmed += outcome.interests_trimmed;
      // The epoch loop TrainEpoch runs, call by call.
      timed(&totals->epoch_ms, [&] {
        std::vector<size_t> order(samples.size());
        std::iota(order.begin(), order.end(), 0);
        rng->Shuffle(order);
        imsr::nn::GraphArena arena;
        imsr::nn::GraphArenaScope scope(&arena);
        const size_t batch = static_cast<size_t>(config.batch_size);
        double steps = 0;
        for (size_t begin = 0; begin < order.size(); begin += batch) {
          const size_t count = std::min(batch, order.size() - begin);
          Clock::time_point start = Clock::now();
          imsr::nn::Var loss = trainer.BatchLoss(samples, order.data() + begin,
                                                 count, &teacher);
          loss = imsr::nn::ops::Scale(loss, 1.0f / static_cast<float>(count));
          totals->batch_loss_us.push_back(MicrosSince(start));
          start = Clock::now();
          loss.Backward();
          totals->backward_us.push_back(MicrosSince(start));
          start = Clock::now();
          trainer.optimizer().Step();
          totals->adam_us.push_back(MicrosSince(start));
          trainer.optimizer().ZeroGradAll();
          loss = imsr::nn::Var();
          arena.Reset();
          totals->timer_reads += 6;
          ++steps;
        }
        totals->steps.push_back(steps);
      });
    } else {
      timed(&totals->epoch_ms, [&] { trainer.TrainEpoch(samples, &teacher); });
    }
  }
  timed(&totals->refresh_ms, [&] { trainer.RefreshInterests(dataset, span); });
  std::shared_ptr<imsr::serve::ServingSnapshot> snapshot;
  timed(&totals->build_ms, [&] {
    snapshot = imsr::serve::BuildSnapshot(*replica->model, replica->store, span);
  });
  totals->snapshot_mb.push_back(double(snapshot->bytes()) / 1e6);
  std::vector<double> publish_ms;
  timed(&publish_ms,
        [&] { replica->registry.Publish(std::move(snapshot)); });
  totals->publish_us.push_back(publish_ms.back() * 1e3);
  totals->components_ms.push_back(components);
  totals->timer_reads += 2 * (8 + config.epochs);
}

}  // namespace

void RunTrainIncremental(const Options& options, Report* report) {
  imsr::data::SyntheticConfig data_config =
      imsr::data::SyntheticConfig::Taobao(kScale);
  data_config.num_incremental_spans = kIncrementalSpans;
  data_config.seed = 0x7a0b0000ULL + options.seed;
  const uint64_t model_seed = 7 + options.seed;

  // Set-up: generate the interaction log, build the span structure and
  // the model + trainer. Repeated; the last one trains.
  std::vector<double> setup_s;
  imsr::data::SyntheticDataset data;
  std::unique_ptr<Trainer> primary;
  for (int s = 0; s < kSetups; ++s) {
    primary.reset();
    const Clock::time_point start = Clock::now();
    data = imsr::data::GenerateSynthetic(data_config);
    primary = MakeTrainer(*data.dataset, model_seed);
    setup_s.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Median(setup_s), "s");
  const imsr::data::Dataset& dataset = *data.dataset;

  const std::string checkpoint = options.work_dir + "/perfbench-replica-" +
                                 std::to_string(::getpid()) + ".ckpt";
  const double clock_ns = options.trace ? ClockReadNanos() : 0.0;
  Totals totals;
  std::vector<double> traced_s;
  const int rounds =
      std::max(1, static_cast<int>(options.seconds / kRoundSeconds));
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) primary = MakeTrainer(dataset, model_seed);
    std::unique_ptr<Trainer> replica =
        options.trace ? MakeTrainer(dataset, model_seed + 1) : nullptr;
    imsr::util::Rng replica_rng(model_seed + 2);

    Clock::time_point start = Clock::now();
    primary->trainer->Pretrain(dataset);
    totals.pretrain_s.push_back(SecondsSince(start));
    report->Attempt();
    EvaluateAndCheck(dataset, 1, /*incremental=*/false,
                     *primary->registry.Current(), options.trace, &totals,
                     report);
    for (int span = 1; span < dataset.num_spans() - 1; ++span) {
      if (options.trace) {
        const Clock::time_point replica_start = Clock::now();
        ReplicaSpan(dataset, span, checkpoint, primary.get(), replica.get(),
                    &replica_rng, &totals, report);
        traced_s.push_back(SecondsSince(replica_start));
      }
      start = Clock::now();
      primary->trainer->TrainSpan(dataset, span);
      totals.span_ms.push_back(MillisSince(start));
      report->Attempt();
      EvaluateAndCheck(dataset, span + 1, /*incremental=*/true,
                       *primary->registry.Current(), options.trace, &totals,
                       report);
    }
    totals.avg_interests = primary->store.AverageInterests();
  }
  ::unlink(checkpoint.c_str());

  const double hr = Mean(totals.hr);
  const double floor = static_cast<double>(kTopN) / dataset.num_items();
  if (!(hr > floor)) {
    report->FailGate("mean HR@20 " + std::to_string(hr) +
                     " not above the random-ranking floor " +
                     std::to_string(floor));
  }
  report->Set("data_to_servable_ms", Median(totals.span_ms), "ms");
  report->Set("answers_per_s",
              static_cast<double>(totals.eval_users) / totals.eval_seconds,
              "1/s");
  report->Set("latency_p50_ms", Median(totals.request_p50_ms), "ms");
  report->Set("latency_p99_ms", Median(totals.request_p99_ms), "ms");
  report->Set("recall_at_10", Mean(totals.recall), "fraction");
  report->Detail("pretrain_s", Median(totals.pretrain_s), "s");
  report->Detail("train_span_s", Median(totals.span_ms) / 1e3, "s");
  report->Detail("eval_users_per_s",
                 static_cast<double>(totals.eval_users) / totals.eval_seconds,
                 "users/s");
  report->Detail("hr_at_20", hr, "fraction");
  report->Detail("ndcg_at_20", Mean(totals.ndcg), "fraction");
  report->Detail("items", dataset.num_items(), "count");
  report->Detail("span0_users",
                 static_cast<double>(dataset.active_users(0).size()), "count");

  if (!options.trace) return;
  report->Set("core.pretrain_s", Median(totals.pretrain_s), "s");
  report->Set("core.span_ms", Median(totals.span_ms), "ms");
  report->Set("core.span_components_ms", Median(totals.components_ms), "ms");
  report->Set("core.span_accounted_pct",
              100.0 * Sum(totals.components_ms) / Sum(totals.span_ms), "%");
  report->Set("data.span_samples_ms", Median(totals.samples_ms), "ms");
  report->Set("core.teacher_snapshot_ms", Median(totals.teacher_ms), "ms");
  report->Set("core.ensure_user_state_ms", Median(totals.ensure_ms), "ms");
  report->Set("core.expansion_ms", Median(totals.expansion_ms), "ms");
  report->Set("core.interests_added", double(totals.added), "count");
  report->Set("core.interests_trimmed", double(totals.trimmed), "count");
  report->Set("core.pit_keep_ratio",
              totals.added + totals.trimmed > 0
                  ? double(totals.added) / double(totals.added + totals.trimmed)
                  : 0.0,
              "fraction");
  report->Set("core.avg_interests", totals.avg_interests, "count");
  report->Set("core.train_epoch_ms", Median(totals.epoch_ms), "ms");
  report->Set("core.train_steps", Median(totals.steps), "count");
  report->Set("core.refresh_interests_ms", Median(totals.refresh_ms), "ms");
  report->Set("models.batch_loss_us", Median(totals.batch_loss_us), "us");
  report->Set("nn.backward_us", Median(totals.backward_us), "us");
  report->Set("nn.adam_step_us", Median(totals.adam_us), "us");
  report->Set("eval.evaluate_span_ms", Median(totals.eval_ms), "ms");
  report->Set("eval.score_all_items_us", Median(totals.score_all_us), "us");
  report->Set("eval.users_per_s",
              static_cast<double>(totals.eval_users) / totals.eval_seconds,
              "1/s");
  report->Set("eval.hr_at_20", hr, "fraction");
  report->Set("eval.ndcg_at_20", Mean(totals.ndcg), "fraction");
  report->Set("serve.build_snapshot_ms", Median(totals.build_ms), "ms");
  report->Set("serve.snapshot_mb", Median(totals.snapshot_mb), "MB");
  report->Set("serve.publish_us", Median(totals.publish_us), "us");
  report->Set("serve.recommend_one_us", Median(totals.request_p50_ms) * 1e3,
              "us");
  report->Set("trace.overhead_pct",
              100.0 * double(totals.timer_reads) * clock_ns * 1e-9 /
                  Sum(traced_s),
              "%");
}

}  // namespace perfbench
