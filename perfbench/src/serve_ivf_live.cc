// serve-ivf-live: reads beside writes. A pretrained Taobao-preset corpus
// is served with IVF retrieval, 2 shards and the response cache, to an
// open loop of Poisson arrivals over Zipf-0.9 users. Meanwhile, in the
// same process, a test-then-learn loop replays the post-pretrain events,
// which arrive as a second Poisson stream: each is scored on the current
// snapshot (PrequentialEvaluator), then learned (StreamTrainer::Consume),
// which publishes an IVF-indexed snapshot every kPublishEvery events —
// each publish changes the data epoch and so invalidates the cache.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/imsr_trainer.h"
#include "data/synthetic.h"
#include "src/common.h"
#include "src/reference.h"
#include "src/serve_client.h"
#include "src/workloads.h"
#include "models/msr_model.h"
#include "serve/ivf_index.h"
#include "serve/protocol.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stream/event_source.h"
#include "stream/prequential.h"
#include "stream/stream_trainer.h"

namespace perfbench {
namespace {

using imsr::data::UserId;

constexpr double kScale = 3.0;  // 6000 items, 1800 users before filtering
constexpr int kPretrainEpochs = 2;
constexpr int kSetups = 3;
constexpr int kShards = 2;
constexpr int kConnections = 4;
constexpr double kRate = 1000.0;  // requests per second, open loop
constexpr double kZipf = 0.9;
constexpr int kTopN = 10;
constexpr double kEventRate = 400.0;  // stream events per second
constexpr int64_t kPublishEvery = 200;
constexpr size_t kQueueCap = 4096;
constexpr size_t kCacheBytes = size_t{64} << 20;
constexpr int kSampleEvery = 20;
constexpr double kRecallFloor = 0.95;  // ann_test's gate

imsr::serve::ShardSetConfig MakeShardConfig() {
  imsr::serve::ShardSetConfig config;
  config.num_shards = kShards;
  config.queue_cap = kQueueCap;
  config.cache_bytes = kCacheBytes;
  config.serve.default_top_n = kTopN;
  config.serve.rule = imsr::eval::ScoreRule::kAttentive;
  config.serve.retrieval = imsr::serve::RetrievalMode::kIVF;
  return config;
}

// What the test-then-learn loop measured.
struct StreamLog {
  int64_t events = 0;
  double busy_s = 0.0;  // loop time spent on events (not waiting for them)
  std::vector<double> score_us;
  std::vector<double> consume_us;   // calls that did not publish
  std::vector<double> publish_ms;   // calls that trained and published
  std::vector<double> servable_ms;  // per event: arrival -> covering publish
  double window_hr = 0.0;
  // Every published snapshot, by version, for the correctness check.
  std::map<uint64_t, std::shared_ptr<const imsr::serve::ServingSnapshot>>
      snapshots;
};

// Test-then-learn over events arriving as a Poisson stream at
// kEventRate (schedule fixed by the seed): each event is scored on the
// current snapshot, then consumed. An event is servable once the publish
// that covers it completes; the wait counts from its scheduled arrival,
// so a trainer that falls behind is charged for the backlog.
void RunStream(imsr::stream::EventSource* source,
               imsr::stream::StreamTrainer* trainer,
               imsr::stream::PrequentialEvaluator* evaluator,
               const imsr::serve::SnapshotRegistry* registry, double seconds,
               uint64_t seed, StreamLog* log) {
  imsr::util::Rng rng(seed);
  std::vector<double> arrivals;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / kEventRate;
    if (t >= seconds) break;
    arrivals.push_back(t);
  }
  const Clock::time_point start = Clock::now();
  const auto at = [start](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset));
  };
  std::vector<Clock::time_point> pending;
  imsr::stream::StreamEvent event;
  KeepSleepsShort();
  for (size_t i = 0; i < arrivals.size() && source->Next(&event); ++i) {
    const Clock::time_point due = at(arrivals[i]);
    std::this_thread::sleep_until(due);
    const Clock::time_point begin = Clock::now();
    const std::shared_ptr<const imsr::serve::ServingSnapshot> snapshot =
        registry->Current();
    const Clock::time_point t0 = Clock::now();
    evaluator->ScoreEvent(*snapshot, event,
                          trainer->trained_through_sequence());
    const Clock::time_point t1 = Clock::now();
    const bool published = trainer->Consume(event);
    const Clock::time_point t2 = Clock::now();
    log->score_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    pending.push_back(due);
    if (published) {
      log->publish_ms.push_back(
          std::chrono::duration<double, std::milli>(t2 - t1).count());
      for (const Clock::time_point arrived : pending) {
        log->servable_ms.push_back(
            std::chrono::duration<double, std::milli>(t2 - arrived).count());
      }
      pending.clear();
      const auto current = registry->Current();
      log->snapshots[current->version()] = current;
    } else {
      log->consume_us.push_back(
          std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
    ++log->events;
    log->busy_s += SecondsSince(begin);
  }
  log->window_hr = evaluator->Window().hit_ratio;
}

// Checks sampled responses against the reference scorer on the snapshot
// whose version they carry; returns the mean recall@10.
double CheckSamples(const StreamLog& stream,
                    const std::vector<SampledResponse>& samples,
                    Report* report) {
  std::vector<double> recall(samples.size(), 0.0);
  std::vector<std::string> why(samples.size());
  std::vector<char> ok(samples.size(), 0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      std::vector<double> scores;
      for (size_t i = next++; i < samples.size(); i = next++) {
        const SampledResponse& sample = samples[i];
        const auto found = stream.snapshots.find(sample.snapshot_version);
        if (found == stream.snapshots.end()) {
          why[i] = "unknown snapshot version " +
                   std::to_string(sample.snapshot_version);
          continue;
        }
        const imsr::serve::ServingSnapshot& snapshot = *found->second;
        ReferenceScoreAll(snapshot.Interests(sample.user),
                          snapshot.item_embeddings(),
                          imsr::eval::ScoreRule::kAttentive, &scores);
        ok[i] = sample.items.size() ==
                    std::min<size_t>(scores.size(), kTopN) &&
                CheckReturnedScores(sample.items, scores, &why[i]);
        if (why[i].empty() && !ok[i]) why[i] = "short answer";
        recall[i] = RecallAtN(sample.items, scores, kTopN);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < samples.size(); ++i) {
    report->Attempt();
    if (!ok[i]) {
      report->Fail("serve-ivf-live user " + std::to_string(samples[i].user) +
                   ": " + why[i]);
    }
  }
  return Mean(recall);
}

// Traced passes, run after the live phase on the final snapshot.
void TraceLayers(const imsr::serve::SnapshotRegistry& registry,
                 const imsr::models::MsrModel& model,
                 const imsr::core::InterestStore& store, const LoadResult& load,
                 const std::string& socket_path, uint64_t seed,
                 const UserPicker& picker, double clock_ns, Report* report) {
  const std::shared_ptr<const imsr::serve::ServingSnapshot> snapshot =
      registry.Current();
  // The socket / ShardSet / in-process comparison runs with the cache
  // off, so all three layers do the same IVF work per request.
  imsr::serve::ShardSetConfig shard_config = MakeShardConfig();
  shard_config.cache_bytes = 0;
  const Clock::time_point traced_start = Clock::now();
  int64_t timer_reads = 0;

  // Closed loop over the socket on the final snapshot.
  LoadResult closed_load;
  {
    imsr::serve::ServerConfig config;
    config.unix_path = socket_path;
    config.shards = shard_config;
    ServerThread server(&registry, config);
    std::string error;
    if (!server.Start(&error)) {
      report->Fail("uncached server start: " + error);
      return;
    }
    LoadConfig closed;
    closed.socket_path = socket_path;
    closed.connections = kConnections;
    closed.seconds = 2.0;
    closed.top_n = kTopN;
    closed.seed = seed + 99;
    closed.sample_every = 0;
    closed.picker = picker;
    closed_load = RunClosedLoop(closed);
  }
  const size_t prefix = std::min<size_t>(closed_load.sequence.size(), 1000);
  const std::vector<UserId> sequence(closed_load.sequence.begin(),
                                     closed_load.sequence.begin() + prefix);

  // IvfIndex::SearchTopN on the closed loop's first requests.
  const imsr::serve::IvfIndex* index = snapshot->index();
  std::vector<double> search_us;
  imsr::serve::IvfSearchTotals totals;
  {
    imsr::serve::IvfIndex::Scratch scratch;
    std::vector<std::pair<imsr::data::ItemId, float>> top;
    double interests = 0.0;
    for (size_t i = 0; i < sequence.size(); ++i) {
      imsr::serve::IvfSearchStats stats;
      const Clock::time_point start = Clock::now();
      index->SearchTopN(snapshot->Interests(sequence[i]),
                        snapshot->item_embeddings(),
                        imsr::eval::ScoreRule::kAttentive, kTopN, 0, &scratch,
                        &top, &stats);
      search_us.push_back(MicrosSince(start));
      totals.Add(stats);
      interests += double(snapshot->NumInterests(sequence[i]));
    }
    timer_reads += 2 * static_cast<int64_t>(search_us.size());
    const double n = double(std::max<int64_t>(totals.searches, 1));
    const double k = interests / n;
    const double d = double(snapshot->dim());
    const double centroids = double(index->num_centroids());
    const double shortlist = double(totals.shortlist) / n;
    const double reranked = double(totals.reranked) / n;
    report->Set("serve.ivf_search_us", Median(search_us), "us");
    report->Set("serve.ivf_probes", double(totals.probes) / n, "count");
    report->Set("serve.ivf_shortlist", shortlist, "count");
    report->Set("serve.ivf_reranked", reranked, "count");
    // Centroid table (float), shortlist codes (int8) and re-rank rows
    // (float); flops of the three dot-product passes.
    report->Set("serve.ivf_search_kb",
                (centroids * d * 4 + shortlist * d + reranked * d * 4) / 1e3,
                "KB");
    report->Set("serve.ivf_search_mflop",
                2.0 * k * d * (centroids + shortlist + reranked) / 1e6,
                "MFLOP");
  }

  // Snapshot build, index build and publish, on the final state.
  {
    Clock::time_point start = Clock::now();
    std::shared_ptr<imsr::serve::ServingSnapshot> first =
        imsr::serve::BuildSnapshot(model, store, 1000);
    report->Set("serve.build_snapshot_ms", MillisSince(start), "ms");
    report->Set("serve.snapshot_mb", double(first->bytes()) / 1e6, "MB");
    const imsr::core::PackedInterests seeds = store.ExportPacked();
    start = Clock::now();
    const imsr::serve::IvfIndex built(first->item_embeddings(), seeds,
                                      imsr::serve::IvfBuildConfig{});
    report->Set("serve.ivf_build_ms", MillisSince(start), "ms");
    imsr::serve::SnapshotRegistry side;
    side.Publish(std::move(first));
    std::shared_ptr<imsr::serve::ServingSnapshot> second =
        imsr::serve::BuildSnapshot(model, store, 1001);
    start = Clock::now();
    side.Publish(std::move(second));  // content-equal: the full compare
    report->Set("serve.publish_us", MicrosSince(start), "us");
    timer_reads += 6;
  }

  ReportServingLayers(registry, shard_config, closed_load, kConnections,
                      kTopN, Median(search_us), report, &timer_reads);
  ReportCodec(load.samples, report, &timer_reads);
  report->Set("trace.overhead_pct",
              100.0 * double(timer_reads) * clock_ns * 1e-9 /
                  SecondsSince(traced_start),
              "%");
}

}  // namespace

void RunServeIvfLive(const Options& options, Report* report) {
  imsr::data::SyntheticConfig data_config =
      imsr::data::SyntheticConfig::Taobao(kScale);
  data_config.seed = 0x11fe0000ULL + options.seed;
  const uint64_t seed = 7 + options.seed;

  // Set-up: generate the log and build the span structure, the model and
  // the replay events (three times; the median counts and the last one
  // runs), then pretrain, publish the first IVF-indexed snapshot and
  // start the server (once: the pretrain is most of the set-up).
  std::vector<double> generate_s;
  imsr::data::SyntheticDataset data;
  std::unique_ptr<imsr::models::MsrModel> model;
  std::vector<imsr::data::Interaction> replay;
  for (int s = 0; s < kSetups; ++s) {
    model.reset();
    replay.clear();
    const Clock::time_point start = Clock::now();
    data = imsr::data::GenerateSynthetic(data_config);
    model = std::make_unique<imsr::models::MsrModel>(
        imsr::models::ModelConfig{}, data.dataset->num_items(), seed);
    const std::vector<imsr::data::Interaction> log =
        imsr::data::FlattenDatasetToLog(*data.dataset);
    const int64_t boundary =
        imsr::stream::PretrainBoundaryTimestamp(log, data_config.alpha);
    for (const imsr::data::Interaction& record : log) {
      if (record.timestamp >= boundary && data.dataset->user_kept(record.user)) {
        replay.push_back(record);
      }
    }
    generate_s.push_back(SecondsSince(start));
  }

  imsr::core::InterestStore store;
  imsr::serve::SnapshotRegistry registry;
  imsr::core::TrainConfig train;
  train.seed = seed;
  train.pretrain_epochs = kPretrainEpochs;
  Clock::time_point start = Clock::now();
  {
    imsr::core::ImsrTrainer pretrainer(model.get(), &store, train);
    pretrainer.Pretrain(*data.dataset);
  }
  const double pretrain_s = SecondsSince(start);
  imsr::stream::StreamTrainerConfig trainer_config;
  trainer_config.publish_every = kPublishEvery;
  trainer_config.train = train;
  trainer_config.build_index = true;
  imsr::stream::StreamTrainer trainer(model.get(), &store, &registry,
                                      trainer_config);
  trainer.PublishInitial();
  report->Set("core.pretrain_s", pretrain_s, "s");

  StreamLog stream;
  stream.snapshots[registry.Current()->version()] = registry.Current();
  // Requests go to users the first snapshot serves (the store only grows).
  const std::vector<UserId> users = registry.Current()->Users();
  const UserPicker zipf = ZipfPicker(users.size(), kZipf);
  const UserPicker picker = [zipf, &users](imsr::util::Rng* rng) {
    return users[static_cast<size_t>(zipf(rng))];
  };

  const std::string socket_path = options.work_dir + "/perfbench-ivf-" +
                                  std::to_string(::getpid()) + ".sock";
  imsr::serve::ServerConfig server_config;
  server_config.unix_path = socket_path;
  server_config.shards = MakeShardConfig();
  ServerThread server(&registry, server_config);
  std::string error;
  if (!server.Start(&error)) {
    report->Attempt();
    report->Fail("server start: " + error);
    return;
  }
  report->Set("setup_s", Median(generate_s) + SecondsSince(start), "s");

  imsr::stream::PrequentialConfig prequential;
  prequential.retrieval = imsr::serve::RetrievalMode::kIVF;
  imsr::stream::PrequentialEvaluator evaluator(prequential);
  imsr::stream::ReplayEventSource source(std::move(replay));
  const double clock_ns = options.trace ? ClockReadNanos() : 0.0;

  std::thread learner([&] {
    RunStream(&source, &trainer, &evaluator, &registry, options.seconds,
              seed + 5, &stream);
  });
  LoadConfig load_config;
  load_config.socket_path = socket_path;
  load_config.connections = kConnections;
  load_config.seconds = options.seconds;
  load_config.top_n = kTopN;
  load_config.seed = seed;
  load_config.sample_every = kSampleEvery;
  load_config.picker = picker;
  load_config.rate = kRate;
  const LoadResult load = RunOpenLoop(load_config);
  learner.join();
  const imsr::serve::ShardSetStats socket_stats = server.server().shard_stats();

  report->Attempt(static_cast<int64_t>(load.sent + load.lost));
  for (uint64_t i = 0; i < load.not_ok + load.lost; ++i) {
    report->Fail(load.failures.empty() ? "request failed" : load.failures[0]);
  }
  report->Attempt(stream.events);
  const double recall = CheckSamples(stream, load.samples, report);
  if (!(recall >= kRecallFloor)) {
    report->FailGate("IVF recall@10 " + std::to_string(recall) +
                     " below the floor " + std::to_string(kRecallFloor));
  }

  // Capacity: events per second of loop time spent on them.
  const double events_per_s = double(stream.events) / stream.busy_s;
  report->Set("answers_per_s", double(load.ok) / load.elapsed_s, "1/s");
  report->Set("latency_p50_ms", WindowedLatencyQuantile(load, 0.5), "ms");
  report->Set("latency_p99_ms", WindowedLatencyQuantile(load, 0.99),
              "ms");
  report->Set("data_to_servable_ms", Median(stream.servable_ms), "ms");
  report->Set("recall_at_10", recall, "fraction");
  report->Detail("stream_events_per_s", events_per_s, "events/s");
  report->Detail("event_to_servable_p50_ms", Median(stream.servable_ms), "ms");
  report->Detail("ivf_recall_at_10", recall, "fraction");
  report->Detail("offered_rate", kRate, "req/s");
  report->Detail("event_rate", kEventRate, "events/s");
  if (options.trace) {
    const double cache_lookups =
        double(socket_stats.cache_hits + socket_stats.cache_misses);
    report->Set("stream.score_event_us", Median(stream.score_us), "us");
    report->Set("stream.consume_us", Median(stream.consume_us), "us");
    report->Set("stream.publish_ms", Median(stream.publish_ms), "ms");
    report->Set("stream.publishes", double(stream.publish_ms.size()), "count");
    report->Set("stream.events_per_s", events_per_s, "1/s");
    report->Set("stream.event_to_servable_p50_ms", Median(stream.servable_ms),
                "ms");
    report->Set("stream.accounted_pct",
                100.0 *
                    (Sum(stream.score_us) * 1e-6 + Sum(stream.consume_us) * 1e-6 +
                     Sum(stream.publish_ms) * 1e-3) /
                    stream.busy_s,
                "%");
    report->Set("stream.window_hr_at_20", stream.window_hr, "fraction");
    report->Set("serve.ivf_recall_at_10", recall, "fraction");
    report->Set("serve.mean_batch",
                socket_stats.batches > 0 ? double(socket_stats.answered) /
                                               double(socket_stats.batches)
                                         : 0.0,
                "count");
    report->Set("serve.rejected", double(socket_stats.rejected), "count");
    report->Set("serve.cache_hits", double(socket_stats.cache_hits), "count");
    report->Set("serve.cache_misses", double(socket_stats.cache_misses),
                "count");
    report->Set("serve.cache_hit_ratio",
                cache_lookups > 0 ? double(socket_stats.cache_hits) /
                                        cache_lookups
                                  : 0.0,
                "fraction");
    report->Set("serve.cache_evictions", double(socket_stats.cache_evictions),
                "count");
    report->Set("loadgen.send_lag_p99_ms", Quantile(load.send_lag_ms, 0.99),
                "ms");
    server.Stop();
    TraceLayers(registry, *model, store, load, socket_path + ".uncached", seed,
                picker, clock_ns, report);
  }
  server.Stop();
}

}  // namespace perfbench
