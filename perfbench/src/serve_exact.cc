// serve-exact: exact retrieval over a clustered 100k-item x 1M-user
// corpus, closed loop over a Unix socket.
//
// Every request sweeps the whole item table (100k x 32 floats, 12.8 MB),
// so the serve scoring kernels are almost all the work; transport is
// small, the response cache is off and nothing trains. Users are drawn
// uniformly, so the 1M users' interest rows (~380 MB, beyond the 300 MiB
// L3 of the reference host) are touched at random.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "core/interest_store.h"
#include "src/common.h"
#include "src/reference.h"
#include "src/serve_client.h"
#include "src/workloads.h"
#include "models/msr_model.h"
#include "serve/protocol.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using imsr::data::UserId;

constexpr int64_t kItems = 100000;
constexpr int64_t kUsers = 1000000;
constexpr int64_t kDim = 32;
constexpr int kShards = 4;
constexpr int kConnections = 4;
constexpr int kTopN = 10;
constexpr int kSetups = 3;
// Users whose interests change before each timed republish.
constexpr int64_t kUpdatedUsers = 10000;
constexpr int kUpdates = 3;
// Responses checked against the reference scorer: every Nth per
// connection.
constexpr int kSampleEvery = 40;

struct Corpus {
  std::unique_ptr<imsr::models::MsrModel> model;
  imsr::core::InterestStore store;
  imsr::nn::Tensor centers;
};

// Clustered corpus: item rows near sqrt(items) centers. Each user gets
// 2..4 interest rows, drawn by InterestStore::Initialize; an exact sweep
// costs the same whatever the rows hold.
void MakeCorpus(uint64_t seed, Corpus* corpus) {
  imsr::models::ModelConfig config;
  config.embedding_dim = kDim;
  config.attention_dim = kDim;
  corpus->model =
      std::make_unique<imsr::models::MsrModel>(config, kItems, seed);
  imsr::util::Rng rng(seed);
  const int64_t clusters = static_cast<int64_t>(std::sqrt(double(kItems)));
  corpus->centers = imsr::nn::Tensor::Randn({clusters, kDim}, rng);
  imsr::nn::Tensor& table =
      corpus->model->embeddings().parameter().mutable_value();
  for (int64_t i = 0; i < kItems; ++i) {
    const float* center =
        corpus->centers.data() +
        static_cast<int64_t>(rng.NextBelow(uint64_t(clusters))) * kDim;
    float* row = table.data() + i * kDim;
    for (int64_t c = 0; c < kDim; ++c) {
      row[c] = center[c] + 0.15f * static_cast<float>(rng.NextGaussian());
    }
  }
  for (int64_t user = 0; user < kUsers; ++user) {
    const int64_t k = 2 + static_cast<int64_t>(rng.NextBelow(3));
    corpus->store.Initialize(static_cast<UserId>(user), k, kDim, 0, rng);
  }
}

// Moves `count` users' interests to new clusters (new data arriving).
void UpdateUsers(uint64_t seed, int64_t count, Corpus* corpus) {
  imsr::util::Rng rng(seed);
  const int64_t clusters = corpus->centers.size(0);
  for (int64_t n = 0; n < count; ++n) {
    const auto user = static_cast<UserId>(rng.NextBelow(uint64_t(kUsers)));
    const int64_t k = corpus->store.NumInterests(user);
    imsr::nn::Tensor interests = imsr::nn::Tensor::Uninitialized({k, kDim});
    for (int64_t j = 0; j < k; ++j) {
      const float* center =
          corpus->centers.data() +
          static_cast<int64_t>(rng.NextBelow(uint64_t(clusters))) * kDim;
      float* row = interests.data() + j * kDim;
      for (int64_t c = 0; c < kDim; ++c) {
        row[c] = center[c] + 0.1f * static_cast<float>(rng.NextGaussian());
      }
    }
    corpus->store.SetInterests(user, std::move(interests));
  }
}

imsr::serve::ServeConfig MakeServeConfig() {
  imsr::serve::ServeConfig config;
  config.default_top_n = kTopN;
  config.rule = imsr::eval::ScoreRule::kAttentive;
  config.retrieval = imsr::serve::RetrievalMode::kExact;
  return config;
}

imsr::serve::ShardSetConfig MakeShardConfig() {
  imsr::serve::ShardSetConfig config;
  config.num_shards = kShards;
  config.cache_bytes = 0;
  config.serve = MakeServeConfig();
  return config;
}

// Checks sampled responses against the reference scorer on the snapshot
// that answered them (4 threads); returns the mean recall@10.
double CheckSamples(const imsr::serve::ServingSnapshot& snapshot,
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
        ReferenceScoreAll(snapshot.Interests(sample.user),
                          snapshot.item_embeddings(),
                          imsr::eval::ScoreRule::kAttentive, &scores);
        ok[i] = CheckExactTopN(sample.items, scores, kTopN, &why[i]);
        recall[i] = RecallAtN(sample.items, scores, kTopN);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < samples.size(); ++i) {
    report->Attempt();
    if (!ok[i]) {
      report->Fail("serve-exact user " + std::to_string(samples[i].user) +
                   ": " + why[i]);
    }
  }
  return Mean(recall);
}

// Traced passes over the socket phase's request sequence.
void TraceLayers(const imsr::serve::SnapshotRegistry& registry,
                 const LoadResult& load,
                 const imsr::serve::ShardSetStats& socket_stats,
                 Report* report) {
  const std::shared_ptr<const imsr::serve::ServingSnapshot> snapshot =
      registry.Current();
  const imsr::serve::ServeConfig serve_config = MakeServeConfig();
  const size_t prefix = std::min<size_t>(load.sequence.size(), 2000);
  const std::vector<UserId> sequence(load.sequence.begin(),
                                     load.sequence.begin() + prefix);
  const double clock_ns = ClockReadNanos();
  const Clock::time_point traced_start = Clock::now();
  int64_t timer_reads = 0;

  // RecommendOne with one caller per shard, as the shard workers run it.
  const size_t one_count = std::min<size_t>(sequence.size(), 400);
  std::vector<std::vector<double>> one_us(kShards);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kShards; ++t) {
      threads.emplace_back([&, t] {
        imsr::serve::RecommendScratch scratch;
        imsr::serve::RecommendResponse response;
        for (size_t i = static_cast<size_t>(t); i < one_count; i += kShards) {
          imsr::serve::RecommendRequest request{sequence[i], kTopN};
          const Clock::time_point start = Clock::now();
          imsr::serve::RecommendOne(*snapshot, request, serve_config, &scratch,
                                    &response);
          one_us[static_cast<size_t>(t)].push_back(MicrosSince(start));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  std::vector<double> all_one;
  for (const auto& v : one_us) all_one.insert(all_one.end(), v.begin(), v.end());
  timer_reads += 2 * static_cast<int64_t>(all_one.size());
  const double one_p50 = Median(all_one);
  report->Set("serve.recommend_one_us", one_p50, "us");

  // Bytes and flops of one exact sweep, from the shapes.
  const double items = static_cast<double>(snapshot->num_items());
  double mean_k = 0.0;
  for (size_t i = 0; i < one_count; ++i) {
    mean_k += double(snapshot->NumInterests(sequence[i])) / double(one_count);
  }
  const double bytes = items * kDim * 4.0 + mean_k * kDim * 4.0 + items * 4.0;
  const double flops = 2.0 * items * kDim * mean_k + 6.0 * items * mean_k;
  report->Set("serve.exact_sweep_mb", bytes / 1e6, "MB");
  report->Set("serve.exact_sweep_mflop", flops / 1e6, "MFLOP");
  report->Set("serve.exact_sweep_gbps", bytes / (one_p50 * 1e-6) / 1e9, "GB/s");
  report->Set("serve.exact_sweep_gflops", flops / (one_p50 * 1e-6) / 1e9,
              "GFLOP/s");

  // RecommendBatch at the socket phase's mean batch.
  const double mean_batch =
      socket_stats.batches > 0 ? double(socket_stats.answered) /
                                     double(socket_stats.batches)
                               : 1.0;
  const int batch = std::max(1, static_cast<int>(std::lround(mean_batch)));
  {
    imsr::serve::RecommendScratch scratch;
    const size_t batch_size = static_cast<size_t>(batch);
    std::vector<imsr::serve::RecommendRequest> requests(batch_size);
    std::vector<imsr::serve::RecommendResponse> responses(batch_size);
    std::vector<double> per_request;
    for (size_t i = 0; i + batch_size <= one_count; i += batch_size) {
      for (int j = 0; j < batch; ++j) {
        requests[size_t(j)] = {sequence[i + size_t(j)], kTopN};
      }
      const Clock::time_point start = Clock::now();
      imsr::serve::RecommendBatch(*snapshot, requests.data(), batch_size,
                                  serve_config, &scratch, responses.data());
      per_request.push_back(MicrosSince(start) / batch);
      timer_reads += 2;
    }
    report->Set("serve.recommend_batch_us_per_req", Median(per_request), "us");
  }

  report->Set("serve.mean_batch", mean_batch, "count");
  report->Set("serve.rejected", double(socket_stats.rejected), "count");
  ReportServingLayers(registry, MakeShardConfig(), load, kConnections, kTopN,
                      one_p50, report, &timer_reads);
  ReportCodec(load.samples, report, &timer_reads);
  const double traced_s = SecondsSince(traced_start);
  report->Set("trace.overhead_pct",
              100.0 * double(timer_reads) * clock_ns * 1e-9 / traced_s, "%");

  report->Set("hw.triad_table_gbps",
              TriadGbps(static_cast<int64_t>(items) * kDim * 4, 20), "GB/s");
  report->Set("hw.triad_dram_gbps", TriadGbps(int64_t{112} << 20, 3), "GB/s");
}

}  // namespace

void RunServeExact(const Options& options, Report* report) {
  const uint64_t seed = 0x5e4e0000ULL + options.seed;
  // Set-up: corpus, first snapshot, server start. Repeated; the last
  // set-up is the one that serves.
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> snapshot_mb;
  std::unique_ptr<Corpus> corpus;
  imsr::serve::SnapshotRegistry registry;
  std::unique_ptr<ServerThread> server;
  const std::string socket_path = options.work_dir + "/perfbench-exact-" +
                                  std::to_string(::getpid()) + ".sock";
  for (int s = 0; s < kSetups; ++s) {
    server.reset();
    corpus.reset();
    const Clock::time_point start = Clock::now();
    corpus = std::make_unique<Corpus>();
    MakeCorpus(seed, corpus.get());
    const Clock::time_point build_start = Clock::now();
    registry.Publish(imsr::serve::BuildSnapshot(*corpus->model, corpus->store,
                                                /*trained_through_span=*/0));
    build_ms.push_back(MillisSince(build_start));
    snapshot_mb.push_back(double(registry.Current()->bytes()) / 1e6);
    imsr::serve::ServerConfig config;
    config.unix_path = socket_path;
    config.shards = MakeShardConfig();
    server = std::make_unique<ServerThread>(&registry, config);
    std::string error;
    if (!server->Start(&error)) {
      report->Attempt();
      report->Fail("server start: " + error);
      return;
    }
    setup_s.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("serve.build_snapshot_ms", Median(build_ms), "ms");
  report->Set("serve.snapshot_mb", Median(snapshot_mb), "MB");

  LoadConfig load_config;
  load_config.socket_path = socket_path;
  load_config.connections = kConnections;
  load_config.seconds = options.seconds;
  load_config.top_n = kTopN;
  load_config.seed = seed;
  load_config.sample_every = kSampleEvery;
  load_config.picker = UniformPicker(uint64_t(kUsers));
  const LoadResult load = RunClosedLoop(load_config);
  const imsr::serve::ShardSetStats socket_stats = server->server().shard_stats();
  server->Stop();

  report->Attempt(static_cast<int64_t>(load.sent));
  for (uint64_t i = 0; i < load.not_ok + load.lost; ++i) {
    report->Fail(load.failures.empty() ? "request failed" : load.failures[0]);
  }
  const double recall = CheckSamples(*registry.Current(), load.samples, report);

  report->Set("answers_per_s", double(load.ok) / load.elapsed_s, "1/s");
  report->Set("latency_p50_ms", WindowedLatencyQuantile(load, 0.5), "ms");
  report->Set("latency_p99_ms", WindowedLatencyQuantile(load, 0.99),
              "ms");
  report->Set("recall_at_10", recall, "fraction");
  report->Detail("qps", double(load.ok) / load.elapsed_s, "req/s");
  report->Detail("requests", double(load.sent), "count");
  if (options.trace) {
    TraceLayers(registry, load, socket_stats, report);
  }

  // New data: move some users' interests, republish, time until the new
  // snapshot is the one readers get.
  std::vector<double> update_ms;
  for (int u = 0; u < kUpdates; ++u) {
    UpdateUsers(seed + 17 + uint64_t(u), kUpdatedUsers, corpus.get());
    const Clock::time_point start = Clock::now();
    std::shared_ptr<imsr::serve::ServingSnapshot> next =
        imsr::serve::BuildSnapshotShared(*corpus->model, corpus->store, 1 + u,
                                         registry.Current());
    if (next == nullptr) {
      next = imsr::serve::BuildSnapshot(*corpus->model, corpus->store, 1 + u);
    }
    const Clock::time_point publish_start = Clock::now();
    registry.Publish(std::move(next));
    if (options.trace && u == 0) {
      report->Set("serve.publish_us", MicrosSince(publish_start), "us");
    }
    update_ms.push_back(MillisSince(start));
  }
  report->Set("data_to_servable_ms", Median(update_ms), "ms");
}

}  // namespace perfbench
