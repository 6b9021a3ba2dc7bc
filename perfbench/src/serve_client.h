// Load generation and socket-free serving passes for the serve workloads.
//
// The same user sequence can be driven through three layers, so their
// costs can be told apart:
//   * the socket: serve::Server on a Unix socket, closed or open loop,
//     latency measured at the client (open loop: from the scheduled
//     send time, so a stall is charged to every request it delays);
//   * serve::ShardSet::Submit with an in-process ResponseSink (routing,
//     queues, workers, batching and cache; no transport);
//   * serve::RecommendBatch / RecommendOne called directly.
#ifndef PERFBENCH_SRC_SERVE_CLIENT_H_
#define PERFBENCH_SRC_SERVE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/interaction.h"
#include "src/common.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {

// Draws the next user id of a request stream.
using UserPicker = std::function<imsr::data::UserId(imsr::util::Rng*)>;

// YCSB-style bounded Zipf over [0, n): rank r with probability ~ 1/r^theta.
UserPicker ZipfPicker(uint64_t n, double theta);
UserPicker UniformPicker(uint64_t n);

// One answered request kept for the correctness check.
struct SampledResponse {
  uint64_t snapshot_version = 0;
  imsr::data::UserId user = -1;
  std::vector<std::pair<imsr::data::ItemId, float>> items;
};

struct LoadResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t not_ok = 0;          // error / overloaded / shutting down
  uint64_t lost = 0;            // never answered before the deadline
  std::vector<double> latency_ms;    // per answered request
  std::vector<double> done_s;        // per answered request, since start
  std::vector<double> send_lag_ms;   // open loop: actual - scheduled send
  double elapsed_s = 0.0;            // first send .. last response
  std::vector<SampledResponse> samples;
  // Users in the order each connection sent them, connections
  // concatenated — the sequence the in-process passes replay.
  std::vector<imsr::data::UserId> sequence;
  std::vector<std::string> failures;  // first few reasons
};

struct LoadConfig {
  std::string socket_path;
  int connections = 4;
  double seconds = 10.0;
  int top_n = 10;
  uint64_t seed = 1;
  int sample_every = 50;  // keep every Nth ok response per connection
  UserPicker picker;
  // Open loop only: total Poisson arrival rate over all connections.
  double rate = 0.0;
};

// Closed loop: each connection sends its next request when the previous
// response arrives, until `seconds` have passed.
LoadResult RunClosedLoop(const LoadConfig& config);

// The median, over the run's whole-second windows, of each window's
// q-quantile of latency. A window is the fewest seconds that hold 1000
// responses at the run's rate, so its p99 has ten samples beyond it. A
// few seconds of host contention move this less than they move the
// whole run's quantile.
double WindowedLatencyQuantile(const LoadResult& load, double q);

// Open loop: Poisson arrivals at `rate` (split evenly over connections),
// scheduled ahead from the seed; every scheduled request is sent and
// awaited.
LoadResult RunOpenLoop(const LoadConfig& config);

// Sets the calling thread's timer slack to 1 ns, so a sleep_until that
// paces an open loop wakes on time rather than up to 50 us late.
void KeepSleepsShort();

// Runs serve::Server::Run on its own thread for the harness's lifetime.
class ServerThread {
 public:
  ServerThread(const imsr::serve::SnapshotRegistry* registry,
               const imsr::serve::ServerConfig& config);
  ~ServerThread();
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  bool Start(std::string* error);
  // Shuts the server down (drains admitted requests) and joins.
  void Stop();
  imsr::serve::Server& server() { return server_; }

 private:
  imsr::serve::Server server_;
  std::thread io_;
};

// Socket-free pass: `submitters` threads each walk their slice of
// `sequence` through ShardSet::Submit, waiting for each response on an
// in-process sink. Round trips are Submit -> sink delivery.
struct ShardPassResult {
  std::vector<double> rtt_us;
  double elapsed_s = 0.0;
  uint64_t answered = 0;
  uint64_t not_ok = 0;
  imsr::serve::ShardSetStats stats;
};
ShardPassResult RunShardSetPass(
    const imsr::serve::SnapshotRegistry* registry,
    const imsr::serve::ShardSetConfig& config,
    const std::vector<imsr::data::UserId>& sequence, int submitters,
    int top_n);

// Reports the layer comparison over one request sequence (traced runs):
//   serve.socket_qps, serve.transport_us   from `socket` (client side);
//   serve.shard_rtt_p50_us, serve.shardset_qps, serve.queue_wait_p50_us
//       from RunShardSetPass; queue wait = RTT p50 - `scoring_us`;
//   serve.inprocess_qps   RecommendBatch, one thread per shard, at the
//       ShardSet pass's mean batch.
// Adds the timer reads it made to *timer_reads.
void ReportServingLayers(const imsr::serve::SnapshotRegistry& registry,
                         const imsr::serve::ShardSetConfig& config,
                         const LoadResult& socket, int submitters, int top_n,
                         double scoring_us, Report* report,
                         int64_t* timer_reads);

// Reports serve.encode_us / serve.decode_us: the median EncodeResponse and
// TryDecodeResponse times over `samples`.
void ReportCodec(const std::vector<SampledResponse>& samples, Report* report,
                 int64_t* timer_reads);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVE_CLIENT_H_
