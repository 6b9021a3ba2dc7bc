// Tests for the serving transport and concurrency core: wire-protocol
// round-trips and decode hardening (truncation, bit flips, bad tags),
// FrameAssembler reassembly from arbitrarily-chunked streams, cache
// stripe routing determinism, ShardSet admission control, shared-queue
// fairness and drain guarantees, the striped response cache across
// workers, publish-while-serving bitwise consistency, and a socket
// end-to-end pass against a live Server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/interest_store.h"
#include "models/msr_model.h"
#include "serve/protocol.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace imsr::serve {
namespace {

// Runs a complete encoded frame through the assembler and returns its
// CRC-verified payload.
std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& frame) {
  FrameAssembler assembler;
  assembler.Append(frame.data(), frame.size());
  std::vector<uint8_t> payload;
  std::string error;
  EXPECT_EQ(assembler.Next(&payload, &error), FrameAssembler::Result::kFrame)
      << error;
  return payload;
}

RequestFrame MakeRequest(uint64_t id, data::UserId user, int top_n) {
  RequestFrame request;
  request.request_id = id;
  request.user = user;
  request.top_n = top_n;
  return request;
}

TEST(ProtocolTest, RequestRoundTrip) {
  const RequestFrame request = MakeRequest(0xfeedfacecafe, 123456, 20);
  const std::vector<uint8_t> payload = PayloadOf(EncodeRequest(request));
  RequestFrame decoded;
  std::string error;
  ASSERT_TRUE(TryDecodeRequest(payload, &decoded, &error)) << error;
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.user, request.user);
  EXPECT_EQ(decoded.top_n, request.top_n);
}

TEST(ProtocolTest, ResponseRoundTripAllStatuses) {
  for (const ResponseStatus status :
       {ResponseStatus::kOk, ResponseStatus::kError,
        ResponseStatus::kOverloaded, ResponseStatus::kShuttingDown}) {
    ResponseFrame response;
    response.request_id = 77;
    response.status = status;
    response.snapshot_version = 42;
    if (status == ResponseStatus::kOk) {
      response.items = {{5, 1.5f}, {9, 0.25f}, {1, -3.75f}};
    } else {
      response.error = "reason: " + std::string(ResponseStatusName(status));
    }
    const std::vector<uint8_t> payload = PayloadOf(EncodeResponse(response));
    ResponseFrame decoded;
    std::string error;
    ASSERT_TRUE(TryDecodeResponse(payload, &decoded, &error)) << error;
    EXPECT_EQ(decoded.request_id, response.request_id);
    EXPECT_EQ(decoded.status, response.status);
    EXPECT_EQ(decoded.snapshot_version, response.snapshot_version);
    EXPECT_EQ(decoded.items, response.items);
    EXPECT_EQ(decoded.error, response.error);
  }
}

// Scores round-trip bitwise, including non-finite-adjacent values.
TEST(ProtocolTest, ResponseScoresBitwiseExact) {
  ResponseFrame response;
  response.request_id = 1;
  response.status = ResponseStatus::kOk;
  response.items = {{0, 1.0000001f},
                    {1, -0.0f},
                    {2, 3.4028235e38f},
                    {3, 1.1754944e-38f}};
  const std::vector<uint8_t> payload = PayloadOf(EncodeResponse(response));
  ResponseFrame decoded;
  std::string error;
  ASSERT_TRUE(TryDecodeResponse(payload, &decoded, &error)) << error;
  ASSERT_EQ(decoded.items.size(), response.items.size());
  for (size_t i = 0; i < response.items.size(); ++i) {
    EXPECT_EQ(decoded.items[i].first, response.items[i].first);
    // Bitwise, not value, equality (distinguishes -0.0 from 0.0).
    uint32_t want = 0;
    uint32_t got = 0;
    std::memcpy(&want, &response.items[i].second, sizeof(want));
    std::memcpy(&got, &decoded.items[i].second, sizeof(got));
    EXPECT_EQ(got, want);
  }
}

// Frames survive arbitrary chunking: two coalesced frames delivered one
// byte at a time come out intact and in order.
TEST(ProtocolTest, AssemblerReassemblesBytewiseStream) {
  std::vector<uint8_t> stream = EncodeRequest(MakeRequest(1, 10, 5));
  const std::vector<uint8_t> second = EncodeRequest(MakeRequest(2, 20, 7));
  stream.insert(stream.end(), second.begin(), second.end());

  FrameAssembler assembler;
  std::vector<RequestFrame> decoded;
  std::vector<uint8_t> payload;
  std::string error;
  for (const uint8_t byte : stream) {
    assembler.Append(&byte, 1);
    for (;;) {
      const FrameAssembler::Result result = assembler.Next(&payload, &error);
      if (result == FrameAssembler::Result::kNeedMore) break;
      ASSERT_EQ(result, FrameAssembler::Result::kFrame) << error;
      RequestFrame request;
      ASSERT_TRUE(TryDecodeRequest(payload, &request, &error)) << error;
      decoded.push_back(request);
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].request_id, 1u);
  EXPECT_EQ(decoded[0].user, 10);
  EXPECT_EQ(decoded[1].request_id, 2u);
  EXPECT_EQ(decoded[1].top_n, 7);
  EXPECT_EQ(assembler.buffered(), 0u);
}

// A truncated stream never produces a frame — it just keeps asking for
// more bytes, at every prefix length.
TEST(ProtocolTest, TruncationNeverCompletesAFrame) {
  const std::vector<uint8_t> frame =
      EncodeRequest(MakeRequest(9, 1234, 10));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameAssembler assembler;
    assembler.Append(frame.data(), cut);
    std::vector<uint8_t> payload;
    std::string error;
    EXPECT_EQ(assembler.Next(&payload, &error),
              FrameAssembler::Result::kNeedMore)
        << "prefix of " << cut << " bytes completed a frame";
  }
}

// CRC-32 detects every single-bit error in the data it covers: flipping
// any payload bit (or any CRC-field bit) must surface as a framing error,
// never as a silently-different frame.
TEST(ProtocolTest, EveryPayloadBitFlipIsDetected) {
  const std::vector<uint8_t> frame =
      EncodeRequest(MakeRequest(0x123456789a, 987654, 50));
  // Bytes [4, 8) are the CRC field; [8, size) the payload.
  for (size_t byte = 4; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupted = frame;
      corrupted[byte] ^= static_cast<uint8_t>(1u << bit);
      FrameAssembler assembler;
      assembler.Append(corrupted.data(), corrupted.size());
      std::vector<uint8_t> payload;
      std::string error;
      EXPECT_EQ(assembler.Next(&payload, &error),
                FrameAssembler::Result::kError)
          << "bit " << bit << " of byte " << byte << " went undetected";
    }
  }
}

TEST(ProtocolTest, OversizedLengthIsAFramingError) {
  const uint32_t length = kMaxFramePayload + 1;
  uint8_t header[kFrameHeaderBytes] = {};
  std::memcpy(header, &length, sizeof(length));
  FrameAssembler assembler;
  assembler.Append(header, sizeof(header));
  std::vector<uint8_t> payload;
  std::string error;
  EXPECT_EQ(assembler.Next(&payload, &error),
            FrameAssembler::Result::kError);
  EXPECT_NE(error.find("exceeds limit"), std::string::npos) << error;
}

TEST(ProtocolTest, DecodeRejectsMalformedPayloads) {
  const std::vector<uint8_t> request_payload =
      PayloadOf(EncodeRequest(MakeRequest(3, 42, 5)));
  RequestFrame request;
  ResponseFrame response;
  std::string error;

  // A request payload is not a response (and vice versa): tag mismatch.
  EXPECT_FALSE(TryDecodeResponse(request_payload, &response, &error));
  ResponseFrame ok_response;
  ok_response.status = ResponseStatus::kOk;
  const std::vector<uint8_t> response_payload =
      PayloadOf(EncodeResponse(ok_response));
  EXPECT_FALSE(TryDecodeRequest(response_payload, &request, &error));

  // Truncated payload bytes (CRC already verified upstream — decode must
  // still fail cleanly, not read out of bounds).
  for (size_t cut = 0; cut < request_payload.size(); ++cut) {
    const std::vector<uint8_t> truncated(request_payload.begin(),
                                         request_payload.begin() + cut);
    EXPECT_FALSE(TryDecodeRequest(truncated, &request, &error))
        << "decoded from " << cut << " of " << request_payload.size()
        << " bytes";
  }

  // Trailing garbage after a well-formed body.
  std::vector<uint8_t> padded = request_payload;
  padded.push_back(0);
  EXPECT_FALSE(TryDecodeRequest(padded, &request, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  // Empty payload.
  EXPECT_FALSE(TryDecodeRequest({}, &request, &error));
}

TEST(ShardRoutingTest, DeterministicInRangeAndBalanced) {
  for (const size_t shards : {1u, 2u, 4u, 7u}) {
    std::vector<int> counts(shards, 0);
    for (data::UserId user = 0; user < 10000; ++user) {
      const size_t shard = ShardOf(user, shards);
      ASSERT_LT(shard, shards);
      // Routing is a pure function of (user, num_shards).
      ASSERT_EQ(shard, ShardOf(user, shards));
      counts[shard]++;
    }
    // splitmix64 scrambles sequential ids: no shard is starved or hot
    // beyond 2x of fair share.
    for (const int count : counts) {
      EXPECT_GT(count, 10000 / static_cast<int>(shards) / 2);
      EXPECT_LT(count, 2 * 10000 / static_cast<int>(shards));
    }
  }
}

// --- ShardSet ---------------------------------------------------------------

// Thread-safe sink recording every response it receives.
class CollectSink : public ResponseSink {
 public:
  void SendResponse(const ResponseFrame& response) override {
    std::lock_guard<std::mutex> lock(mutex_);
    responses_.push_back(response);
    threads_.push_back(std::this_thread::get_id());
  }
  std::vector<ResponseFrame> responses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return responses_;
  }
  // The thread that delivered each response, in delivery order.
  std::vector<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }
  // Waits until at least `n` responses arrived; false on timeout.
  bool AwaitCount(size_t n, std::chrono::milliseconds timeout =
                                std::chrono::seconds(10)) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (responses().size() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<ResponseFrame> responses_;
  std::vector<std::thread::id> threads_;
};

// A sink whose first SendResponse blocks until Release() — wedges the
// worker answering it, so a test can take workers out one at a time.
class BlockingSink : public CollectSink {
 public:
  void SendResponse(const ResponseFrame& response) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      entered_ = true;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    CollectSink::SendResponse(response);
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

// A small serving world: `num_users` users with varying interest counts
// (k_base + user % 3) over `num_items` items. k_base >= 8 puts every
// user on the wide-output kernel dispatch; with_index attaches an IVF
// index so the kIVF retrieval path has something to probe.
std::shared_ptr<ServingSnapshot> MakeSnapshot(int num_items, int num_users,
                                              int dim, uint64_t seed,
                                              int span, int k_base = 1,
                                              bool with_index = false) {
  models::ModelConfig model_config;
  model_config.embedding_dim = dim;
  models::MsrModel model(model_config, num_items, seed);
  core::InterestStore store;
  util::Rng rng(seed + 1);
  for (data::UserId user = 0; user < num_users; ++user) {
    store.Initialize(user, k_base + static_cast<int>(user % 3), dim, 0,
                     rng);
  }
  if (with_index) {
    return BuildSnapshot(model, store, span, IvfBuildConfig{});
  }
  return BuildSnapshot(model, store, span);
}

TEST(ShardSetTest, AnswersEveryAdmittedRequest) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(/*num_items=*/50, /*num_users=*/40,
                                /*dim=*/8, /*seed=*/3, /*span=*/1));
  ShardSetConfig config;
  config.num_shards = 4;
  // Cap >= kRequests: admission can never fire even if a busy machine
  // keeps every worker descheduled while the main thread enqueues.
  config.queue_cap = 256;
  ShardSet shards(&registry, config);
  shards.Start();

  auto sink = std::make_shared<CollectSink>();
  const int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(shards.Submit(
        MakeRequest(static_cast<uint64_t>(i), i % 40, 5), sink));
  }
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  std::vector<bool> seen(kRequests, false);
  for (const ResponseFrame& response : responses) {
    ASSERT_LT(response.request_id, static_cast<uint64_t>(kRequests));
    EXPECT_FALSE(seen[response.request_id]) << "duplicate response";
    seen[response.request_id] = true;
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.items.size(), 5u);
    EXPECT_EQ(response.snapshot_version, 1u);
  }
  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.answered, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ShardSetTest, UnknownUserGetsErrorResponseNotDrop) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(50, 10, 8, 4, 1));
  ShardSetConfig config;
  config.num_shards = 2;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();
  EXPECT_TRUE(shards.Submit(MakeRequest(7, /*user=*/9999, 5), sink));
  shards.Drain();
  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].request_id, 7u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kError);
  EXPECT_NE(responses[0].error.find("9999"), std::string::npos);
}

TEST(ShardSetTest, NoSnapshotYetIsAnErrorResponse) {
  SnapshotRegistry registry;  // nothing published
  ShardSetConfig config;
  config.num_shards = 1;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();
  EXPECT_TRUE(shards.Submit(MakeRequest(1, 0, 5), sink));
  shards.Drain();
  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kError);
  EXPECT_NE(responses[0].error.find("snapshot"), std::string::npos);
}

// Admission control: with every worker wedged and the shared queue at
// its bound (queue_cap x workers), the next Submit is rejected
// synchronously with kOverloaded — the queue never grows past its cap
// and nothing is silently dropped.
TEST(ShardSetTest, FullQueueRejectsWithOverload) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(50, 10, 8, 5, 1));
  ShardSetConfig config;
  config.num_shards = 2;
  config.queue_cap = 2;
  ShardSet shards(&registry, config);
  shards.Start();

  // Wedge both workers, one at a time, on requests 0 and 1...
  std::vector<std::shared_ptr<BlockingSink>> wedges;
  for (int w = 0; w < config.num_shards; ++w) {
    wedges.push_back(std::make_shared<BlockingSink>());
    ASSERT_TRUE(shards.Submit(MakeRequest(static_cast<uint64_t>(w), w, 3),
                              wedges.back()));
    wedges.back()->AwaitEntered();
  }
  // ...fill the queue to its total bound of 2 x 2...
  auto sink = std::make_shared<CollectSink>();
  for (uint64_t id = 2; id < 6; ++id) {
    ASSERT_TRUE(shards.Submit(MakeRequest(id, static_cast<int>(id), 3), sink));
  }
  // ...and the next submit must bounce, synchronously, on this thread.
  EXPECT_FALSE(shards.Submit(MakeRequest(6, 6, 3), sink));
  std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].request_id, 6u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kOverloaded);

  for (const auto& wedge : wedges) wedge->Release();
  shards.Drain();
  // Everything admitted before the bounce still got answered: no silent
  // drops.
  for (const auto& wedge : wedges) {
    EXPECT_EQ(wedge->responses().size(), 1u);
  }
  responses = sink->responses();
  ASSERT_EQ(responses.size(), 5u);
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status, ResponseStatus::kOk);
  }
  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.answered, stats.submitted);
}

// Any idle worker answers any user. Under the old per-shard queues a
// request waited behind a wedged worker whenever ShardOf(user) named
// that worker's shard, while the other shard sat idle; with one shared
// queue the idle worker takes it at once.
TEST(ShardSetTest, IdleWorkerAnswersWhileAnotherIsWedged) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(50, 40, 8, 7, 1));
  ShardSetConfig config;
  config.num_shards = 2;
  ShardSet shards(&registry, config);
  shards.Start();

  const data::UserId wedged_user = 0;
  data::UserId same_shard_user = 1;
  while (ShardOf(same_shard_user, 2) != ShardOf(wedged_user, 2)) {
    ++same_shard_user;
  }
  ASSERT_LT(same_shard_user, 40);

  auto blocking = std::make_shared<BlockingSink>();
  ASSERT_TRUE(shards.Submit(MakeRequest(0, wedged_user, 5), blocking));
  blocking->AwaitEntered();
  auto sink = std::make_shared<CollectSink>();
  ASSERT_TRUE(shards.Submit(MakeRequest(1, same_shard_user, 5), sink));
  // Answered while the wedge is still held. Release before asserting so
  // a failure cannot leave Drain() waiting on the wedged worker.
  const bool answered_during_wedge = sink->AwaitCount(1);
  blocking->Release();
  shards.Drain();
  EXPECT_TRUE(answered_during_wedge)
      << "request for user " << same_shard_user
      << " waited behind the wedged worker";
  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kOk);
  EXPECT_EQ(shards.stats().answered, 2u);
}

// The heart of the tentpole's consistency claim: while snapshots publish
// mid-flight, every response is bitwise-identical to RecommendOne run
// directly against *some* published snapshot — the one named by the
// response's snapshot_version. No response mixes two versions.
TEST(ShardSetTest, PublishWhileServingIsBitwiseConsistent) {
  const int kUsers = 30;
  const int kTopN = 8;
  const std::shared_ptr<ServingSnapshot> v1 =
      MakeSnapshot(/*num_items=*/80, kUsers, /*dim=*/8, /*seed=*/11,
                   /*span=*/1);
  const std::shared_ptr<ServingSnapshot> v2 =
      MakeSnapshot(/*num_items=*/80, kUsers, /*dim=*/8, /*seed=*/29,
                   /*span=*/2);
  SnapshotRegistry registry;
  registry.Publish(v1);

  // Expected answers per user, per version, computed single-threaded.
  const ServeConfig serve;
  std::map<uint64_t, std::vector<std::vector<std::pair<data::ItemId, float>>>>
      expected;
  RecommendScratch scratch;
  for (const auto& [version, snapshot] :
       std::vector<std::pair<uint64_t, std::shared_ptr<ServingSnapshot>>>{
           {1, v1}, {2, v2}}) {
    auto& per_user = expected[version];
    per_user.resize(kUsers);
    for (data::UserId user = 0; user < kUsers; ++user) {
      RecommendRequest request;
      request.user = user;
      request.top_n = kTopN;
      RecommendResponse response;
      RecommendOne(*snapshot, request, serve, &scratch, &response);
      ASSERT_TRUE(response.ok) << response.error;
      per_user[static_cast<size_t>(user)] = response.items;
    }
  }

  ShardSetConfig config;
  config.num_shards = 4;
  config.queue_cap = 1024;
  config.serve = serve;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();

  // Phase 1 entirely against v1, then publish v2 into the *live* shard
  // set (workers stay up throughout), then phase 2 entirely against v2.
  // The phase boundary makes the expected version per request
  // deterministic; mid-flight racing is exercised by the server smoke
  // and the loadgen CI job.
  const int kPerPhase = 300;
  for (int i = 0; i < kPerPhase; ++i) {
    ASSERT_TRUE(shards.Submit(
        MakeRequest(static_cast<uint64_t>(i), i % kUsers, kTopN), sink));
  }
  while (shards.stats().answered <
         static_cast<uint64_t>(kPerPhase)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  registry.Publish(v2);
  for (int i = kPerPhase; i < 2 * kPerPhase; ++i) {
    ASSERT_TRUE(shards.Submit(
        MakeRequest(static_cast<uint64_t>(i), i % kUsers, kTopN), sink));
  }
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), static_cast<size_t>(2 * kPerPhase));
  for (const ResponseFrame& response : responses) {
    ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
    const uint64_t want_version =
        response.request_id < static_cast<uint64_t>(kPerPhase) ? 1 : 2;
    ASSERT_EQ(response.snapshot_version, want_version)
        << "request " << response.request_id;
    const size_t user = response.request_id % kUsers;
    // EXPECT_EQ on vector<pair<ItemId, float>>: item ids and float scores
    // must match bitwise — no tolerance.
    EXPECT_EQ(response.items, expected[want_version][user])
        << "request " << response.request_id << " answered from v"
        << want_version << " diverged";
  }
}

// RecommendBatch is the worker's fused scoring entry point; its contract
// is bitwise identity with per-request RecommendOne. Exercised across
// the kernel-dispatch regimes (narrow K, wide K) and the IVF shortlist
// path, with duplicate (user, top_n) pairs, defaulted top_n, and an
// unknown user mixed into the batch, at batch sizes 1 and N.
TEST(RecommendBatchTest, BitwiseMatchesRecommendOne) {
  struct Case {
    const char* name;
    int k_base;
    bool with_index;
    RetrievalMode retrieval;
  };
  const std::vector<Case> cases = {
      {"exact_narrow", 1, false, RetrievalMode::kExact},
      {"exact_wide", 9, false, RetrievalMode::kExact},
      {"ivf", 1, true, RetrievalMode::kIVF},
  };
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    const std::shared_ptr<ServingSnapshot> snapshot = MakeSnapshot(
        /*num_items=*/120, /*num_users=*/12, /*dim=*/8, /*seed=*/41,
        /*span=*/1, test_case.k_base, test_case.with_index);
    ServeConfig config;
    config.default_top_n = 7;
    config.retrieval = test_case.retrieval;

    std::vector<RecommendRequest> requests;
    auto add = [&requests](data::UserId user, int top_n) {
      RecommendRequest request;
      request.user = user;
      request.top_n = top_n;
      requests.push_back(request);
    };
    add(0, 5);
    add(3, 9);
    add(0, 5);     // duplicate of request 0: copied, not re-scored
    add(7, 0);     // defaulted top_n
    add(9999, 5);  // unknown user: per-request error, batch survives
    add(7, 7);     // duplicate of request 3 after default resolution
    add(11, 120);  // top_n == corpus size
    add(3, 4);     // same user, different top_n: distinct answer

    RecommendScratch single_scratch;
    std::vector<RecommendResponse> expected(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      RecommendOne(*snapshot, requests[i], config, &single_scratch,
                   &expected[i]);
    }

    RecommendScratch batch_scratch;
    std::vector<RecommendResponse> got(requests.size());
    RecommendBatch(*snapshot, requests.data(), requests.size(), config,
                   &batch_scratch, got.data());
    for (size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      EXPECT_EQ(got[i].ok, expected[i].ok);
      EXPECT_EQ(got[i].error, expected[i].error);
      // EXPECT_EQ on vector<pair<ItemId, float>> is exact — identical
      // item order and float bits, no tolerance.
      EXPECT_EQ(got[i].items, expected[i].items);
    }

    // A batch of one is the degenerate case the batch_max=1 server
    // configuration runs permanently.
    for (size_t i = 0; i < requests.size(); ++i) {
      RecommendResponse one;
      RecommendBatch(*snapshot, &requests[i], 1, config, &batch_scratch,
                     &one);
      EXPECT_EQ(one.ok, expected[i].ok);
      EXPECT_EQ(one.error, expected[i].error);
      EXPECT_EQ(one.items, expected[i].items);
    }
  }
}

// Micro-batched draining must be invisible in the bytes on the wire:
// every response frame a batching worker produces is byte-identical to
// the frame a batch_max=1 worker (the PR 9 loop) would have produced.
// A wedged sink forces a deep queue so real multi-request batches form.
TEST(ShardSetTest, BatchedResponsesBitwiseEqualSingleRequestFrames) {
  const int kUsers = 10;
  const std::shared_ptr<ServingSnapshot> snapshot = MakeSnapshot(
      /*num_items=*/90, kUsers, /*dim=*/8, /*seed=*/23, /*span=*/1,
      /*k_base=*/9);
  // Oracle frames from direct RecommendOne calls — what the unbatched
  // worker would have sent.
  const ServeConfig serve;
  RecommendScratch scratch;
  auto oracle_frame = [&](const RequestFrame& request) {
    RecommendRequest single;
    single.user = request.user;
    single.top_n = request.top_n;
    RecommendResponse response;
    RecommendOne(*snapshot, single, serve, &scratch, &response);
    ResponseFrame frame;
    frame.request_id = request.request_id;
    frame.snapshot_version = 1;
    if (response.ok) {
      frame.status = ResponseStatus::kOk;
      frame.items = response.items;
    } else {
      frame.status = ResponseStatus::kError;
      frame.error = response.error;
    }
    return frame;
  };

  std::vector<RequestFrame> requests;
  for (int i = 0; i < 24; ++i) {
    // Duplicates (user repeats every kUsers), a defaulted top_n, and an
    // unknown user all ride inside the forced batches.
    const int top_n = i % 6 == 5 ? 0 : 3 + i % 4;
    const data::UserId user = i % 8 == 7 ? 9999 : i % kUsers;
    requests.push_back(MakeRequest(static_cast<uint64_t>(i), user, top_n));
  }

  for (const int num_shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    SnapshotRegistry registry;
    registry.Publish(snapshot);
    ShardSetConfig config;
    config.num_shards = num_shards;
    config.queue_cap = 64;
    config.batch_max = 6;
    config.serve = serve;
    ShardSet shards(&registry, config);
    shards.Start();

    // Wedge one worker on a throwaway request so the queue behind it
    // deepens; its release drains the backlog in multi-request batches.
    auto blocking = std::make_shared<BlockingSink>();
    ASSERT_TRUE(shards.Submit(MakeRequest(1000, 0, 3), blocking));
    blocking->AwaitEntered();
    auto sink = std::make_shared<CollectSink>();
    for (const RequestFrame& request : requests) {
      ASSERT_TRUE(shards.Submit(request, sink));
    }
    blocking->Release();
    shards.Drain();

    const std::vector<ResponseFrame> responses = sink->responses();
    ASSERT_EQ(responses.size(), requests.size());
    for (const ResponseFrame& response : responses) {
      ASSERT_LT(response.request_id, requests.size());
      const ResponseFrame want =
          oracle_frame(requests[response.request_id]);
      // memcmp-level identity: the full encoded frame, not just fields.
      EXPECT_EQ(EncodeResponse(response), EncodeResponse(want))
          << "request " << response.request_id;
    }
    if (num_shards == 1) {
      // 24 queued requests behind the wedge with batch_max=6 cannot
      // legally drain one at a time.
      const ShardSetStats stats = shards.stats();
      EXPECT_LT(stats.batches, stats.answered);
    }
  }
}

// A cache hit must be invisible to the client: byte-identical frame to
// the cold scored response, and a defaulted top_n shares the entry of
// the equivalent explicit request (resolved top_n is in the key).
TEST(ShardSetTest, CacheHitIsBitwiseIdenticalToColdScore) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(80, 12, 8, 31, 1));
  ShardSetConfig config;
  config.num_shards = 1;
  config.batch_max = 1;
  config.cache_bytes = 1 << 20;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();

  // Same request_id on purpose: frames must be memcmp-equal end to end.
  ASSERT_TRUE(shards.Submit(MakeRequest(1, 4, 10), sink));
  while (shards.stats().answered < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(shards.Submit(MakeRequest(1, 4, 10), sink));
  while (shards.stats().answered < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // top_n=0 resolves to default_top_n=10: hits the same entry.
  ASSERT_TRUE(shards.Submit(MakeRequest(2, 4, 0), sink));
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kOk);
  EXPECT_EQ(EncodeResponse(responses[1]), EncodeResponse(responses[0]));
  EXPECT_EQ(responses[2].items, responses[0].items);
  EXPECT_EQ(responses[2].snapshot_version, responses[0].snapshot_version);

  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_GT(stats.cache_bytes, 0u);
}

// The cache is striped by user, not owned by a worker: a user's repeats
// are answered by different workers and every repeat after the first is
// a hit whose frame is byte-identical to the cold-scored one. Workers
// are steered by wedging all but one, so each repeat has exactly one
// free worker to land on.
TEST(ShardSetTest, CacheHitsAcrossWorkersShareOneStripe) {
  const int kWorkers = 4;
  const int kTopN = 6;
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(80, 16, 8, 41, 1));
  ShardSetConfig config;
  config.num_shards = kWorkers;
  config.cache_bytes = 1 << 20;
  ShardSet shards(&registry, config);
  shards.Start();

  // Wedge requests use users 1, 2, ...; each wedges whichever worker is
  // free when it is submitted.
  std::vector<std::shared_ptr<BlockingSink>> wedges;
  const auto wedge_one = [&] {
    wedges.push_back(std::make_shared<BlockingSink>());
    const int user = static_cast<int>(wedges.size());
    ASSERT_TRUE(shards.Submit(MakeRequest(1000 + wedges.size(), user, kTopN),
                              wedges.back()));
    wedges.back()->AwaitEntered();
  };
  auto sink = std::make_shared<CollectSink>();
  const data::UserId kUser = 0;
  // Same request_id on purpose: frames must be memcmp-equal end to end.
  const auto ask = [&] {
    const size_t before = sink->responses().size();
    ASSERT_TRUE(shards.Submit(MakeRequest(7, kUser, kTopN), sink));
    ASSERT_TRUE(sink->AwaitCount(before + 1));
  };

  // Wedge workers A, B, C; the cold request lands on D.
  for (int w = 0; w < kWorkers - 1; ++w) wedge_one();
  ask();
  // Then, each round: wedge the worker that just answered and free the
  // next wedged one, so the repeat lands on a worker that has not
  // answered kUser yet.
  for (int round = 0; round < kWorkers - 1; ++round) {
    wedge_one();
    wedges[static_cast<size_t>(round)]->Release();
    ask();
  }
  for (const auto& wedge : wedges) wedge->Release();
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  const std::vector<std::thread::id> threads = sink->threads();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kWorkers));
  ASSERT_EQ(responses[0].status, ResponseStatus::kOk);
  const std::vector<uint8_t> cold = EncodeResponse(responses[0]);
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ(EncodeResponse(responses[i]), cold) << "repeat " << i;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(threads[i], threads[j])
          << "repeats " << j << " and " << i << " shared a worker";
    }
  }

  // Lookups: one per wedge request (distinct users, all cold) and one
  // per kUser request (one cold, the rest hits).
  const ShardSetStats stats = shards.stats();
  const uint64_t lookups = wedges.size() + responses.size();
  EXPECT_EQ(stats.cache_hits, responses.size() - 1);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, lookups);
  EXPECT_EQ(stats.cache_evictions, 0u);
  // Resident bytes are the sum over stripes of every cached entry: one
  // per distinct user, spread over more than one stripe.
  uint64_t expected_bytes = ResponseCacheEntryBytes(responses[0].items);
  std::vector<bool> stripe_used(kWorkers, false);
  stripe_used[ShardOf(kUser, kWorkers)] = true;
  for (size_t w = 0; w < wedges.size(); ++w) {
    const std::vector<ResponseFrame> wedge_responses = wedges[w]->responses();
    ASSERT_EQ(wedge_responses.size(), 1u);
    ASSERT_EQ(wedge_responses[0].status, ResponseStatus::kOk);
    expected_bytes += ResponseCacheEntryBytes(wedge_responses[0].items);
    stripe_used[ShardOf(static_cast<data::UserId>(w + 1), kWorkers)] = true;
  }
  EXPECT_GT(std::count(stripe_used.begin(), stripe_used.end(), true), 1);
  EXPECT_EQ(stats.cache_bytes, expected_bytes);
}

// Publishing a snapshot with different scoring content must invalidate
// every cached answer: the data epoch advances and is in the key, so the
// next identical request re-scores against the new snapshot and can
// never be served a stale entry.
TEST(ShardSetTest, PublishInvalidatesCacheAndForcesRescore) {
  const std::shared_ptr<ServingSnapshot> v1 =
      MakeSnapshot(80, 12, 8, 31, /*span=*/1);
  const std::shared_ptr<ServingSnapshot> v2 =
      MakeSnapshot(80, 12, 8, 57, /*span=*/2);
  const ServeConfig serve;
  RecommendScratch scratch;
  RecommendRequest probe;
  probe.user = 5;
  probe.top_n = 8;
  RecommendResponse want_v1;
  RecommendOne(*v1, probe, serve, &scratch, &want_v1);
  RecommendResponse want_v2;
  RecommendOne(*v2, probe, serve, &scratch, &want_v2);
  ASSERT_TRUE(want_v1.ok);
  ASSERT_TRUE(want_v2.ok);
  // Different seeds: the two snapshots really do rank differently, so a
  // stale cache hit would be visible below.
  ASSERT_NE(want_v1.items, want_v2.items);

  SnapshotRegistry registry;
  registry.Publish(v1);
  ShardSetConfig config;
  config.num_shards = 1;
  config.batch_max = 1;
  config.cache_bytes = 1 << 20;
  config.serve = serve;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();

  ASSERT_TRUE(shards.Submit(MakeRequest(0, probe.user, probe.top_n), sink));
  while (shards.stats().answered < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(shards.Submit(MakeRequest(1, probe.user, probe.top_n), sink));
  while (shards.stats().answered < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  registry.Publish(v2);
  ASSERT_TRUE(shards.Submit(MakeRequest(2, probe.user, probe.top_n), sink));
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].snapshot_version, 1u);
  EXPECT_EQ(responses[0].items, want_v1.items);
  EXPECT_EQ(responses[1].snapshot_version, 1u);
  EXPECT_EQ(responses[1].items, want_v1.items);
  EXPECT_EQ(responses[2].snapshot_version, 2u);
  EXPECT_EQ(responses[2].items, want_v2.items);

  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.cache_hits, 1u);   // request 1, against v1
  EXPECT_EQ(stats.cache_misses, 2u);  // requests 0 and 2
}

// The flip side: a publish whose scoring content is bitwise identical to
// the live snapshot's (the timed-republish deployment — a fresh export
// of an unchanged model) carries the data epoch forward, so cached
// answers stay valid across it. The next identical request is a HIT,
// served under the NEW snapshot's version, with items equal to the cold
// score — sound because equal epoch certifies the two snapshots score
// every request bitwise identically.
TEST(ShardSetTest, RepublishUnchangedContentKeepsCacheWarm) {
  const std::shared_ptr<ServingSnapshot> v1 =
      MakeSnapshot(80, 12, 8, 31, /*span=*/1);
  const std::shared_ptr<ServingSnapshot> v2 =
      MakeSnapshot(80, 12, 8, 31, /*span=*/2);
  SnapshotRegistry registry;
  registry.Publish(v1);
  ShardSetConfig config;
  config.num_shards = 1;
  config.batch_max = 1;
  config.cache_bytes = 1 << 20;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();

  ASSERT_TRUE(shards.Submit(MakeRequest(0, 5, 8), sink));
  while (shards.stats().answered < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  registry.Publish(v2);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v2->data_epoch(), v1->data_epoch());
  ASSERT_TRUE(shards.Submit(MakeRequest(1, 5, 8), sink));
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kOk);
  EXPECT_EQ(responses[0].snapshot_version, 1u);
  // The warm hit answers under the new version with the same items.
  EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
  EXPECT_EQ(responses[1].snapshot_version, 2u);
  EXPECT_EQ(responses[1].items, responses[0].items);

  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

// A tiny byte budget keeps the cache resident set bounded: distinct
// users churn through, evictions fire, and resident bytes never exceed
// the configured budget.
TEST(ShardSetTest, CacheEvictsUnderTinyByteBudget) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(80, 64, 8, 13, 1));
  ShardSetConfig config;
  config.num_shards = 1;
  config.batch_max = 1;
  config.cache_bytes = 400;  // room for ~2 entries
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();
  const int kRequests = 50;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(shards.Submit(
        MakeRequest(static_cast<uint64_t>(i), i % 64, 5), sink));
  }
  shards.Drain();

  ASSERT_EQ(sink->responses().size(), static_cast<size_t>(kRequests));
  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.cache_misses, static_cast<uint64_t>(kRequests));
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_bytes, config.cache_bytes);
  EXPECT_GT(stats.cache_bytes, 0u);
}

// --- Server end-to-end ------------------------------------------------------

// Minimal blocking client for the end-to-end test.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool SendBytes(const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Blocks until one full response frame arrives.
  bool ReadResponse(ResponseFrame* out, std::string* error) {
    std::vector<uint8_t> payload;
    for (;;) {
      const FrameAssembler::Result result = assembler_.Next(&payload, error);
      if (result == FrameAssembler::Result::kError) return false;
      if (result == FrameAssembler::Result::kFrame) {
        return TryDecodeResponse(payload, out, error);
      }
      uint8_t buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        *error = "connection closed";
        return false;
      }
      assembler_.Append(buffer, static_cast<size_t>(n));
    }
  }

  // True when the server closed this connection (EOF).
  bool AwaitClose() {
    uint8_t byte;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameAssembler assembler_;
};

TEST(ServerTest, SocketEndToEnd) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(60, 20, 8, 17, 1));
  ServerConfig config;
  config.tcp_port = 0;  // ephemeral
  config.shards.num_shards = 2;
  Server server(&registry, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);
  std::thread io([&server] { server.Run(); });

  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    // Two good requests and one for an unknown user, coalesced into a
    // single write to exercise stream reassembly server-side.
    std::vector<uint8_t> bytes = EncodeRequest(MakeRequest(1, 3, 4));
    const std::vector<uint8_t> second = EncodeRequest(MakeRequest(2, 9999, 4));
    const std::vector<uint8_t> third = EncodeRequest(MakeRequest(3, 7, 6));
    bytes.insert(bytes.end(), second.begin(), second.end());
    bytes.insert(bytes.end(), third.begin(), third.end());
    ASSERT_TRUE(client.SendBytes(bytes));

    std::map<uint64_t, ResponseFrame> responses;
    for (int i = 0; i < 3; ++i) {
      ResponseFrame response;
      ASSERT_TRUE(client.ReadResponse(&response, &error)) << error;
      responses[response.request_id] = response;
    }
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
    EXPECT_EQ(responses[1].items.size(), 4u);
    EXPECT_EQ(responses[2].status, ResponseStatus::kError);
    EXPECT_EQ(responses[3].status, ResponseStatus::kOk);
    EXPECT_EQ(responses[3].items.size(), 6u);
  }

  {
    // A connection that sends garbage is dropped (framing error), while
    // the server keeps serving everyone else.
    TestClient garbage(server.port());
    ASSERT_TRUE(garbage.connected());
    std::vector<uint8_t> junk(64, 0xff);
    ASSERT_TRUE(garbage.SendBytes(junk));
    EXPECT_TRUE(garbage.AwaitClose());

    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendBytes(EncodeRequest(MakeRequest(4, 5, 3))));
    ResponseFrame response;
    ASSERT_TRUE(client.ReadResponse(&response, &error)) << error;
    EXPECT_EQ(response.status, ResponseStatus::kOk);
  }

  server.Shutdown();
  io.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.frames, 4u);
  EXPECT_GE(stats.protocol_errors, 1u);
  const ShardSetStats shard_stats = server.shard_stats();
  EXPECT_EQ(shard_stats.answered, 4u);
  EXPECT_EQ(shard_stats.rejected, 0u);
}

}  // namespace
}  // namespace imsr::serve
