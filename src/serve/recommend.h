// Batch top-N serving over an immutable ServingSnapshot (Algorithm 2's
// inference procedure, lifted out of the evaluator so it can run against
// a published snapshot while training mutates the live model).
//
// Requests in a batch are independent; the batch fans out over the
// process-wide thread pool with one RankScratch per worker chunk, so the
// corpus-sized logits/score buffers are allocated once per worker, not
// per request. Per-request failures (unknown user, bad top_n) come back
// as error responses — one bad request never fails the batch.
#ifndef IMSR_SERVE_RECOMMEND_H_
#define IMSR_SERVE_RECOMMEND_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/interaction.h"
#include "eval/ranker.h"
#include "serve/snapshot.h"
#include "util/lru_cache.h"

namespace imsr::serve {

struct RecommendRequest {
  data::UserId user = -1;
  // <= 0 falls back to ServeConfig::default_top_n.
  int top_n = 0;
};

struct RecommendResponse {
  data::UserId user = -1;
  // Top-N (item, score), highest first; empty when !ok.
  std::vector<std::pair<data::ItemId, float>> items;
  bool ok = false;
  std::string error;  // set when !ok
};

struct ServeConfig {
  int default_top_n = 10;
  eval::ScoreRule rule = eval::ScoreRule::kAttentive;
  // Worker threads for the batch fan-out; <= 0 uses the process-wide
  // pool's configured size. Responses are identical for any thread count.
  int threads = 0;
  // kIVF routes through the snapshot's IvfIndex (exact float scores on
  // the approximate shortlist); a snapshot without an index falls back
  // to exact scoring (counted in serve/ivf_fallback_exact). The default
  // follows IMSR_RETRIEVAL, which is kExact unless overridden.
  RetrievalMode retrieval = DefaultRetrievalMode();
  // Lists probed per interest under kIVF; <= 0 uses the index default.
  int nprobe = 0;
};

// Scratch buffers for RecommendOne / RecommendBatch — one per worker
// thread, so the corpus-sized score arrays are allocated once, not
// per request.
struct RecommendScratch {
  eval::RankScratch rank;
  IvfIndex::Scratch ivf;
  // RecommendBatch working state: the unique users' interest rows packed
  // into one fused operand, the cache-resident logits tile the blocked
  // item sweep reuses, each unique user's full-corpus scores, and the
  // bookkeeping vectors — kept here so steady-state batches reuse their
  // buffers.
  nn::Tensor batch_interests;
  nn::Tensor batch_logits;  // (total_interests x block_rows) k-major tile
  std::vector<std::vector<float>> batch_scores;  // per unique user
  std::vector<data::UserId> batch_users;
  std::vector<int64_t> batch_col_offset;  // per unique user, into logits
  std::vector<int64_t> batch_user_k;      // per unique user interest count
  std::vector<int> batch_top_n;
  std::vector<int64_t> batch_user_slot;
};

// Answers one request against `snapshot` into `response`, reusing
// `scratch`. This is the single-request body the batch fan-out and the
// server's workers share — bitwise-identical results on both
// paths. Per-request failures (unknown user, bad top_n) land in the
// response (ok=false + error), never abort.
void RecommendOne(const ServingSnapshot& snapshot,
                  const RecommendRequest& request, const ServeConfig& config,
                  RecommendScratch* scratch, RecommendResponse* response);

// Answers `count` requests against one snapshot on the calling thread,
// sharing a single pass over the embedding table: unique users' interest
// rows are concatenated into one operand and scored in one blocked item
// sweep over the snapshot's k-major table — each block's logits tile
// stays cache-resident between the MatMulTransBPanelRangeInto call
// and the per-user reductions (exact path) — or one shortlist loop over
// the shared IVF scratch, and duplicate (user, top_n) requests within
// the batch copy the first answer.
// Responses are bitwise identical to calling RecommendOne per request —
// same kernel bodies, same per-user dispatch shapes, same error strings
// (memcmp-tested at batch size 1 and N in server_test). This is the
// server worker's micro-batch entry point; unlike Recommend() it never
// fans out, because parallelism already comes from the workers.
void RecommendBatch(const ServingSnapshot& snapshot,
                    const RecommendRequest* requests, size_t count,
                    const ServeConfig& config, RecommendScratch* scratch,
                    RecommendResponse* responses);

// Answers every request against `snapshot`; responses are parallel to
// `requests`.
std::vector<RecommendResponse> Recommend(
    const ServingSnapshot& snapshot,
    const std::vector<RecommendRequest>& requests,
    const ServeConfig& config);

// --- Response cache ---------------------------------------------------------
//
// Key for the serve response cache. The snapshot's data epoch
// (snapshot.h) is in the key, so a publish that changes scoring content
// invalidates every older entry for free — stale entries age out of the
// LRU tail instead of needing an explicit flush — while a
// content-identical republish (the timed-republish deployment) keeps the
// epoch and the cache warm. The freshness contract still holds exactly:
// equal epoch means the snapshots score every request bitwise
// identically, so a hit always returns what the *current* snapshot would
// compute (the CPMR-motivated rule: recommendations are only valid for
// the model state that scored them). top_n is the *resolved* value
// (defaults applied), so explicit and defaulted requests for the same N
// share an entry.
struct ResponseCacheKey {
  uint64_t epoch = 0;
  data::UserId user = -1;
  int32_t top_n = 0;
  uint8_t rule = 0;
  uint8_t retrieval = 0;
  int32_t nprobe = 0;

  bool operator==(const ResponseCacheKey& other) const {
    return epoch == other.epoch && user == other.user &&
           top_n == other.top_n && rule == other.rule &&
           retrieval == other.retrieval && nprobe == other.nprobe;
  }
};

struct ResponseCacheKeyHash {
  size_t operator()(const ResponseCacheKey& key) const;
};

// Cached value: the ok response's (item, score) list. Error responses
// are never cached — they are cheap to recompute and must not mask a
// user appearing in a later snapshot.
using ResponseCache =
    util::LruCache<ResponseCacheKey,
                   std::vector<std::pair<data::ItemId, float>>,
                   ResponseCacheKeyHash>;

// Key for `request` against `snapshot` under `config`, with top_n
// resolved the same way RecommendOne resolves it.
ResponseCacheKey MakeResponseCacheKey(const ServingSnapshot& snapshot,
                                      const RecommendRequest& request,
                                      const ServeConfig& config);

// Byte estimate charged against the cache budget for one entry: key +
// items payload + map/list node overhead.
size_t ResponseCacheEntryBytes(
    const std::vector<std::pair<data::ItemId, float>>& items);

}  // namespace imsr::serve

#endif  // IMSR_SERVE_RECOMMEND_H_
