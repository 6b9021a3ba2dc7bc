#include "serve/registry.h"

#include <utility>

#include "obs/obs.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace imsr::serve {

void SnapshotRegistry::Publish(std::shared_ptr<ServingSnapshot> snapshot) {
  IMSR_CHECK(snapshot != nullptr);
  IMSR_OBS_ONLY(util::Stopwatch timer;)
  snapshot->version_ =
      next_version_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Data-epoch stamp: when the incoming snapshot would score every
  // request bitwise identically to the current one (a timed republish of
  // an unchanged model), carry the current epoch forward so epoch-keyed
  // state — the striped response cache — stays warm across the publish.
  // Any real content change starts a fresh epoch (= this version), which
  // invalidates every cached response by key. The comparison costs one
  // memcmp sweep over the frozen tables, on the publisher's thread, never
  // a reader's.
  std::shared_ptr<const ServingSnapshot> prev =
      current_.load(std::memory_order_acquire);
  if (prev != nullptr && snapshot->SameScoringContent(*prev)) {
    snapshot->data_epoch_ = prev->data_epoch_;
  } else {
    snapshot->data_epoch_ = snapshot->version_;
  }
  IMSR_GAUGE_SET("serve/snapshot_version",
                 static_cast<double>(snapshot->version_));
  IMSR_GAUGE_SET("serve/snapshot_span",
                 static_cast<double>(snapshot->trained_through_span()));
  std::shared_ptr<const ServingSnapshot> frozen = std::move(snapshot);
  // Readers taking Current() concurrently keep the snapshot they loaded;
  // the retired one is freed when its last reader lets go.
  std::shared_ptr<const ServingSnapshot> retired =
      current_.exchange(std::move(frozen), std::memory_order_acq_rel);
  IMSR_OBS_ONLY(if (retired != nullptr) {
    IMSR_GAUGE_SET("serve/retired_snapshot_refs",
                   static_cast<double>(retired.use_count() - 1));
  })
  IMSR_COUNTER_ADD("serve/publishes", 1);
  IMSR_HISTOGRAM_RECORD("serve/publish_latency_ms", timer.ElapsedMillis());
}

std::shared_ptr<const ServingSnapshot> SnapshotRegistry::Current() const {
  return current_.load(std::memory_order_acquire);
}

}  // namespace imsr::serve
