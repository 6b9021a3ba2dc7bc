// BoundedQueue — the process's one blocking MPMC queue, shared by the
// streaming pipeline (stream::BoundedEventQueue) and the server's
// admission queue (serve::ShardSet, drained by every worker through
// PopBatch).
//
// Contract: Push() blocks while the queue is full (the producer slows to
// the consumer's pace instead of growing an unbounded backlog), TryPush()
// rejects instead of waiting (the admission-control primitive: the caller
// turns the rejection into an explicit overload response), Pop() and
// PopBatch() block while the queue is empty, and Close() wakes everyone —
// pushes after Close are rejected and pops drain whatever is still
// buffered before reporting end-of-stream. Depth statistics (high-water mark, number of
// pushes that had to wait) feed backpressure accounting: a queue pinned
// at capacity means the consumer is falling behind arrivals.
#ifndef IMSR_UTIL_BOUNDED_QUEUE_H_
#define IMSR_UTIL_BOUNDED_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"

namespace imsr::util {

// Optional obs wiring for a queue instance. Metric names must be string
// literals (they are registered once in the constructor); nullptr leaves
// the corresponding metric unrecorded. Instances of the same subsystem
// share a name and therefore aggregate into one metric.
struct BoundedQueueMetrics {
  // Histogram of the depth after each push (default latency bounds keep
  // parity with the original stream queue metric).
  const char* depth_histogram = nullptr;
  // Counter of pushes that found the queue full and had to wait.
  const char* blocked_counter = nullptr;
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity, BoundedQueueMetrics metrics = {})
      : capacity_(capacity) {
    IMSR_CHECK_GT(capacity, 0u);
#if !defined(IMSR_OBS_DISABLED)
    if (metrics.depth_histogram != nullptr) {
      depth_histogram_ =
          &obs::Registry().GetHistogram(metrics.depth_histogram);
    }
    if (metrics.blocked_counter != nullptr) {
      blocked_counter_ = &obs::Registry().GetCounter(metrics.blocked_counter);
    }
#else
    (void)metrics;
#endif
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks until space is available; returns false (dropping the item)
  // iff the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.size() >= capacity_ && !closed_) {
      ++blocked_pushes_;
      if (blocked_counter_ != nullptr) blocked_counter_->Add(1);
      not_full_.wait(lock, [this] {
        return items_.size() < capacity_ || closed_;
      });
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    RecordDepthLocked();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking variant; false when full or closed. This is the
  // admission-control path: a false return is the caller's cue to send
  // an explicit overload rejection instead of queueing unboundedly.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      RecordDepthLocked();
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and fully
  // drained (then returns false).
  bool Pop(T* item) {
    IMSR_CHECK(item != nullptr);
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    *item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Blocks like Pop() for the first item, then, under the same lock,
  // takes this consumer's fair share of what is left:
  //   min(max_items, 1 + remaining / consumers)
  // items in total, where `remaining` is the depth after the first pop.
  // A queue shallower than `consumers` thus hands out one item per pop,
  // leaving the rest to the other consumers, while a deep queue still
  // yields max_items. Replaces `out`'s contents; returns false (with
  // `out` empty) iff the queue is closed and fully drained.
  bool PopBatch(std::vector<T>* out, size_t max_items, size_t consumers) {
    IMSR_CHECK(out != nullptr);
    IMSR_CHECK_GT(max_items, 0u);
    IMSR_CHECK_GT(consumers, 0u);
    out->clear();
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    const size_t take =
        std::min(max_items, 1 + (items_.size() - 1) / consumers);
    for (size_t i = 0; i < take; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    if (take == 1) {
      not_full_.notify_one();
    } else {
      not_full_.notify_all();
    }
    return true;
  }

  // Rejects further pushes; pending items remain poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t capacity() const { return capacity_; }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  // Deepest the queue ever got (backpressure diagnostics).
  size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_depth_;
  }

  // Pushes that found the queue full and had to wait.
  uint64_t blocked_pushes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return blocked_pushes_;
  }

 private:
  void RecordDepthLocked() {
    if (items_.size() > max_depth_) max_depth_ = items_.size();
    if (depth_histogram_ != nullptr) {
      depth_histogram_->Record(static_cast<double>(items_.size()));
    }
  }

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  size_t max_depth_ = 0;
  uint64_t blocked_pushes_ = 0;
  obs::Histogram* depth_histogram_ = nullptr;
  obs::Counter* blocked_counter_ = nullptr;
};

}  // namespace imsr::util

#endif  // IMSR_UTIL_BOUNDED_QUEUE_H_
