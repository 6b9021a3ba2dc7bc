// BoundedEventQueue — the backpressure point between ingestion and the
// micro-span trainer: util::BoundedQueue of StreamEvents with the
// stream/* metric names bound. See util/bounded_queue.h for the blocking
// and close semantics (shared verbatim with the server's admission queue).
#ifndef IMSR_STREAM_QUEUE_H_
#define IMSR_STREAM_QUEUE_H_

#include "stream/event.h"
#include "util/bounded_queue.h"

namespace imsr::stream {

class BoundedEventQueue : public util::BoundedQueue<StreamEvent> {
 public:
  explicit BoundedEventQueue(size_t capacity)
      : util::BoundedQueue<StreamEvent>(
            capacity, {/*depth_histogram=*/"stream/queue_depth",
                       /*blocked_counter=*/"stream/queue_blocked_pushes"}) {}
};

}  // namespace imsr::stream

#endif  // IMSR_STREAM_QUEUE_H_
