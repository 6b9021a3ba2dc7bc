#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/obs.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace imsr::serve {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

size_t ShardOf(data::UserId user, size_t num_shards) {
  IMSR_CHECK_GT(num_shards, 0u);
  return static_cast<size_t>(
      SplitMix64(static_cast<uint64_t>(static_cast<uint32_t>(user))) %
      num_shards);
}

// --- ShardSet --------------------------------------------------------------

ShardSet::ShardSet(const SnapshotRegistry* registry,
                   const ShardSetConfig& config)
    : registry_(registry),
      config_(config),
      queue_(config.queue_cap * static_cast<size_t>(
                                    std::max(1, config.num_shards)),
             {/*depth_histogram=*/"serve/admission_queue_depth",
              /*blocked_counter=*/"serve/admission_queue_blocked"}) {
  IMSR_CHECK(registry != nullptr);
  IMSR_CHECK_GT(config.num_shards, 0);
  IMSR_CHECK_GT(config.queue_cap, 0u);
  if (config.cache_bytes > 0) {
    // The total budget splits evenly across the stripes.
    const size_t stripes = static_cast<size_t>(config.num_shards);
    const size_t per_stripe = std::max<size_t>(1, config.cache_bytes / stripes);
    stripes_.reserve(stripes);
    for (size_t i = 0; i < stripes; ++i) {
      stripes_.push_back(std::make_unique<CacheStripe>(per_stripe));
    }
  }
}

ShardSet::~ShardSet() { Drain(); }

void ShardSet::Start() {
  if (started_) return;
  started_ = true;
  workers_.reserve(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ShardSet::WorkerLoop() {
  RecommendScratch scratch;
  const size_t batch_max = static_cast<size_t>(std::max(1, config_.batch_max));
  const size_t workers = static_cast<size_t>(config_.num_shards);
  const bool cached = !stripes_.empty();
  std::vector<Task> tasks;
  std::vector<ResponseFrame> frames;
  std::vector<RecommendRequest> misses;
  std::vector<size_t> miss_frame;
  std::vector<RecommendResponse> miss_responses;
  // Micro-batch drain: one blocking pop, then this worker's fair share of
  // whatever is already waiting, up to batch_max. A shallow queue yields
  // a small batch immediately and leaves the rest to idle workers —
  // batching never trades latency for throughput.
  while (queue_.PopBatch(&tasks, batch_max, workers)) {
    IMSR_OBS_ONLY(util::Stopwatch drain_timer;)
    // The snapshot is loaded once per batch, AFTER collecting it: every
    // batched request was admitted before this load, so no response is
    // built from a snapshot older than the registry's current at that
    // request's admission (the freshness contract in DESIGN.md §15).
    const std::shared_ptr<const ServingSnapshot> snapshot =
        registry_->Current();
    uint64_t hits = 0;
    uint64_t lookups = 0;
    uint64_t evictions = 0;
    frames.clear();
    frames.resize(tasks.size());
    misses.clear();
    miss_frame.clear();
    for (size_t i = 0; i < tasks.size(); ++i) {
      ResponseFrame& frame = frames[i];
      frame.request_id = tasks[i].request.request_id;
      if (snapshot == nullptr) {
        frame.status = ResponseStatus::kError;
        frame.error = "no snapshot published yet";
        continue;
      }
      frame.snapshot_version = snapshot->version();
      RecommendRequest request;
      request.user = tasks[i].request.user;
      request.top_n = tasks[i].request.top_n;
      if (cached) {
        const ResponseCacheKey key =
            MakeResponseCacheKey(*snapshot, request, config_.serve);
        // Unresolvable top_n (<= 0 after defaults) is an error response;
        // those never enter the cache, so skip the lookup too.
        if (key.top_n > 0) {
          CacheStripe& stripe = StripeOf(request.user);
          std::lock_guard<std::mutex> lock(stripe.mutex);
          ++lookups;
          if (const auto* hit = stripe.cache.Get(key)) {
            ++hits;
            frame.status = ResponseStatus::kOk;
            frame.items = *hit;
            continue;
          }
        }
      }
      miss_frame.push_back(i);
      misses.push_back(request);
    }
    if (!misses.empty()) {
      miss_responses.resize(misses.size());
      RecommendBatch(*snapshot, misses.data(), misses.size(), config_.serve,
                     &scratch, miss_responses.data());
      for (size_t r = 0; r < misses.size(); ++r) {
        ResponseFrame& frame = frames[miss_frame[r]];
        RecommendResponse& response = miss_responses[r];
        if (response.ok) {
          frame.status = ResponseStatus::kOk;
          if (cached) {
            // Only ok responses are cached: errors are cheap to redo and
            // must not mask a user appearing in a later snapshot.
            const ResponseCacheKey key =
                MakeResponseCacheKey(*snapshot, misses[r], config_.serve);
            const size_t bytes = ResponseCacheEntryBytes(response.items);
            auto items = response.items;  // copied outside the lock
            CacheStripe& stripe = StripeOf(misses[r].user);
            std::lock_guard<std::mutex> lock(stripe.mutex);
            const uint64_t evicted_before = stripe.cache.evictions();
            stripe.cache.Put(key, std::move(items), bytes);
            evictions += stripe.cache.evictions() - evicted_before;
            stripe.bytes.store(stripe.cache.bytes(),
                               std::memory_order_relaxed);
          }
          frame.items = std::move(response.items);
        } else {
          frame.status = ResponseStatus::kError;
          frame.error = std::move(response.error);
        }
      }
    }
    // Responses go out in arrival order within the batch (ordering across
    // workers is still not promised — frames carry request_ids).
    for (size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].sink->SendResponse(frames[i]);
      tasks[i].sink.reset();  // release the connection before blocking
    }
    answered_.fetch_add(tasks.size(), std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (cached) {
      cache_hits_.fetch_add(hits, std::memory_order_relaxed);
      cache_misses_.fetch_add(lookups - hits, std::memory_order_relaxed);
      cache_evictions_.fetch_add(evictions, std::memory_order_relaxed);
      IMSR_COUNTER_ADD("serve/cache_hits", static_cast<int64_t>(hits));
      IMSR_COUNTER_ADD("serve/cache_misses",
                       static_cast<int64_t>(lookups - hits));
      IMSR_COUNTER_ADD("serve/cache_evictions",
                       static_cast<int64_t>(evictions));
      IMSR_GAUGE_SET("serve/cache_bytes",
                     static_cast<double>(ResidentCacheBytes()));
    }
    IMSR_COUNTER_ADD("serve/shard_answered",
                     static_cast<int64_t>(tasks.size()));
    IMSR_OBS_ONLY({
      IMSR_HISTOGRAM_RECORD("serve/shard_batch_size",
                            static_cast<double>(tasks.size()));
      IMSR_HISTOGRAM_RECORD("serve/shard_drain_ms",
                            drain_timer.ElapsedSeconds() * 1e3);
    })
  }
}

bool ShardSet::Submit(const RequestFrame& request,
                      std::shared_ptr<ResponseSink> sink) {
  IMSR_CHECK(started_);
  IMSR_CHECK(sink != nullptr);
  Task task;
  task.request = request;
  task.sink = sink;
  if (!queue_.TryPush(std::move(task))) {
    // Admission control: reject *now*, on the submitting thread, so the
    // client learns about overload instead of the queue growing or the
    // request vanishing.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    IMSR_COUNTER_ADD("serve/overload_rejected", 1);
    ResponseFrame frame;
    frame.request_id = request.request_id;
    frame.status = ResponseStatus::kOverloaded;
    frame.error = "admission queue full";
    sink->SendResponse(frame);
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ShardSet::Drain() {
  if (!started_ || drained_) return;
  drained_ = true;
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();
}

uint64_t ShardSet::ResidentCacheBytes() const {
  uint64_t bytes = 0;
  for (const auto& stripe : stripes_) {
    bytes += stripe->bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

ShardSetStats ShardSet::stats() const {
  ShardSetStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.answered = answered_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  stats.cache_evictions = cache_evictions_.load(std::memory_order_relaxed);
  stats.cache_bytes = ResidentCacheBytes();
  return stats;
}

// --- Server ----------------------------------------------------------------

// One accepted socket. Reads happen only on the I/O thread; writes happen
// from ShardSet workers (and the admission path) under `write_mutex_`, so
// response frames never interleave. The destructor closes the fd — and
// runs only once every queued response holding the shared_ptr has been
// written, so a write can never hit a recycled descriptor.
class Server::Connection : public ResponseSink {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() override { ::close(fd_); }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void SendResponse(const ResponseFrame& response) override {
    const std::vector<uint8_t> frame = EncodeResponse(response);
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (dead_.load(std::memory_order_relaxed)) return;
    size_t sent = 0;
    while (sent < frame.size()) {
      // MSG_NOSIGNAL: a vanished peer yields EPIPE, not a process kill.
      const ssize_t n = ::send(fd_, frame.data() + sent,
                               frame.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // The socket send buffer is full: block until it drains — the
          // response path is allowed to apply backpressure to workers.
          struct pollfd pfd = {fd_, POLLOUT, 0};
          if (::poll(&pfd, 1, 5000) > 0) continue;
        }
        dead_.store(true, std::memory_order_relaxed);
        return;
      }
      sent += static_cast<size_t>(n);
    }
  }

  int fd() const { return fd_; }
  bool dead() const { return dead_.load(std::memory_order_relaxed); }
  void MarkDead() { dead_.store(true, std::memory_order_relaxed); }
  FrameAssembler& assembler() { return assembler_; }

 private:
  const int fd_;
  std::mutex write_mutex_;
  std::atomic<bool> dead_{false};
  FrameAssembler assembler_;
};

Server::Server(const SnapshotRegistry* registry, const ServerConfig& config)
    : config_(config), shards_(registry, config.shards) {}

Server::~Server() {
  Shutdown();
  shards_.Drain();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

bool Server::Start(std::string* error) {
  IMSR_CHECK(listen_fd_ < 0);
  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "unix socket path too long";
      return false;
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = std::strerror(errno);
      return false;
    }
    ::unlink(config_.unix_path.c_str());  // replace a stale socket file
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      if (error != nullptr) {
        *error = "bind " + config_.unix_path + ": " + std::strerror(errno);
      }
      return false;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(config_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      if (error != nullptr) {
        *error = "bind port " + std::to_string(config_.tcp_port) + ": " +
                 std::strerror(errno);
      }
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 128) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  SetNonBlocking(listen_fd_);
  shards_.Start();
  return true;
}

bool Server::ShouldStop() const {
  if (stop_.load(std::memory_order_relaxed)) return true;
  return config_.stop != nullptr &&
         config_.stop->load(std::memory_order_relaxed);
}

bool Server::DrainReadable(const std::shared_ptr<Connection>& connection) {
  uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(connection->fd(), buffer, sizeof(buffer), 0);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    connection->assembler().Append(buffer, static_cast<size_t>(n));
    std::vector<uint8_t> payload;
    std::string error;
    for (;;) {
      const FrameAssembler::Result result =
          connection->assembler().Next(&payload, &error);
      if (result == FrameAssembler::Result::kNeedMore) break;
      if (result == FrameAssembler::Result::kError) {
        // The byte stream lost sync; nothing after this point can be
        // trusted, so the connection is dropped (counted, not silent).
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        IMSR_COUNTER_ADD("serve/protocol_errors", 1);
        return false;
      }
      RequestFrame request;
      if (!TryDecodeRequest(payload, &request, &error)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        IMSR_COUNTER_ADD("serve/protocol_errors", 1);
        return false;
      }
      frames_.fetch_add(1, std::memory_order_relaxed);
      shards_.Submit(request, connection);
    }
    if (static_cast<size_t>(n) < sizeof(buffer)) return true;
  }
}

void Server::Run() {
  IMSR_CHECK(listen_fd_ >= 0) << "Start() must succeed before Run()";
  std::vector<pollfd> poll_fds;
  std::vector<std::shared_ptr<Connection>> poll_connections;
  while (!ShouldStop()) {
    poll_fds.clear();
    poll_connections.clear();
    poll_fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, connection] : connections_) {
      poll_fds.push_back({fd, POLLIN, 0});
      poll_connections.push_back(connection);
    }
    // 100ms cap so a stop request (signal or Shutdown()) is noticed
    // promptly even on an idle socket.
    const int ready = ::poll(poll_fds.data(), poll_fds.size(), 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (poll_fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;  // EAGAIN: accepted everything pending
        SetNonBlocking(fd);
        connections_[fd] = std::make_shared<Connection>(fd);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        IMSR_COUNTER_ADD("serve/connections_accepted", 1);
      }
    }
    for (size_t i = 1; i < poll_fds.size(); ++i) {
      const std::shared_ptr<Connection>& connection =
          poll_connections[i - 1];
      bool alive = !connection->dead();
      if (alive && (poll_fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
        alive = DrainReadable(connection) && !connection->dead();
      }
      if (!alive) {
        connections_.erase(poll_fds[i].fd);
        disconnected_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Graceful wind-down: stop accepting first, then let the workers finish
  // every admitted request (their responses still flow through live
  // connections), then drop the connections.
  ::close(listen_fd_);
  listen_fd_ = -1;
  shards_.Drain();
  const size_t open = connections_.size();
  connections_.clear();
  disconnected_.fetch_add(open, std::memory_order_relaxed);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void Server::Shutdown() { stop_.store(true, std::memory_order_relaxed); }

ServerStats Server::stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.disconnected = disconnected_.load(std::memory_order_relaxed);
  stats.frames = frames_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace imsr::serve
