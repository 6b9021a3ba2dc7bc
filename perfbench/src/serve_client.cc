#include "src/serve_client.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "src/common.h"
#include "serve/protocol.h"
#include "serve/recommend.h"

namespace perfbench {
namespace {

using imsr::data::UserId;
using imsr::serve::RequestFrame;
using imsr::serve::ResponseFrame;
using imsr::serve::ResponseStatus;

// One blocking client connection speaking the serve protocol.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(const std::string& path, std::string* error) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      *error = std::strerror(errno);
      return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      *error = "connect " + path + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  bool Send(const RequestFrame& request) {
    const std::vector<uint8_t> bytes = imsr::serve::EncodeRequest(request);
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Next response; waits at most `timeout_ms` for bytes (returns false
  // with an empty `error` on a timeout, a message on failure).
  bool Receive(ResponseFrame* response, int timeout_ms, std::string* error) {
    error->clear();
    while (true) {
      const imsr::serve::FrameAssembler::Result result =
          assembler_.Next(&payload_, error);
      if (result == imsr::serve::FrameAssembler::Result::kError) return false;
      if (result == imsr::serve::FrameAssembler::Result::kFrame) {
        return imsr::serve::TryDecodeResponse(payload_, response, error);
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) {
        if (ready < 0) *error = std::strerror(errno);
        return false;
      }
      uint8_t buffer[1 << 16];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        *error = n == 0 ? "server closed the connection"
                        : std::string(std::strerror(errno));
        return false;
      }
      assembler_.Append(buffer, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  imsr::serve::FrameAssembler assembler_;
  std::vector<uint8_t> payload_;
};

class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
    zeta_n_ = Zeta(n, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - Zeta(2, theta) / zeta_n_);
  }
  uint64_t Next(imsr::util::Rng* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zeta_n_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto rank = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(rank, n_ - 1);
  }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }
  uint64_t n_;
  double theta_;
  double zeta_n_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

// Per-connection record merged into the LoadResult after the join.
struct ConnectionLog {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t not_ok = 0;
  uint64_t lost = 0;
  std::vector<double> latency_ms;
  std::vector<double> send_lag_ms;
  std::vector<Clock::time_point> done;
  std::vector<SampledResponse> samples;
  std::vector<UserId> users;
  std::vector<std::string> failures;
  Clock::time_point first_send{};
  Clock::time_point last_receive{};
};

void Record(const ResponseFrame& response, UserId user, int sample_every,
            ConnectionLog* log) {
  log->done.push_back(log->last_receive);
  if (response.status != ResponseStatus::kOk) {
    ++log->not_ok;
    if (log->failures.size() < 3) {
      log->failures.push_back(
          std::string("status ") +
          imsr::serve::ResponseStatusName(response.status) + ": " +
          response.error);
    }
    return;
  }
  ++log->ok;
  if (sample_every > 0 && log->ok % static_cast<uint64_t>(sample_every) == 1) {
    log->samples.push_back({response.snapshot_version, user, response.items});
  }
}

LoadResult Merge(std::vector<ConnectionLog>* logs) {
  LoadResult result;
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  for (ConnectionLog& log : *logs) {
    result.sent += log.sent;
    result.ok += log.ok;
    result.not_ok += log.not_ok;
    result.lost += log.lost;
    result.latency_ms.insert(result.latency_ms.end(), log.latency_ms.begin(),
                             log.latency_ms.end());
    result.send_lag_ms.insert(result.send_lag_ms.end(),
                              log.send_lag_ms.begin(), log.send_lag_ms.end());
    for (SampledResponse& sample : log.samples) {
      result.samples.push_back(std::move(sample));
    }
    result.sequence.insert(result.sequence.end(), log.users.begin(),
                           log.users.end());
    for (const std::string& why : log.failures) {
      if (result.failures.size() < 5) result.failures.push_back(why);
    }
    if (log.sent > 0) {
      first = std::min(first, log.first_send);
      last = std::max(last, log.last_receive);
    }
  }
  if (last > first) {
    result.elapsed_s = std::chrono::duration<double>(last - first).count();
  }
  for (const ConnectionLog& log : *logs) {
    for (const Clock::time_point done : log.done) {
      result.done_s.push_back(
          std::chrono::duration<double>(done - first).count());
    }
  }
  return result;
}

}  // namespace

void KeepSleepsShort() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

namespace {

uint64_t RequestId(int connection, uint64_t index) {
  return (static_cast<uint64_t>(connection) << 40) | index;
}

}  // namespace

double WindowedLatencyQuantile(const LoadResult& load, double q) {
  const double rate = double(load.latency_ms.size()) / load.elapsed_s;
  const double window = std::max(1.0, std::ceil(1000.0 / rate));
  const size_t windows =
      static_cast<size_t>(std::max(1.0, std::floor(load.elapsed_s / window)));
  std::vector<std::vector<double>> slices(windows);
  for (size_t i = 0; i < load.done_s.size() && i < load.latency_ms.size();
       ++i) {
    const size_t w = static_cast<size_t>(load.done_s[i] / window);
    if (w < windows) slices[w].push_back(load.latency_ms[i]);
  }
  std::vector<double> quantiles;
  for (const std::vector<double>& slice : slices) {
    if (!slice.empty()) quantiles.push_back(Quantile(slice, q));
  }
  return Median(quantiles);
}

UserPicker ZipfPicker(uint64_t n, double theta) {
  auto zipf = std::make_shared<ZipfGenerator>(n, theta);
  return [zipf](imsr::util::Rng* rng) {
    return static_cast<UserId>(zipf->Next(rng));
  };
}

UserPicker UniformPicker(uint64_t n) {
  return [n](imsr::util::Rng* rng) {
    return static_cast<UserId>(rng->NextBelow(n));
  };
}

LoadResult RunClosedLoop(const LoadConfig& config) {
  std::vector<ConnectionLog> logs(static_cast<size_t>(config.connections));
  std::vector<std::thread> threads;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  for (int c = 0; c < config.connections; ++c) {
    threads.emplace_back([&config, &logs, c, deadline] {
      ConnectionLog& log = logs[static_cast<size_t>(c)];
      imsr::util::Rng rng(config.seed * 1000003ULL + static_cast<uint64_t>(c));
      Connection connection;
      std::string error;
      if (!connection.Connect(config.socket_path, &error)) {
        log.failures.push_back(error);
        ++log.lost;
        return;
      }
      log.first_send = Clock::now();
      ResponseFrame response;
      while (Clock::now() < deadline) {
        const UserId user = config.picker(&rng);
        RequestFrame request;
        request.request_id = RequestId(c, log.sent);
        request.user = user;
        request.top_n = config.top_n;
        const Clock::time_point start = Clock::now();
        if (!connection.Send(request)) {
          log.failures.push_back("send failed");
          ++log.lost;
          return;
        }
        ++log.sent;
        log.users.push_back(user);
        if (!connection.Receive(&response, 30000, &error) ||
            response.request_id != request.request_id) {
          log.failures.push_back(error.empty() ? "no or mismatched response"
                                               : error);
          ++log.lost;
          return;
        }
        log.last_receive = Clock::now();
        log.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(log.last_receive - start)
                .count());
        Record(response, user, config.sample_every, &log);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return Merge(&logs);
}

LoadResult RunOpenLoop(const LoadConfig& config) {
  const int connections = config.connections;
  const double per_connection_rate = config.rate / connections;
  std::vector<ConnectionLog> logs(static_cast<size_t>(connections));
  // Schedules (offsets from the common start) and users, fixed ahead of
  // time from the seed.
  std::vector<std::vector<double>> offsets(static_cast<size_t>(connections));
  std::vector<std::vector<UserId>> users(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    imsr::util::Rng rng(config.seed * 1000003ULL + static_cast<uint64_t>(c));
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.NextDouble()) / per_connection_rate;
      if (t >= config.seconds) break;
      offsets[static_cast<size_t>(c)].push_back(t);
      users[static_cast<size_t>(c)].push_back(config.picker(&rng));
    }
  }
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const auto at = [start](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset));
  };
  // Answers must arrive within this long after the last send.
  const Clock::time_point give_up = at(config.seconds + 30.0);

  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ConnectionLog& log = logs[static_cast<size_t>(c)];
      const std::vector<double>& plan = offsets[static_cast<size_t>(c)];
      const std::vector<UserId>& plan_users = users[static_cast<size_t>(c)];
      Connection connection;
      std::string error;
      if (!connection.Connect(config.socket_path, &error)) {
        log.failures.push_back(error);
        log.lost = plan.size();
        return;
      }
      log.users = plan_users;
      log.first_send = at(plan.empty() ? 0.0 : plan.front());
      std::atomic<uint64_t> sent{0};
      std::atomic<bool> send_failed{false};
      // Receiver: matches responses to their scheduled send times.
      std::thread receiver([&] {
        ResponseFrame response;
        std::string receive_error;
        uint64_t received = 0;
        while (received < plan.size()) {
          if (Clock::now() > give_up ||
              (send_failed.load() && received >= sent.load())) {
            break;
          }
          if (!connection.Receive(&response, 100, &receive_error)) {
            if (receive_error.empty()) continue;  // timeout slice
            log.failures.push_back(receive_error);
            break;
          }
          const uint64_t index = response.request_id & ((1ULL << 40) - 1);
          if ((response.request_id >> 40) != static_cast<uint64_t>(c) ||
              index >= plan.size()) {
            log.failures.push_back("response with unknown request id");
            break;
          }
          ++received;
          log.last_receive = Clock::now();
          log.latency_ms.push_back(
              std::chrono::duration<double, std::milli>(log.last_receive -
                                                        at(plan[index]))
                  .count());
          Record(response, plan_users[index], config.sample_every, &log);
        }
        log.lost = plan.size() - received;
      });
      KeepSleepsShort();
      for (size_t k = 0; k < plan.size(); ++k) {
        const Clock::time_point due = at(plan[k]);
        std::this_thread::sleep_until(due);
        RequestFrame request;
        request.request_id = RequestId(c, k);
        request.user = plan_users[k];
        request.top_n = config.top_n;
        const Clock::time_point now = Clock::now();
        log.send_lag_ms.push_back(
            std::chrono::duration<double, std::milli>(now - due).count());
        if (!connection.Send(request)) {
          send_failed.store(true);
          break;
        }
        sent.fetch_add(1);
      }
      log.sent = sent.load();
      receiver.join();
    });
  }
  for (std::thread& thread : threads) thread.join();
  return Merge(&logs);
}

ServerThread::ServerThread(const imsr::serve::SnapshotRegistry* registry,
                           const imsr::serve::ServerConfig& config)
    : server_(registry, config) {}

ServerThread::~ServerThread() { Stop(); }

bool ServerThread::Start(std::string* error) {
  if (!server_.Start(error)) return false;
  io_ = std::thread([this] { server_.Run(); });
  return true;
}

void ServerThread::Stop() {
  if (!io_.joinable()) return;
  server_.Shutdown();
  io_.join();
}

namespace {

// Waits for the one response a submitter has in flight.
class WaitSink : public imsr::serve::ResponseSink {
 public:
  void SendResponse(const ResponseFrame& response) override {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    ok_ = response.status == ResponseStatus::kOk;
    arrived_ = now;
    done_ = true;
    ready_.notify_one();
  }
  // Blocks until the response arrives; returns its arrival time.
  Clock::time_point Wait(bool* ok) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return done_; });
    done_ = false;
    *ok = ok_;
    return arrived_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  bool done_ = false;
  bool ok_ = false;
  Clock::time_point arrived_{};
};

}  // namespace

ShardPassResult RunShardSetPass(const imsr::serve::SnapshotRegistry* registry,
                                const imsr::serve::ShardSetConfig& config,
                                const std::vector<UserId>& sequence,
                                int submitters, int top_n) {
  imsr::serve::ShardSet shards(registry, config);
  shards.Start();
  std::vector<std::vector<double>> rtts(static_cast<size_t>(submitters));
  std::vector<uint64_t> not_ok(static_cast<size_t>(submitters), 0);
  const size_t per = (sequence.size() + static_cast<size_t>(submitters) - 1) /
                     static_cast<size_t>(submitters);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      auto sink = std::make_shared<WaitSink>();
      const size_t begin = std::min(sequence.size(), per * static_cast<size_t>(s));
      const size_t end = std::min(sequence.size(), begin + per);
      for (size_t i = begin; i < end; ++i) {
        RequestFrame request;
        request.request_id = i;
        request.user = sequence[i];
        request.top_n = top_n;
        const Clock::time_point sent = Clock::now();
        shards.Submit(request, sink);
        bool ok = false;
        const Clock::time_point arrived = sink->Wait(&ok);
        if (!ok) ++not_ok[static_cast<size_t>(s)];
        rtts[static_cast<size_t>(s)].push_back(
            std::chrono::duration<double, std::micro>(arrived - sent).count());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ShardPassResult result;
  result.elapsed_s = SecondsSince(start);
  shards.Drain();
  result.stats = shards.stats();
  for (size_t s = 0; s < rtts.size(); ++s) {
    result.rtt_us.insert(result.rtt_us.end(), rtts[s].begin(), rtts[s].end());
    result.not_ok += not_ok[s];
  }
  result.answered = result.rtt_us.size();
  return result;
}

namespace {

// Requests per second when `threads` threads each answer their slice of
// `sequence` with RecommendBatch in batches of `batch`.
double RecommendBatchQps(const imsr::serve::ServingSnapshot& snapshot,
                         const imsr::serve::ServeConfig& config,
                         const std::vector<UserId>& sequence, int threads,
                         int batch, int top_n) {
  const size_t per = (sequence.size() + static_cast<size_t>(threads) - 1) /
                     static_cast<size_t>(threads);
  const size_t step = static_cast<size_t>(std::max(batch, 1));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      imsr::serve::RecommendScratch scratch;
      std::vector<imsr::serve::RecommendRequest> requests(step);
      std::vector<imsr::serve::RecommendResponse> responses(step);
      const size_t begin =
          std::min(sequence.size(), per * static_cast<size_t>(t));
      const size_t end = std::min(sequence.size(), begin + per);
      for (size_t i = begin; i < end; i += step) {
        const size_t count = std::min(step, end - i);
        for (size_t j = 0; j < count; ++j) {
          requests[j].user = sequence[i + j];
          requests[j].top_n = top_n;
        }
        imsr::serve::RecommendBatch(snapshot, requests.data(), count, config,
                                    &scratch, responses.data());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return static_cast<double>(sequence.size()) / SecondsSince(start);
}

}  // namespace

void ReportServingLayers(const imsr::serve::SnapshotRegistry& registry,
                         const imsr::serve::ShardSetConfig& config,
                         const LoadResult& socket, int submitters, int top_n,
                         double scoring_us, Report* report,
                         int64_t* timer_reads) {
  const size_t count = std::min<size_t>(socket.sequence.size(), 2000);
  const std::vector<UserId> sequence(socket.sequence.begin(),
                                     socket.sequence.begin() + count);
  const ShardPassResult shard =
      RunShardSetPass(&registry, config, sequence, submitters, top_n);
  *timer_reads += 2 * static_cast<int64_t>(shard.answered);
  if (shard.not_ok > 0) report->Fail("ShardSet pass: non-ok responses");
  const double rtt_p50 = Median(shard.rtt_us);
  const double mean_batch =
      shard.stats.batches > 0
          ? double(shard.stats.answered) / double(shard.stats.batches)
          : 1.0;
  report->Set("serve.shard_rtt_p50_us", rtt_p50, "us");
  report->Set("serve.queue_wait_p50_us", rtt_p50 - scoring_us, "us");
  report->Set("serve.shardset_qps", double(shard.answered) / shard.elapsed_s,
              "1/s");
  report->Set("serve.inprocess_qps",
              RecommendBatchQps(*registry.Current(), config.serve, sequence,
                                config.num_shards,
                                std::max(1, int(std::lround(mean_batch))),
                                top_n),
              "1/s");
  report->Set("serve.socket_qps", double(socket.ok) / socket.elapsed_s, "1/s");
  report->Set("serve.transport_us", Median(socket.latency_ms) * 1e3 - rtt_p50,
              "us");
}

void ReportCodec(const std::vector<SampledResponse>& samples, Report* report,
                 int64_t* timer_reads) {
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  for (const SampledResponse& sample : samples) {
    ResponseFrame frame;
    frame.status = ResponseStatus::kOk;
    frame.snapshot_version = sample.snapshot_version;
    frame.items = sample.items;
    Clock::time_point start = Clock::now();
    const std::vector<uint8_t> bytes = imsr::serve::EncodeResponse(frame);
    encode_us.push_back(MicrosSince(start));
    const std::vector<uint8_t> payload(
        bytes.begin() + imsr::serve::kFrameHeaderBytes, bytes.end());
    ResponseFrame decoded;
    std::string error;
    start = Clock::now();
    const bool ok = imsr::serve::TryDecodeResponse(payload, &decoded, &error);
    decode_us.push_back(MicrosSince(start));
    if (!ok || decoded.items != frame.items) {
      report->Fail("response did not survive encode + decode: " + error);
    }
    *timer_reads += 4;
  }
  report->Set("serve.encode_us", Median(encode_us), "us");
  report->Set("serve.decode_us", Median(decode_us), "us");
}

}  // namespace perfbench
