#include "src/common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>

namespace perfbench {
namespace {

// JSON string escaping for the few free-text fields we print.
std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : Sum(values) / static_cast<double>(values.size());
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    FailGate("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  detail_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::KeepOnly(const std::vector<std::string>& names) {
  for (auto it = metrics_.begin(); it != metrics_.end();) {
    if (std::find(names.begin(), names.end(), it->first) == names.end()) {
      detail_[it->first] = it->second;
      it = metrics_.erase(it);
    } else {
      ++it;
    }
  }
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "check failed: %s\n", why.c_str());
}

void Report::FailGate(const std::string& why) {
  gate_failed_ = true;
  std::fprintf(stderr, "gate failed: %s\n", why.c_str());
}

void Report::PrintDetail() const {
  std::string line = "detail {";
  bool first = true;
  for (const auto& [name, entry] : detail_) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(entry.value) +
            ", \"unit\": " + JsonString(entry.unit) + "}";
  }
  std::printf("%s}\n", line.c_str());
}

void Report::PrintResult() const {
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(entry.value) +
            ", \"unit\": " + JsonString(entry.unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB
}

void PrintProvenance(const Options& options) {
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %s, \"nproc\": %ld, \"cpu\": %s, \"build_type\": %s, "
      "\"cxx_flags\": %s, \"git_sha\": %s, \"source_digest\": %s}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? "true" : "false",
      sysconf(_SC_NPROCESSORS_ONLN), JsonString(CpuModel()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      JsonString(options.git_sha).c_str(),
      JsonString(options.source_digest).c_str());
  std::fflush(stdout);
}

double TriadGbps(int64_t bytes_per_array, int repeats) {
  const size_t n = static_cast<size_t>(bytes_per_array) / sizeof(float);
  std::unique_ptr<float[]> a(new float[n]);
  std::unique_ptr<float[]> b(new float[n]);
  std::unique_ptr<float[]> c(new float[n]);
  for (size_t i = 0; i < n; ++i) {
    a[i] = 0.0f;
    b[i] = static_cast<float>(i % 7);
    c[i] = static_cast<float>(i % 5);
  }
  const float s = 1.5f;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    float* __restrict pa = a.get();
    const float* __restrict pb = b.get();
    const float* __restrict pc = c.get();
    for (size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    const double seconds = SecondsSince(start);
    // Keep the store observable so the sweep is not elided.
    volatile float sink = pa[n / 2];
    (void)sink;
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(float)) /
                              seconds / 1e9);
  }
  return best;
}

IdleSpinners::IdleSpinners() {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  for (long c = 0; c < cpus; ++c) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  // yield the core to an SMT sibling
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) thread.join();
}

double ClockReadNanos() {
  constexpr int kBatch = 10000;
  std::vector<double> batches;
  for (int b = 0; b < 9; ++b) {
    const Clock::time_point start = Clock::now();
    Clock::rep accumulate = 0;
    for (int i = 0; i < kBatch; ++i) {
      accumulate += Clock::now().time_since_epoch().count() & 1;
    }
    const double nanos = SecondsSince(start) * 1e9 / kBatch;
    if (accumulate < 0) std::printf("#");  // keep the loop observable
    batches.push_back(nanos);
  }
  return Median(batches);
}

}  // namespace perfbench
