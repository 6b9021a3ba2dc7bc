// Shared plumbing for the perfbench workloads: command-line options,
// wall-clock timing, sample statistics, the metric report every run
// prints, process memory, and the memory-bandwidth probe.
//
// Every layer is timed from outside, around calls into its public
// functions; nothing here reaches into the program.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}
inline double MicrosSince(Clock::time_point start) {
  return SecondsSince(start) * 1e6;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  // Directory for the run's sockets and scratch files: the perfbench
  // binary's own build directory.
  std::string work_dir = ".";
};

// Quantile of `values` by linear interpolation between order statistics
// (q in [0, 1]); 0 for an empty sample. Sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

// The report a run prints as its last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Workloads add every metric the run owes (end-to-end when untraced,
// per-layer when traced) and count operations and failed checks.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  // Moves every metric not named in `names` to the detail line.
  void KeepOnly(const std::vector<std::string>& names);
  // Records a failed operation or check; the first few reasons go to
  // stderr so a failing run says why.
  void Fail(const std::string& why);
  void Attempt(int64_t count = 1) { attempted_ += count; }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && !gate_failed_; }
  // A whole-run acceptance gate (recall floor, quality floor) that is
  // not one operation: marks the run incorrect without counting a
  // failed operation.
  void FailGate(const std::string& why);

  // Extra named figures printed on their own line ("detail {...}") ahead
  // of the result: the workload's own metrics under their usual names.
  void Detail(const std::string& name, double value, const std::string& unit);

  void PrintDetail() const;
  void PrintResult() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, Entry> detail_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool gate_failed_ = false;
};

// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

// Prints the provenance line: seed, nproc, CPU model, build type and
// flags, git sha and source digest.
void PrintProvenance(const Options& options);

// STREAM-style triad a[i] = b[i] + s * c[i] over three float arrays of
// `bytes_per_array` each; returns the best of `repeats` sweeps in GB/s
// counting 3 arrays moved (2 reads + 1 write) per sweep.
double TriadGbps(int64_t bytes_per_array, int repeats);

// One SCHED_IDLE spinning thread per online CPU for the object's
// lifetime. They run only when nothing else is runnable, so they take no
// time from the workload, but they keep every CPU out of its idle state:
// a thread the workload wakes then starts at once instead of waiting for
// an idle CPU to come back, which on a virtual machine depends on the
// host's load.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Cost of one steady_clock read in nanoseconds (median of batches), used
// to charge the per-call timers' cost against a traced section.
double ClockReadNanos();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
