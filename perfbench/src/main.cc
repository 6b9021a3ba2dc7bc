// perfbench — runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--git_sha <sha>] [--source_digest <hex>]
//
// Prints a provenance line, a "detail" line with the workload's own
// figures, and as its last line the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (untraced) or every per-layer metric
// (traced). Exit code 0 when the run completed (even with failed
// checks), 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json "end_to_end".
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"data_to_servable_ms", "ms"},
    {"answers_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"recall_at_10", "fraction"},
};

// Mirrors BENCHMARK.json "per_layer". A workload that never calls a
// layer reports its figures as 0.
constexpr MetricSpec kPerLayer[] = {
    {"data.span_samples_ms", "ms"},
    {"core.pretrain_s", "s"},
    {"core.span_ms", "ms"},
    {"core.span_components_ms", "ms"},
    {"core.span_accounted_pct", "%"},
    {"core.teacher_snapshot_ms", "ms"},
    {"core.ensure_user_state_ms", "ms"},
    {"core.expansion_ms", "ms"},
    {"core.interests_added", "count"},
    {"core.interests_trimmed", "count"},
    {"core.pit_keep_ratio", "fraction"},
    {"core.avg_interests", "count"},
    {"core.train_epoch_ms", "ms"},
    {"core.train_steps", "count"},
    {"core.refresh_interests_ms", "ms"},
    {"models.batch_loss_us", "us"},
    {"nn.backward_us", "us"},
    {"nn.adam_step_us", "us"},
    {"eval.evaluate_span_ms", "ms"},
    {"eval.score_all_items_us", "us"},
    {"eval.users_per_s", "1/s"},
    {"eval.hr_at_20", "fraction"},
    {"eval.ndcg_at_20", "fraction"},
    {"serve.build_snapshot_ms", "ms"},
    {"serve.snapshot_mb", "MB"},
    {"serve.publish_us", "us"},
    {"serve.ivf_build_ms", "ms"},
    {"serve.recommend_one_us", "us"},
    {"serve.recommend_batch_us_per_req", "us"},
    {"serve.exact_sweep_mb", "MB"},
    {"serve.exact_sweep_mflop", "MFLOP"},
    {"serve.exact_sweep_gbps", "GB/s"},
    {"serve.exact_sweep_gflops", "GFLOP/s"},
    {"serve.ivf_search_us", "us"},
    {"serve.ivf_search_kb", "KB"},
    {"serve.ivf_search_mflop", "MFLOP"},
    {"serve.ivf_probes", "count"},
    {"serve.ivf_shortlist", "count"},
    {"serve.ivf_reranked", "count"},
    {"serve.ivf_recall_at_10", "fraction"},
    {"serve.shard_rtt_p50_us", "us"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.mean_batch", "count"},
    {"serve.rejected", "count"},
    {"serve.cache_hit_ratio", "fraction"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.cache_evictions", "count"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.inprocess_qps", "1/s"},
    {"serve.shardset_qps", "1/s"},
    {"serve.socket_qps", "1/s"},
    {"hw.triad_table_gbps", "GB/s"},
    {"hw.triad_dram_gbps", "GB/s"},
    {"loadgen.send_lag_p99_ms", "ms"},
    {"stream.score_event_us", "us"},
    {"stream.consume_us", "us"},
    {"stream.publish_ms", "ms"},
    {"stream.publishes", "count"},
    {"stream.events_per_s", "1/s"},
    {"stream.event_to_servable_p50_ms", "ms"},
    {"stream.accounted_pct", "%"},
    {"stream.window_hr_at_20", "fraction"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "<train-incremental|serve-exact|serve-ivf-live> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options, std::string* error) {
  std::vector<std::pair<std::string, std::string>> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      args.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc) {
      args.emplace_back(arg, argv[++i]);
    } else {
      *error = "--" + arg + " needs a value";
      return false;
    }
  }
  std::set<std::string> seen;
  for (const auto& [key, value] : args) {
    seen.insert(key);
    char* end = nullptr;
    if (key == "workload") {
      options->workload = value;
    } else if (key == "seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        *error = "--seed expects an integer";
        return false;
      }
    } else if (key == "seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options->seconds > 0.0)) {
        *error = "--seconds expects a positive number";
        return false;
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        *error = "--trace expects 0 or 1";
        return false;
      }
      options->trace = value == "1";
    } else if (key == "git_sha") {
      options->git_sha = value;
    } else if (key == "source_digest") {
      options->source_digest = value;
    } else {
      *error = "unknown flag --" + key;
      return false;
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (seen.count(required) == 0) {
      *error = std::string("missing --") + required;
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces)
  Options options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) return Usage(error.c_str());
  const std::string self = argv[0];
  if (self.find('/') != std::string::npos) {
    options.work_dir = self.substr(0, self.rfind('/'));
  }
  void (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "train-incremental") {
    run = RunTrainIncremental;
  } else if (options.workload == "serve-exact") {
    run = RunServeExact;
  } else if (options.workload == "serve-ivf-live") {
    run = RunServeIvfLive;
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  PrintProvenance(options);

  Report report;
  {
    const IdleSpinners spinners;
    run(options, &report);
  }

  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      if (!report.Has(spec.name)) report.Set(spec.name, 0.0, spec.unit);
    }
  } else {
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    for (const MetricSpec& spec : kEndToEnd) {
      if (!report.Has(spec.name)) {
        report.FailGate(std::string("workload did not measure ") + spec.name);
        report.Set(spec.name, 0.0, spec.unit);
      }
    }
  }
  std::vector<std::string> names;
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) names.push_back(spec.name);
  } else {
    for (const MetricSpec& spec : kEndToEnd) names.push_back(spec.name);
  }
  report.KeepOnly(names);
  report.PrintDetail();
  report.PrintResult();
  return 0;
}
