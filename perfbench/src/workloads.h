// The three perfbench workloads. Each fills `report` with the metrics
// the run owes — the end-to-end set when untraced, the per-layer set when
// options.trace — and counts its operations and failed checks.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "src/common.h"

namespace perfbench {

// Algorithm 2 on the Taobao preset: pretrain, then every incremental
// span, publishing a snapshot and evaluating the next span on it.
void RunTrainIncremental(const Options& options, Report* report);

// Exact retrieval over a 100k-item x 1M-user clustered corpus, closed
// loop over a Unix socket.
void RunServeExact(const Options& options, Report* report);

// IVF retrieval with the response cache, open loop, while an in-process
// test-then-learn stream trains and republishes.
void RunServeIvfLive(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
