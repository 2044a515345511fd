// The three benchmark workloads. Each fills `sheet` with its
// end-to-end metrics (untraced run) or its per-layer metrics (traced
// run) plus its correctness checks.
#pragma once

#include "common.h"

namespace bohr::perfbench {

/// §8.1 scale: Iridium-C and Bohr prepare 300 datasets and run every
/// (dataset, type) query once. 1 thread.
void run_paper_scale(const RunArgs& args, Tracer& tracer, ResultSheet& sheet);

/// Bohr at bench scale serving a 16-tenant open-loop Zipf stream.
/// 4 threads.
void run_serve_zipf(const RunArgs& args, Tracer& tracer, ResultSheet& sheet);

/// §8.6 dynamic datasets: appends, flushes and queries every cycle,
/// re-planning every 10th. 1 thread.
void run_ingest_mixed(const RunArgs& args, Tracer& tracer, ResultSheet& sheet);

}  // namespace bohr::perfbench
