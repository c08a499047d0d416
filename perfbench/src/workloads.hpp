// The three workloads and the per-layer probes of a traced run.
#pragma once

#include <string>

#include "harness.hpp"

namespace perfbench {

/// Cold Theorem 1.1 solves (n = 512, m = 2048, eps = 1e-6, threads = 1).
Report run_solve(const RunConfig& cfg);
/// Theorem 1.2 max-flow IPM runs (n = 32, m = 128, U = 4, threads = 1).
Report run_ipm(const RunConfig& cfg);
/// Cached solve requests over two persistent connections to an in-process
/// serve::Frontend (4 resident graphs, n = 256, m = 1024).
Report run_serve(const RunConfig& cfg);

/// Time the calls into each layer's public functions on inputs drawn from
/// the seed, recording spans on `tracer`, and add the per-layer metrics.
void run_layer_probes(const RunConfig& cfg, Tracer& tracer, Report& r);

}  // namespace perfbench
