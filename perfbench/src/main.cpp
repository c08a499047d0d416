// perfbench — the lapclique benchmark binary.
//
//   perfbench --workload solve|ipm|serve --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--git-sha SHA] [--source-digest HEX]
//
// Runs one workload in this process and prints two JSON lines: first the
// provenance and run details, last the result line:
//   {"attempted":..,"correct":..,"failed":..,"metrics":{name:{unit,value}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones and the spans are written to --trace-out.  Exit status
// is 0 only when every output passed its check.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

// PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER and PERFBENCH_CXX_FLAGS come from
// perfbench/CMakeLists.txt.

namespace {

using namespace perfbench;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload solve|ipm|serve --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] "
               "[--git-sha SHA] [--source-digest HEX]\n",
               why);
  std::exit(2);
}

json::Value provenance(const RunConfig& cfg, const std::string& git_sha,
                       const std::string& digest) {
  json::Object p;
  p.emplace("build_type", PERFBENCH_BUILD_TYPE);
  p.emplace("compiler", PERFBENCH_COMPILER);
  p.emplace("flags", PERFBENCH_CXX_FLAGS);
  p.emplace("optimised", kOptimised);
  p.emplace("git_sha", git_sha);
  p.emplace("source_digest", digest);
  p.emplace("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  p.emplace("run_seconds", cfg.seconds);
  return {std::move(p)};
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  std::string git_sha = "none";
  std::string digest = "none";
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      trace = std::strcmp(v, "1") == 0 ? 1 : std::strcmp(v, "0") == 0 ? 0 : -1;
    } else if (flag == "--trace-out") {
      cfg.trace_out = v;
    } else if (flag == "--git-sha") {
      git_sha = v;
    } else if (flag == "--source-digest") {
      digest = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || trace < 0 || workload.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (cfg.seconds <= 0) usage("--seconds must be positive");
  cfg.trace = trace == 1;
  if (!kOptimised) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a non-optimised build "
                 "(build type %s, flags %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 3;
  }

  const double host_before = host_reference_ms();
  Report report;
  if (workload == "solve") {
    report = run_solve(cfg);
  } else if (workload == "ipm") {
    report = run_ipm(cfg);
  } else if (workload == "serve") {
    report = run_serve(cfg);
  } else {
    usage(("unknown workload " + workload).c_str());
  }

  const double host_after = host_reference_ms();

  json::Object details;
  details.emplace("provenance", provenance(cfg, git_sha, digest));
  details.emplace("workload", workload);
  details.emplace("seed", static_cast<std::int64_t>(cfg.seed));
  details.emplace("trace", cfg.trace);
  details.emplace("info", json::Value(std::move(report.info)));
  details.emplace("host_reference_ms", json::Value(json::Array{host_before, host_after}));
  std::printf("%s\n", json::Value(std::move(details)).dump().c_str());

  json::Object metrics;
  for (const Metric& m : report.metrics) {
    json::Object o;
    o.emplace("value", m.value);
    o.emplace("unit", m.unit);
    metrics.emplace(m.name, json::Value(std::move(o)));
  }
  json::Object result;
  result.emplace("correct", report.correct);
  result.emplace("attempted", report.attempted);
  result.emplace("failed", report.failed);
  result.emplace("metrics", json::Value(std::move(metrics)));
  std::printf("%s\n", json::Value(std::move(result)).dump().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
