// Output digests of the flow layer (Theorems 1.2 and 1.3, and the
// approximate max flow).
//
// The golden tests pin round totals; these pin everything a flow run
// reports: the flows, value/cost, the IPM counters, the calibrated
// per-solve charge, run.rounds/words, the phase ledger, the numerics record
// and the attached RoundLedger's trace JSON, hashed and compared with
// constants recorded from the implementation.  Two further cases pin the
// exact bytes of a max-flow and a min-cost checkpoint snapshot.  A refactor
// of src/flow or src/ckpt that moves a single bit, round, word or trace
// byte fails here.  Every case runs at threads {1, 8}.
//
// The trace JSON is digested apart from the outputs and compared only when
// the tracing hooks are compiled in (-DLAPCLIQUE_TRACE=0 removes the spans).
// The checkpoint runs attach no tracer, so their bytes hold under both builds.
//
// The instances carry explicit seeds, routing mode and numerics backend, so
// the environment legs (LAPCLIQUE_THREADS / ROUTING / NUMERICS / TEST_SEED)
// cannot move them.
//
// Re-recording is a deliberate act: only a change that is MEANT to alter
// flow outputs or accounting may update these constants, and it must say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "obs/round_ledger.hpp"

namespace lapclique {
namespace {

/// FNV-1a over a stream of typed fields.
class Hasher {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 1099511628211ULL;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  template <typename T>
  void ints(const std::vector<T>& v) {
    i64(static_cast<std::int64_t>(v.size()));
    for (const T x : v) i64(static_cast<std::int64_t>(x));
  }
  void f64s(const std::vector<double>& v) {
    i64(static_cast<std::int64_t>(v.size()));
    for (const double x : v) f64(x);
  }
  void run(const RunInfo& r) {
    i64(r.rounds);
    i64(r.words);
    for (const auto& [phase, rounds] : r.phases.rounds_by_phase) {
      str(phase);
      i64(rounds);
    }
    i64(r.used_fallback ? 1 : 0);
    str(r.fallback_reason);
    str(r.numerics);
    i64(r.factor_fill);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

void expect_digest(std::uint64_t got, std::uint64_t want, const std::string& what) {
  EXPECT_EQ(got, want) << what << " got " << hex(got);
}

/// A run's outputs and accounting, and (separately) its trace JSON.
struct Digest {
  std::uint64_t outputs = 0;
  std::uint64_t trace = 0;
};

Digest digest(const Hasher& outputs, const obs::RoundLedger& ledger) {
  Hasher trace;
  trace.str(ledger.to_json().dump());
  return {outputs.value(), trace.value()};
}

void expect_digest(const Digest& got, const Digest& want, const std::string& what) {
  expect_digest(got.outputs, want.outputs, what + " outputs");
#if LAPCLIQUE_TRACE
  expect_digest(got.trace, want.trace, what + " trace");
#endif
}

Runtime runtime_at(int threads, obs::RoundLedger* trace,
                   fault::FaultPlan* plan = nullptr) {
  Runtime rt;
  rt.threads = threads;
  rt.trace = trace;
  rt.faults = plan;
  rt.routing_mode = clique::RoutingMode::kCharged;
  rt.numerics = linalg::Backend::kAuto;
  return rt;
}

constexpr int kThreads[] = {1, 8};

Digest max_flow_digest(const flow::MaxFlowIpmReport& rep,
                              const obs::RoundLedger& ledger) {
  Hasher h;
  h.ints(rep.flow);
  h.i64(rep.value);
  h.i64(rep.ipm_iterations);
  h.i64(rep.augmentation_steps);
  h.i64(rep.boosting_steps);
  h.i64(rep.laplacian_solves);
  h.i64(rep.finishing_augmenting_paths);
  h.i64(rep.rounding_phases);
  h.i64(rep.rounds_per_solve);
  h.f64(rep.routed_fraction);
  h.run(rep.run);
  return digest(h, ledger);
}

Digest min_cost_digest(const flow::MinCostIpmReport& rep,
                              const obs::RoundLedger& ledger) {
  Hasher h;
  h.ints(rep.flow);
  h.i64(rep.feasible ? 1 : 0);
  h.i64(rep.cost);
  h.i64(rep.ipm_iterations);
  h.i64(rep.perturbations);
  h.i64(rep.laplacian_solves);
  h.i64(rep.finishing_paths);
  h.i64(rep.negative_cycles_cancelled);
  h.i64(rep.rounding_phases);
  h.i64(rep.rounds_per_solve);
  h.run(rep.run);
  return digest(h, ledger);
}

// The ModelDifferential instances (tests/test_model_differential.cpp).
Digraph max_flow_instance() { return graph::random_flow_network(12, 30, 5, 25); }

flow::MaxFlowIpmOptions max_flow_options() {
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 300;
  return opt;
}

Digraph min_cost_instance() { return graph::random_unit_cost_digraph(10, 40, 6, 26); }

flow::MinCostIpmOptions min_cost_options() {
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 40;
  return opt;
}

TEST(FlowDigest, MaxFlow) {
  const Digest want = {0x44776ffb9b61cb9cULL, 0x320072b689d96189ULL};
  const Digraph g = max_flow_instance();
  for (const int t : kThreads) {
    obs::RoundLedger ledger;
    const auto rep = max_flow(g, 0, 11, max_flow_options(), runtime_at(t, &ledger));
    expect_digest(max_flow_digest(rep, ledger), want, "threads=" + std::to_string(t));
  }
}

TEST(FlowDigest, MinCostFlow) {
  const Digest want = {0x87d9d53072cceea8ULL, 0xb4b63f3527d5db1cULL};
  const Digraph g = min_cost_instance();
  const auto sigma = graph::feasible_unit_demands(g, 3, 27);
  for (const int t : kThreads) {
    obs::RoundLedger ledger;
    const auto rep = min_cost_flow(g, sigma, min_cost_options(), runtime_at(t, &ledger));
    expect_digest(min_cost_digest(rep, ledger), want, "threads=" + std::to_string(t));
  }
}

TEST(FlowDigest, ApproxMaxFlow) {
  const Digest want = {0x23874c861056d61eULL, 0x8810fa8a1d4dde4fULL};
  const Graph g = graph::random_connected_gnm(12, 36, 29);
  flow::ApproxMaxFlowOptions opt;
  opt.eps = 0.2;
  opt.iteration_scale = 0.3;
  for (const int t : kThreads) {
    obs::RoundLedger ledger;
    const auto rep = approx_max_flow(g, 0, 11, opt, runtime_at(t, &ledger));
    Hasher h;
    h.f64s(rep.flow);
    h.f64(rep.value);
    h.i64(rep.iterations);
    h.i64(rep.probes);
    h.i64(rep.rounds_per_solve);
    h.run(rep.run);
    expect_digest(digest(h, ledger), want, "threads=" + std::to_string(t));
  }
}

// Every IPM solve through the full Theorem 1.1 pipeline, charged as measured.
TEST(FlowDigest, SparsifiedMaxFlow) {
  const Digest want = {0x02ca09538601cad4ULL, 0x9fa922e4f80d9899ULL};
  Digraph g(4);
  g.add_arc(0, 1, 2);
  g.add_arc(1, 3, 2);
  g.add_arc(0, 2, 1);
  g.add_arc(2, 3, 1);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 12;
  opt.electrical_mode = flow::ElectricalMode::kSparsified;
  for (const int t : kThreads) {
    obs::RoundLedger ledger;
    const auto rep = max_flow(g, 0, 3, opt, runtime_at(t, &ledger));
    EXPECT_EQ(rep.value, 3);
    expect_digest(max_flow_digest(rep, ledger), want, "threads=" + std::to_string(t));
  }
}

// The ipm-nan drill poisons the IPM state: both IPMs degrade to their exact
// sequential baselines.
TEST(FlowDigest, DivergenceFallbacks) {
  const Digest want_max = {0x4e54848fdbc0032cULL, 0x53a60684760dc9b0ULL};
  const Digest want_min = {0x2ecc88f98d42e461ULL, 0x3843465f8229be91ULL};
  const Digraph mg = max_flow_instance();
  const Digraph cg = min_cost_instance();
  const auto sigma = graph::feasible_unit_demands(cg, 3, 27);
  for (const int t : kThreads) {
    fault::FaultPlan mplan(fault::parse_fault_spec("ipm-nan@2"), 7);
    obs::RoundLedger mledger;
    const auto mrep =
        max_flow(mg, 0, 11, max_flow_options(), runtime_at(t, &mledger, &mplan));
    EXPECT_TRUE(mrep.run.used_fallback);
    expect_digest(max_flow_digest(mrep, mledger), want_max,
                  "max_flow threads=" + std::to_string(t));

    fault::FaultPlan cplan(fault::parse_fault_spec("ipm-nan@2"), 7);
    obs::RoundLedger cledger;
    const auto crep =
        min_cost_flow(cg, sigma, min_cost_options(), runtime_at(t, &cledger, &cplan));
    EXPECT_TRUE(crep.run.used_fallback);
    expect_digest(min_cost_digest(crep, cledger), want_min,
                  "min_cost_flow threads=" + std::to_string(t));
  }
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  Hasher h;
  h.str(bytes);
  return h.value();
}

// The last snapshot a checkpointed run commits.  The container records the
// writer's thread count, so each thread count has its own constant.
TEST(FlowDigest, CheckpointSnapshots) {
  const Digraph mg = max_flow_instance();
  const Digraph cg = min_cost_instance();
  const auto sigma = graph::feasible_unit_demands(cg, 3, 27);
  const std::uint64_t want_max[] = {0xb6bde31d55f7523fULL, 0x5b5091b98e585befULL};
  const std::uint64_t want_min[] = {0xea1d90c64ba5f017ULL, 0xf23f2480a1f1734bULL};
  for (int i = 0; i < 2; ++i) {
    const int t = kThreads[i];
    Runtime mrt = runtime_at(t, nullptr);
    mrt.checkpoint_path = ::testing::TempDir() + "lapclique_flow_digest_mf.ckpt";
    (void)max_flow(mg, 0, 11, max_flow_options(), mrt);
    expect_digest(file_digest(mrt.checkpoint_path), want_max[i],
                  "max_flow threads=" + std::to_string(t));

    Runtime crt = runtime_at(t, nullptr);
    crt.checkpoint_path = ::testing::TempDir() + "lapclique_flow_digest_mc.ckpt";
    (void)min_cost_flow(cg, sigma, min_cost_options(), crt);
    expect_digest(file_digest(crt.checkpoint_path), want_min[i],
                  "min_cost_flow threads=" + std::to_string(t));
  }
}

}  // namespace
}  // namespace lapclique
