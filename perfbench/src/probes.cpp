// Per-layer probes of a traced run.  Each probe calls one layer's public
// functions on inputs drawn from the run seed, inside a named span; the
// per-layer metrics are medians over those spans plus the counts the calls
// return.  Which end-to-end metric each should move is mapped in README.md.
#include <map>
#include <optional>

#include "core/api.hpp"
#include "exec/pool.hpp"
#include "flow/electrical.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/backend.hpp"
#include "pools.hpp"
#include "serve_rig.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lc = lapclique;

namespace {

constexpr int kProbeInstances = 3;
constexpr int kFactorSolves = 20;
constexpr int kMatvecs = 200;
constexpr int kSolverSolves = 3;
constexpr int kRouteCalls = 400;
constexpr int kEulerCalls = 5;
constexpr int kElectricalCalls = 20;
constexpr int kServeRepeats = 2;

double med(const Tracer& tr, const char* span) {
  return median(span_ms(std::span<const Tracer>(&tr, 1), span));
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// Mean rounds of `phase` over `runs` (phases use '/', metrics '.').
void add_phase_rounds(Report& r, const std::vector<lc::RunInfo>& runs,
                      const std::string& phase) {
  std::vector<double> v;
  for (const lc::RunInfo& run : runs) {
    const auto it = run.phases.rounds_by_phase.find(phase);
    v.push_back(it == run.phases.rounds_by_phase.end() ? 0.0
                                                       : static_cast<double>(it->second));
  }
  std::string name = "rounds." + phase;
  for (char& c : name) c = c == '/' ? '.' : c;
  r.add(name, mean(v), "rounds/op");
}

/// spectral, linalg, solver and exec, on the solve workload's instances.
void probe_solver(const RunConfig& cfg, Tracer& tr, Report& r) {
  const std::vector<LaplacianInstance> pool = make_solve_pool(cfg.seed, kProbeInstances);
  const lc::Runtime rt1 = bench_runtime(1);
  const lc::Runtime rt2 = bench_runtime(2);
  std::vector<double> edges, fill, matvecs, kappa, iterations;
  std::vector<lc::RunInfo> runs;
  double sink = 0;
  for (const LaplacianInstance& inst : pool) {
    const lc::exec::ThreadScope scope(2);
    std::optional<lc::SparsifyReport> sp;
    {
      const Span s(&tr, "spectral.sparsify");
      sp.emplace(lc::sparsify(inst.g, {}, rt2));
    }
    edges.push_back(sp->h.num_edges());
    const lc::linalg::CsrMatrix lh = lc::graph::laplacian(sp->h);
    std::optional<lc::linalg::BackendLaplacianFactor> factor;
    {
      const Span s(&tr, "linalg.factor");
      factor.emplace(lc::linalg::BackendLaplacianFactor::factor(lh));
    }
    fill.push_back(static_cast<double>(factor->stats().fill_nnz));
    for (int k = 0; k < kFactorSolves; ++k) {
      const Span s(&tr, "linalg.factor_solve");
      sink += factor->solve(inst.b)[0];
    }
    for (int k = 0; k < kMatvecs; ++k) {
      const Span s(&tr, "linalg.matvec");
      sink += inst.lg.multiply(inst.x_exact)[0];
    }
    std::optional<lc::solver::LaplacianSolver> solver;
    {
      const Span s(&tr, "solver.build");
      solver.emplace(inst.g);
    }
    matvecs.push_back(solver->range_matvecs());
    kappa.push_back(solver->kappa());
    for (int k = 0; k < kSolverSolves; ++k) {
      lc::solver::LaplacianSolveStats st;
      const Span s(&tr, "solver.solve");
      sink += solver->solve(inst.b, kEps, &st)[0];
      iterations.push_back(st.chebyshev_iterations);
    }
    {
      const Span s(&tr, "exec.solve_2t");
      runs.push_back(lc::solve_laplacian(inst.g, inst.b, kEps, {}, rt2).run);
    }
    {
      const Span s(&tr, "exec.solve_1t");
      sink += lc::solve_laplacian(inst.g, inst.b, kEps, {}, rt1).x[0];
    }
  }
  r.info.emplace("probe_sink", sink);
  r.add("spectral.sparsify_ms", med(tr, "spectral.sparsify"), "ms");
  r.add("spectral.sparsifier_edges", mean(edges), "edges");
  r.add("linalg.factor_ms", med(tr, "linalg.factor"), "ms");
  r.add("linalg.factor_fill_nnz", mean(fill), "nnz");
  r.add("linalg.factor_solve_us", 1000 * med(tr, "linalg.factor_solve"), "us");
  r.add("linalg.matvec_us", 1000 * med(tr, "linalg.matvec"), "us");
  const double build = med(tr, "solver.build");
  r.add("solver.build_ms", build, "ms");
  r.add("solver.range_ms",
        build - med(tr, "spectral.sparsify") - med(tr, "linalg.factor"), "ms");
  r.add("solver.range_matvecs", mean(matvecs), "count");
  r.add("solver.kappa", mean(kappa), "ratio");
  r.add("solver.solve_ms", med(tr, "solver.solve"), "ms");
  r.add("solver.chebyshev_iterations", mean(iterations), "count");
  for (const char* phase : {"solver/sparsify", "solver/gather_sparsifier",
                            "solver/range_estimation", "solver/chebyshev"}) {
    add_phase_rounds(r, runs, phase);
  }
  r.add("exec.speedup_2t", med(tr, "exec.solve_1t") / med(tr, "exec.solve_2t"),
        "ratio");
}

/// cliquesim: Lenzen routing of a fixed all-to-all batch on n = 32.
void probe_cliquesim(const RunConfig& cfg, Tracer& tr, Report& r) {
  constexpr int kN = kFlowN;
  // Every node sends one word to every other node: load n - 1 each way.
  std::vector<lc::clique::Msg> msgs;
  for (int u = 0; u < kN; ++u) {
    for (int j = 1; j < kN; ++j) {
      msgs.push_back({u, (u + j) % kN, j,
                      lc::clique::Word(static_cast<std::int64_t>(cfg.seed) + u * kN + j)});
    }
  }
  lc::clique::Network net(kN);
  for (int k = 0; k < kRouteCalls; ++k) {
    {
      const Span s(&tr, "cliquesim.lenzen_route");
      net.lenzen_route(msgs);
    }
    for (int v = 0; v < kN; ++v) (void)net.drain_inbox(v);
  }
  r.add("cliquesim.route_us", 1000 * med(tr, "cliquesim.lenzen_route"), "us");
}

/// euler and flow, on the ipm workload's instances.
void probe_flow(const RunConfig& cfg, Tracer& tr, Report& r) {
  const std::vector<FlowInstance> pool = make_flow_pool(cfg.seed, kProbeInstances);
  const lc::Runtime rt1 = bench_runtime(1);
  std::vector<double> iterations, solves;
  std::vector<lc::RunInfo> runs, orientations;
  for (const FlowInstance& inst : pool) {
    {
      const Span s(&tr, "flow.max_flow");
      const lc::flow::MaxFlowIpmReport rep =
          lc::max_flow(inst.g, inst.s, inst.t, ipm_options(inst), rt1);
      iterations.push_back(rep.ipm_iterations);
      solves.push_back(rep.laplacian_solves);
      runs.push_back(rep.run);
    }
    const int n = inst.g.num_vertices();
    lc::graph::Graph und(n);
    std::vector<lc::flow::ElectricalEdge> resistors;
    for (const lc::graph::Arc& a : inst.g.arcs()) {
      und.add_edge(a.from, a.to, 1.0);
      resistors.push_back({a.from, a.to, 1.0});
    }
    const lc::graph::Graph doubled = lc::graph::doubled(und);
    for (int k = 0; k < kEulerCalls; ++k) {
      const Span s(&tr, "euler.orientation");
      lc::RunInfo run = lc::eulerian_orientation(doubled, rt1).run;
      if (k == 0) orientations.push_back(std::move(run));
    }
    // Lemma 4.2 on the Dinic flow halved: a 1/2-granular flow.
    lc::graph::Flow half(inst.oracle.flow.size());
    for (std::size_t a = 0; a < half.size(); ++a) {
      half[a] = static_cast<double>(inst.oracle.flow[a]) / 2.0;
    }
    lc::euler::FlowRoundingOptions ro;
    ro.delta = 0.5;
    for (int k = 0; k < kEulerCalls; ++k) {
      const Span s(&tr, "euler.round_flow");
      (void)lc::round_flow(inst.g, half, inst.s, inst.t, ro, rt1);
    }
    std::vector<double> chi(static_cast<std::size_t>(n), 0.0);
    chi[static_cast<std::size_t>(inst.s)] = 1.0;
    chi[static_cast<std::size_t>(inst.t)] = -1.0;
    for (int k = 0; k < kElectricalCalls; ++k) {
      const Span s(&tr, "flow.electrical");
      const lc::flow::ElectricalSolver es(n, resistors);
      (void)es.potentials(chi);
    }
    const lc::flow::ElectricalSolver es(n, resistors);
    for (int k = 0; k < kEulerCalls; ++k) {
      const Span s(&tr, "flow.calibrate");
      (void)es.calibrate(ipm_options(inst).solve_eps);
    }
  }
  r.add("euler.orientation_ms", med(tr, "euler.orientation"), "ms");
  r.add("euler.round_flow_ms", med(tr, "euler.round_flow"), "ms");
  r.add("flow.ipm_iterations", mean(iterations), "count");
  r.add("flow.laplacian_solves", mean(solves), "count");
  r.add("flow.calibrate_ms", med(tr, "flow.calibrate"), "ms");
  r.add("flow.electrical_us", 1000 * med(tr, "flow.electrical"), "us");
  for (const char* phase : {"maxflow/ipm", "maxflow/calibration", "maxflow/rounding"}) {
    add_phase_rounds(r, runs, phase);
  }
  add_phase_rounds(r, orientations, "euler/orient");
}

/// serve: parse, in-process handle, and the socket round trip on top.
void probe_serve(const RunConfig& cfg, Tracer& tr, Report& r) {
  const ServePool pool = make_serve_pool(cfg.seed);
  ServeRig rig(1);
  for (const std::string& line : pool.load_lines) (void)rig.server.handle(line);
  for (const std::string& line : pool.request_lines) (void)rig.server.handle(line);
  for (int k = 0; k < kServeRepeats; ++k) {
    for (const std::string& line : pool.request_lines) {
      const Span s(&tr, "serve.parse");
      (void)json::parse(line);
    }
  }
  // In-process handle and the same request over the socket, interleaved so
  // both sample the same host conditions.
  const lc::serve::CacheStats before = rig.server.cache_stats();
  for (int k = 0; k < kServeRepeats; ++k) {
    for (const std::string& line : pool.request_lines) {
      {
        const Span s(&tr, "serve.handle");
        (void)rig.server.handle(line);
      }
      const Span s(&tr, "serve.client_call");
      (void)rig.clients[0]->call(line);
    }
  }
  const lc::serve::CacheStats after = rig.server.cache_stats();
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  r.add("serve.parse_us", 1000 * med(tr, "serve.parse"), "us");
  r.add("serve.handle_ms", med(tr, "serve.handle"), "ms");
  r.add("serve.socket_ms", med(tr, "serve.client_call") - med(tr, "serve.handle"), "ms");
  r.add("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
}

}  // namespace

void run_layer_probes(const RunConfig& cfg, Tracer& tracer, Report& r) {
  const Span root(&tracer, "probes");
  {
    const Span s(&tracer, "probe.solver");
    probe_solver(cfg, tracer, r);
  }
  {
    const Span s(&tracer, "probe.cliquesim");
    probe_cliquesim(cfg, tracer, r);
  }
  {
    const Span s(&tracer, "probe.flow");
    probe_flow(cfg, tracer, r);
  }
  {
    const Span s(&tracer, "probe.serve");
    probe_serve(cfg, tracer, r);
  }
}

}  // namespace perfbench
