#include "workloads.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/api.hpp"
#include "pools.hpp"
#include "serve_rig.hpp"

namespace perfbench {

namespace lc = lapclique;

namespace {

constexpr int kSolvePool = 8;
// One thread: at 2 the solve took no less time (exec.speedup_2t about 0.9)
// and each op waited on two vCPUs of a shared host instead of one, so more
// of them ran slow.
constexpr int kSolveThreads = 1;
constexpr int kFlowPool = 8;
constexpr int kServeClients = 2;
constexpr std::int64_t kMinSamples = 100;  // p90 then has >= 10 beyond it
// Set-ups per run; setup_s is their median, since one set-up lasts under 2 s
// and a single timing of it moved by 20% between runs.
constexpr int kSetups = 5;

/// Run `setup` kSetups times, timing each; the last state survives.
template <typename State, typename Setup>
std::unique_ptr<State> repeat_setup(std::vector<double>& secs, Setup&& setup) {
  std::unique_ptr<State> state;
  for (int rep = 0; rep < kSetups; ++rep) {
    state.reset();  // tear the previous state down outside the timer
    const Clock::time_point t0 = Clock::now();
    state = setup();
    secs.push_back(seconds_since(t0));
  }
  return state;
}

/// Common tail of every workload: correctness verdict, then the end-to-end
/// metrics (untraced run) or tracing overhead plus layer probes (traced).
/// `tracers` holds the loop's tracers; the probes' tracer joins them.
Report finish(const RunConfig& cfg, const LoopResult& loop,
              const std::vector<double>& setup_s, const CycleCounts& counts,
              bool setup_ok, std::vector<Tracer>& tracers, const char* call_span,
              int pool_size) {
  Report r;
  r.attempted = loop.attempted;
  r.failed = loop.failed;
  r.correct = setup_ok && loop.failed == 0 && counts.complete();
  r.info.emplace("pool_size", pool_size);
  r.info.emplace("latency_samples", static_cast<std::int64_t>(loop.latency_ms.size()));
  r.info.emplace("timed_s", loop.wall_s);
  r.info.emplace("setup_s_each", json::Value(json::Array(setup_s.begin(), setup_s.end())));
  r.info.emplace("model_rounds_per_op", counts.rounds_per_op());
  r.info.emplace("model_words_per_op", counts.words_per_op());
  if (!cfg.trace) {
    add_end_to_end(r, setup_s, loop, counts);
    return r;
  }
  add_trace_overhead(r, loop, tracers, call_span);
  run_layer_probes(cfg, tracers.emplace_back(cfg.epoch), r);
  if (!cfg.trace_out.empty()) write_spans(tracers, cfg.trace_out);
  return r;
}

/// One tracer per client in a traced run, none otherwise.
std::vector<Tracer> loop_tracers(const RunConfig& cfg, int clients) {
  return std::vector<Tracer>(cfg.trace ? static_cast<std::size_t>(clients) : 0,
                             Tracer(cfg.epoch));
}

}  // namespace

// --- solve -------------------------------------------------------------------

Report run_solve(const RunConfig& cfg) {
  struct State {
    std::vector<LaplacianInstance> pool;
    CycleCounts counts{kSolvePool};
    bool ok = true;
  };
  const lc::Runtime rt = bench_runtime(kSolveThreads);
  auto op = [&rt](State& s, std::size_t i, Tracer* tr) {
    const Span span(tr, "op");
    const LaplacianInstance& inst = s.pool[i];
    OpOutcome out;
    out.slot = i;
    lc::solver::CliqueSolveReport rep;
    {
      const Span call(tr, "call.solve_laplacian");
      const Clock::time_point t0 = Clock::now();
      rep = lc::solve_laplacian(inst.g, inst.b, kEps, {}, rt);
      out.latency_ms = ms_since(t0);
    }
    const Span check(tr, "check");
    out.ok = corollary_2_3_holds(inst, rep.x, kEps) &&
             s.counts.record(i, rep.run.rounds, rep.run.words);
    return out;
  };

  std::vector<double> setup_s;
  auto state = repeat_setup<State>(setup_s, [&] {
    auto s = std::make_unique<State>();
    s->pool = make_solve_pool(cfg.seed, kSolvePool);
    for (std::size_t i = 0; i < s->pool.size(); ++i) s->ok &= op(*s, i, nullptr).ok;
    return s;
  });

  std::vector<Tracer> tracers = loop_tracers(cfg, 1);
  const LoopResult loop = closed_loop(
      1, cfg.seconds, std::max<std::int64_t>(kMinSamples, kSolvePool), kSolvePool, tracers,
      [&](int, std::int64_t k, Tracer* tr) {
        return op(*state, static_cast<std::size_t>(k % kSolvePool), tr);
      });
  Report r = finish(cfg, loop, setup_s, state->counts, state->ok, tracers,
                    "call.solve_laplacian", kSolvePool);
  r.info.emplace("pool_digest", pool_digest(state->pool));
  return r;
}

// --- ipm ---------------------------------------------------------------------

Report run_ipm(const RunConfig& cfg) {
  struct State {
    std::vector<FlowInstance> pool;
    CycleCounts counts{kFlowPool};
    bool ok = true;
  };
  const lc::Runtime rt = bench_runtime(1);
  auto op = [&rt](State& s, std::size_t i, Tracer* tr) {
    const Span span(tr, "op");
    const FlowInstance& inst = s.pool[i];
    OpOutcome out;
    out.slot = i;
    lc::flow::MaxFlowIpmReport rep;
    {
      const Span call(tr, "call.max_flow");
      const Clock::time_point t0 = Clock::now();
      rep = lc::max_flow(inst.g, inst.s, inst.t, ipm_options(inst), rt);
      out.latency_ms = ms_since(t0);
    }
    const Span check(tr, "check");
    out.ok = max_flow_correct(inst, rep) &&
             s.counts.record(i, rep.run.rounds, rep.run.words);
    return out;
  };

  std::vector<double> setup_s;
  auto state = repeat_setup<State>(setup_s, [&] {
    auto s = std::make_unique<State>();
    s->pool = make_flow_pool(cfg.seed, kFlowPool);
    for (std::size_t i = 0; i < s->pool.size(); ++i) s->ok &= op(*s, i, nullptr).ok;
    return s;
  });

  std::vector<Tracer> tracers = loop_tracers(cfg, 1);
  const LoopResult loop = closed_loop(
      1, cfg.seconds, std::max<std::int64_t>(kMinSamples, kFlowPool), kFlowPool, tracers,
      [&](int, std::int64_t k, Tracer* tr) {
        return op(*state, static_cast<std::size_t>(k % kFlowPool), tr);
      });
  Report r = finish(cfg, loop, setup_s, state->counts, state->ok, tracers,
                    "call.max_flow", kFlowPool);
  r.info.emplace("pool_digest", pool_digest(state->pool));
  return r;
}

// --- serve -------------------------------------------------------------------

namespace {

bool response_ok(const json::Value& resp) {
  return resp.contains("ok") && resp.at("ok").as_bool();
}

/// hits and misses reported by the cache.stats op.
std::pair<std::int64_t, std::int64_t> cache_hits_misses(lc::serve::Client& c) {
  const json::Value resp = json::parse(c.call(R"({"op":"cache.stats","id":"stats"})"));
  if (!response_ok(resp)) throw std::runtime_error("cache.stats failed");
  const json::Value& res = resp.at("result");
  return {res.at("hits").as_int(), res.at("misses").as_int()};
}

}  // namespace

Report run_serve(const RunConfig& cfg) {
  constexpr int kRequests = kServeGraphs * kServeRhs;
  struct State {
    std::vector<LaplacianInstance> pool;  // request j = graph j / kServeRhs
    std::vector<std::string> lines;
    CycleCounts counts{kRequests};
    std::unique_ptr<ServeRig> rig;
    bool ok = true;
  };
  auto op = [](State& s, int client, std::size_t j, Tracer* tr) {
    const Span span(tr, "op");
    OpOutcome out;
    out.slot = j;
    std::string body;
    {
      const Span call(tr, "call.client");
      const Clock::time_point t0 = Clock::now();
      body = s.rig->clients[static_cast<std::size_t>(client)]->call(s.lines[j]);
      out.latency_ms = ms_since(t0);
    }
    const Span check(tr, "check");
    const json::Value resp = json::parse(body);
    if (!response_ok(resp)) return out;
    std::vector<double> x;
    for (const json::Value& v : resp.at("result").at("x").as_array()) {
      x.push_back(v.as_double());
    }
    const json::Value& run = resp.at("run");
    out.ok = corollary_2_3_holds(s.pool[j], x, kEps) &&
             s.counts.record(j, run.at("rounds").as_int(), run.at("words").as_int());
    return out;
  };

  std::vector<double> setup_s;
  auto state = repeat_setup<State>(setup_s, [&] {
    auto s = std::make_unique<State>();
    s->rig = std::make_unique<ServeRig>(kServeClients);
    ServePool pool = make_serve_pool(cfg.seed);
    for (const std::string& line : pool.load_lines) {
      s->ok &= response_ok(json::parse(s->rig->clients[0]->call(line)));
    }
    s->pool = std::move(pool.requests);
    s->lines = std::move(pool.request_lines);
    // Prime every artifact (one construction per graph), then warm every
    // request on the connection that will send it in the timed phase.
    for (std::size_t j = 0; j < s->lines.size(); j += kServeRhs) {
      s->ok &= op(*s, 0, j, nullptr).ok;
    }
    for (std::size_t j = 0; j < s->lines.size(); ++j) {
      s->ok &= op(*s, static_cast<int>(j % kServeClients), j, nullptr).ok;
    }
    return s;
  });

  const auto [hits0, misses0] = cache_hits_misses(*state->rig->clients[0]);
  std::vector<Tracer> tracers = loop_tracers(cfg, kServeClients);
  constexpr std::int64_t kPerClient = kRequests / kServeClients;
  const LoopResult loop = closed_loop(
      kServeClients, cfg.seconds,
      std::max<std::int64_t>(kMinSamples / kServeClients, kPerClient), kPerClient, tracers,
      [&](int c, std::int64_t k, Tracer* tr) {
        // Client c owns requests c, c + 2, c + 4, ...: it cycles its half of
        // the pool in a fixed order.
        const auto j = static_cast<std::size_t>((k * kServeClients + c) % kRequests);
        return op(*state, c, j, tr);
      });
  const auto [hits1, misses1] = cache_hits_misses(*state->rig->clients[0]);
  const bool all_hits = misses1 == misses0 && hits1 - hits0 == loop.attempted;
  if (!all_hits) {
    std::fprintf(stderr, "perfbench: serve timed phase saw %lld misses, %lld hits for %lld requests\n",
                 static_cast<long long>(misses1 - misses0),
                 static_cast<long long>(hits1 - hits0),
                 static_cast<long long>(loop.attempted));
  }
  Report r = finish(cfg, loop, setup_s, state->counts, state->ok && all_hits, tracers,
                    "call.client", kRequests);
  r.info.emplace("pool_digest", pool_digest(state->pool));
  r.info.emplace("timed_cache_misses", misses1 - misses0);
  return r;
}

}  // namespace perfbench
