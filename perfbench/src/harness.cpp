#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "graph/rng.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

void reset_peak_rss() {
  // Without the trim, glibc keeps freed set-up memory resident in whichever
  // per-thread arenas the five set-ups' threads happened to use, and the
  // serve workload's peak moved by up to 40% across runs of one seed.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to the current RSS
  if (!clear.flush()) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {
volatile double reference_sink = 0;  // keeps the chain from being optimised out
}  // namespace

double host_reference_ms() {
  std::vector<double> ms;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point t0 = Clock::now();
    double y = 1.0;
    for (int i = 0; i < 20'000'000; ++i) y = y * 1.0000001 + 1e-9;
    ms.push_back(ms_since(t0));
    reference_sink = y;
  }
  return median(ms);
}

std::uint64_t instance_seed(std::uint64_t run_seed, std::uint64_t stream,
                            std::uint64_t i) {
  lapclique::graph::SplitMix64 rng(run_seed * 0x100000001B3ULL + stream);
  std::uint64_t s = rng.next();
  for (std::uint64_t j = 0; j < i; ++j) s = rng.next();
  return s;
}

// --- tracing ---------------------------------------------------------------

int Tracer::open(const char* name) {
  SpanRecord s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  stack_.pop_back();
}

std::vector<double> span_ms(std::span<const Tracer> tracers, const char* name) {
  std::vector<double> out;
  const std::string want(name);
  for (const Tracer& t : tracers) {
    for (const SpanRecord& s : t.spans()) {
      if (want == s.name) out.push_back((s.end_us - s.start_us) / 1000.0);
    }
  }
  return out;
}

namespace {

std::vector<double> self_us(const Tracer& t) {
  // Children of one span are sequential on its thread, so the time they
  // cover is the sum of their durations.
  const auto& spans = t.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_us - spans[i].start_us;
  }
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
  }
  return self;
}

}  // namespace

void write_spans(std::span<const Tracer> tracers, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"schema\":\"perfbench-spans-v1\",\"threads\":[";
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<double> self = self_us(tracers[t]);
    out << (t ? "," : "") << "[";
    const auto& spans = tracers[t].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      json::Object o;
      o.emplace("name", spans[i].name);
      o.emplace("start_us", spans[i].start_us);
      o.emplace("end_us", spans[i].end_us);
      o.emplace("parent", spans[i].parent);
      o.emplace("self_us", self[i]);
      out << (i ? "," : "") << json::Value(std::move(o)).dump() << "\n";
    }
    out << "]";
  }
  out << "]}\n";
}

// --- exact model counts ----------------------------------------------------

bool CycleCounts::record(std::size_t slot, std::int64_t rounds,
                         std::int64_t words) {
  if (rounds_.at(slot) < 0) {
    rounds_[slot] = rounds;
    words_[slot] = words;
    return true;
  }
  return rounds_[slot] == rounds && words_[slot] == words;
}

bool CycleCounts::complete() const {
  return std::none_of(rounds_.begin(), rounds_.end(),
                      [](std::int64_t r) { return r < 0; });
}

double CycleCounts::rounds_per_op() const {
  return static_cast<double>(std::accumulate(rounds_.begin(), rounds_.end(),
                                             std::int64_t{0})) /
         static_cast<double>(rounds_.size());
}

double CycleCounts::words_per_op() const {
  return static_cast<double>(std::accumulate(words_.begin(), words_.end(),
                                             std::int64_t{0})) /
         static_cast<double>(words_.size());
}

// --- the closed loop -------------------------------------------------------

namespace {

// Untimed ops each client issues after set-up and before the timed phase.
// The first seconds after set-up ran slow (serve: p90 5.7 ms against 2.8 ms
// later) while freed pages faulted back in, so they are not measured.
constexpr double kWarmupSeconds = 3.0;

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

struct ClientTally {
  std::vector<double> latency_ms;
  std::vector<std::size_t> slots;
  std::int64_t attempted = 0, failed = 0;
  std::int64_t ops[2] = {0, 0};
  double secs[2] = {0, 0};
  Clock::time_point start, end;  ///< of this client's timed phase
};

OpOutcome checked_op(const OpFn& op, int c, std::int64_t k, Tracer* tr) {
  try {
    return op(c, k, tr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: op %lld of client %d threw: %s\n",
                 static_cast<long long>(k), c, e.what());
    return {};
  }
}

void run_client(int c, Clock::time_point warm_end, double seconds,
                std::int64_t min_ops, std::int64_t block, Tracer* tracer,
                const OpFn& op, ClientTally& tally) {
  std::int64_t k = 0;
  for (; Clock::now() < warm_end; ++k) {
    ++tally.attempted;
    if (!checked_op(op, c, k, nullptr).ok) ++tally.failed;
  }
  tally.start = Clock::now();
  const Clock::time_point deadline = after(tally.start, seconds);
  for (std::int64_t i = 0; Clock::now() < deadline || i < min_ops; ++i, ++k) {
    const int traced = tracer != nullptr && (i / block) % 2 == 1 ? 1 : 0;
    const Clock::time_point t0 = Clock::now();
    const OpOutcome out = checked_op(op, c, k, traced ? tracer : nullptr);
    tally.secs[traced] += seconds_since(t0);
    ++tally.ops[traced];
    ++tally.attempted;
    if (!out.ok) ++tally.failed;
    if (!traced) {
      tally.latency_ms.push_back(out.latency_ms);
      tally.slots.push_back(out.slot);
    }
  }
  tally.end = Clock::now();
}

}  // namespace

LoopResult closed_loop(int clients, double seconds, std::int64_t min_ops,
                       std::int64_t block, std::vector<Tracer>& tracers,
                       const OpFn& op) {
  reset_peak_rss();
  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  const Clock::time_point warm_end = after(Clock::now(), kWarmupSeconds);
  auto tracer_of = [&](int c) {
    return tracers.empty() ? nullptr : &tracers[static_cast<std::size_t>(c)];
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(run_client, c, warm_end, seconds, min_ops, block,
                         tracer_of(c), std::cref(op),
                         std::ref(tallies[static_cast<std::size_t>(c)]));
  }
  for (std::thread& t : threads) t.join();
  LoopResult r;
  Clock::time_point start = tallies[0].start, end = tallies[0].end;
  for (const ClientTally& t : tallies) {
    start = std::min(start, t.start);
    end = std::max(end, t.end);
    r.latency_ms.insert(r.latency_ms.end(), t.latency_ms.begin(), t.latency_ms.end());
    r.slots.insert(r.slots.end(), t.slots.begin(), t.slots.end());
    r.attempted += t.attempted;
    r.failed += t.failed;
    r.ops_untraced += t.ops[0];
    r.ops_traced += t.ops[1];
    r.s_untraced += t.secs[0];
    r.s_traced += t.secs[1];
  }
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.timed_ops = r.ops_untraced + r.ops_traced;
  return r;
}

// --- results ---------------------------------------------------------------

double latency_floor_ms(const LoopResult& loop) {
  std::map<std::size_t, double> best;
  for (std::size_t i = 0; i < loop.latency_ms.size(); ++i) {
    const auto [it, fresh] = best.emplace(loop.slots[i], loop.latency_ms[i]);
    if (!fresh) it->second = std::min(it->second, loop.latency_ms[i]);
  }
  double sum = 0;
  for (const auto& [slot, ms] : best) sum += ms;
  return best.empty() ? 0.0 : sum / static_cast<double>(best.size());
}

void add_end_to_end(Report& r, const std::vector<double>& setup_s,
                    const LoopResult& loop, const CycleCounts& counts) {
  r.info.emplace("ops_per_s", static_cast<double>(loop.timed_ops) / loop.wall_s);
  r.info.emplace("latency_p50_ms", quantile(loop.latency_ms, 0.5));
  r.info.emplace("latency_p90_ms", quantile(loop.latency_ms, 0.9));
  r.add("setup_s", median(setup_s), "s");
  r.add("latency_floor_ms", latency_floor_ms(loop), "ms");
  r.add("ok_ratio",
        static_cast<double>(loop.attempted - loop.failed) /
            static_cast<double>(loop.attempted),
        "ratio");
  r.add("model_rounds", counts.rounds_per_op(), "rounds/op");
  r.add("model_words", counts.words_per_op(), "words/op");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

void add_trace_overhead(Report& r, const LoopResult& loop,
                        std::span<const Tracer> tracers, const char* call_span) {
  const double untraced = static_cast<double>(loop.ops_untraced) / loop.s_untraced;
  const double traced = static_cast<double>(loop.ops_traced) / loop.s_traced;
  r.add("trace.ops_per_s_ratio", traced / untraced, "ratio");
  const std::vector<double> ops = span_ms(tracers, "op");
  const std::vector<double> calls = span_ms(tracers, call_span);
  const double op_ms = std::accumulate(ops.begin(), ops.end(), 0.0);
  const double call_ms = std::accumulate(calls.begin(), calls.end(), 0.0);
  r.add("trace.span_coverage", op_ms > 0 ? call_ms / op_ms : 0.0, "ratio");
}

}  // namespace perfbench
