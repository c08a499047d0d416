// Shared machinery of the perfbench workloads: clocks, quantiles, the
// closed loop, exact per-cycle model counts, and the span tracer that
// times calls into lapclique's public functions from outside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

namespace json = lapclique::obs::json;
using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);
/// Milliseconds elapsed since `t0`.
double ms_since(Clock::time_point t0);

/// Linearly interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Return set-up's freed heap to the OS and restart the peak-RSS count, so
/// peak_rss_mb() covers what set-up left resident plus the timed phase.
void reset_peak_rss();
/// Peak resident set size since reset_peak_rss(), in MiB.
double peak_rss_mb();

/// Median time (ms) of three passes of a fixed dependent floating-point chain
/// that touches no memory: a gauge of the host's single-thread speed, which
/// drifts on shared machines whatever program runs.
double host_reference_ms();

/// The i-th instance seed drawn from the run seed (SplitMix64 stream), so
/// pools of different workloads and sizes never share instances by accident.
std::uint64_t instance_seed(std::uint64_t run_seed, std::uint64_t stream,
                            std::uint64_t i);

// --- tracing ---------------------------------------------------------------

/// One timed call: name, start, end (microseconds since the tracer's epoch)
/// and the index of the enclosing span (-1 for a root).
struct SpanRecord {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
};

/// Spans of one thread, kept in memory until the run ends.  A null Tracer*
/// means tracing is off; Span is then a no-op.  Spans close in LIFO order.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}
  int open(const char* name);
  void close(int id);
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Durations (ms) of every span called `name` across `tracers`.
std::vector<double> span_ms(std::span<const Tracer> tracers, const char* name);
/// Write every span, with its self time (its duration minus the part its
/// children cover), as JSON to `path`.
void write_spans(std::span<const Tracer> tracers, const std::string& path);

// --- exact model counts ----------------------------------------------------

/// Rounds and words per pool slot.  The first op on a slot fixes its counts;
/// every later op on that slot must repeat them exactly.  Per-op figures are
/// means over one whole cycle of the pool, so they do not depend on how many
/// ops fit in a run.
class CycleCounts {
 public:
  explicit CycleCounts(std::size_t slots) : rounds_(slots, -1), words_(slots, -1) {}
  /// False when the slot already holds different counts.
  bool record(std::size_t slot, std::int64_t rounds, std::int64_t words);
  [[nodiscard]] bool complete() const;
  [[nodiscard]] double rounds_per_op() const;
  [[nodiscard]] double words_per_op() const;

 private:
  std::vector<std::int64_t> rounds_;
  std::vector<std::int64_t> words_;
};

// --- the closed loop -------------------------------------------------------

struct OpOutcome {
  double latency_ms = 0;  ///< the call into the program only, not its check
  std::size_t slot = 0;   ///< the pool entry the op ran on
  bool ok = false;
};

/// Op k of client c; `tr` is the client's tracer, or null when this op runs
/// untraced.
using OpFn = std::function<OpOutcome(int client, std::int64_t k, Tracer* tr)>;

struct LoopResult {
  std::vector<double> latency_ms;  ///< untraced timed ops
  std::vector<std::size_t> slots;  ///< the pool entry of each latency_ms sample
  std::int64_t attempted = 0;      ///< warm-up and timed ops, all checked
  std::int64_t failed = 0;
  std::int64_t timed_ops = 0;
  double wall_s = 0;               ///< of the timed phase
  /// Traced runs alternate untraced and traced blocks of `block` ops per
  /// client; these are the ops and seconds spent in each kind of block.
  std::int64_t ops_untraced = 0, ops_traced = 0;
  double s_untraced = 0, s_traced = 0;
};

/// Restarts the peak-RSS count, then `clients` closed-loop clients, each on a
/// thread of its own, issue ops back to back: untimed for a fixed warm-up, then timed until `seconds`
/// have passed and each has issued at least `min_ops` timed ops.  Unless `tracers`
/// is empty (it then holds one per client) every second block of `block`
/// ops is traced.
LoopResult closed_loop(int clients, double seconds, std::int64_t min_ops,
                       std::int64_t block, std::vector<Tracer>& tracers,
                       const OpFn& op);

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload reports: the end-to-end metrics of an untraced run or
/// the per-layer metrics of a traced one, plus a free-form info block.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  json::Object info;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Run settings shared by every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span dump path (traced runs only)
  Clock::time_point epoch = Clock::now();  ///< time zero of every span
};

/// Mean over the pool entries of each entry's fastest untraced timed call.
/// Co-tenants of a shared host slow every call for stretches of seconds to
/// minutes, which moves a run's median by 20-30%; the fastest call per
/// entry sees the program's own cost and moves by a few percent.
double latency_floor_ms(const LoopResult& loop);

/// The end-to-end metrics every workload reports; ops/s and the p50 and p90
/// latencies, too unsteady on a shared host to gate on, go to `r.info`.
void add_end_to_end(Report& r, const std::vector<double>& setup_s,
                    const LoopResult& loop, const CycleCounts& counts);
/// Tracing overhead of a traced loop: traced ops/s over untraced ops/s, and
/// the share of traced op time covered by spans of calls into the program.
void add_trace_overhead(Report& r, const LoopResult& loop,
                        std::span<const Tracer> tracers, const char* call_span);

}  // namespace perfbench
