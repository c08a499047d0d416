// FlowRounding (Algorithm 1, [Coh95]) in the congested clique (Lemma 4.2):
// rounds a Delta-granular fractional flow to an integral one, never
// decreasing the flow value, and — when a cost function is supplied — never
// increasing the cost.  Runs log(1/Delta) Eulerian-orientation phases, i.e.
// O(log n log* n log(1/Delta)) model rounds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cliquesim/network.hpp"
#include "graph/digraph.hpp"

namespace lapclique::euler {

struct FlowRoundingOptions {
  /// 1/Delta must be a power of two; flow values must be integer multiples
  /// of Delta (values are snapped to the Delta grid first; the snap must
  /// move no value by more than snap_tolerance or the call throws).
  double delta = 1.0 / (1 << 20);
  double snap_tolerance = 1e-6;
  bool use_costs = false;  ///< apply the cost-aware traversal rule
};

struct FlowRoundingResult {
  graph::Flow flow;       ///< integral per-arc flow
  std::int64_t rounds = 0;
  int phases = 0;
};

/// Rounds `f` on digraph `g` with respect to source s / sink t.
FlowRoundingResult round_flow(const graph::Digraph& g, const graph::Flow& f,
                              int s, int t, clique::Network& net,
                              const FlowRoundingOptions& opt = {});

/// round_flow on a graph with vertices beyond the clique's nodes (the IPMs'
/// transformed and bipartite graphs): each virtual vertex is simulated by a
/// real node, so the rounding runs on a lifted network of g's size with
/// `net`'s routing mode and Lenzen constant, and its rounds and words are
/// charged to `net` as one operation.  The lifted network has no tracer.
FlowRoundingResult round_flow_lifted(const graph::Digraph& g, const graph::Flow& f,
                                     int s, int t, clique::Network& net,
                                     const FlowRoundingOptions& opt);

}  // namespace lapclique::euler
