// Multivariate relationship graph (MVRG) — the output of Algorithm 1.
//
// Nodes are kept sensors; two directed edges connect every trained pair,
// weighted by the dev-set BLEU score s(i,j) and carrying the trained NMT
// model g(i,j). Global subgraphs keep only edges whose BLEU falls in a
// score band; local subgraphs additionally remove "popular" nodes (high
// in-degree). Node indices are stable across all derived subgraphs so edge
// identities survive filtering.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "nmt/translation.h"

namespace desmine::core {

struct MvrEdge {
  std::size_t src = 0;
  std::size_t dst = 0;
  double bleu = 0.0;  ///< s(src, dst) on the development set
  double runtime_seconds = 0.0;  ///< train+score wall time (Fig. 4a)
  /// The trained directional model g(src, dst); shared between a graph and
  /// its subgraphs. May be null in stats-only graphs.
  std::shared_ptr<nmt::TranslationModel> model;
};

/// Sensor k's vocabulary (graph node indexing): the one vocabulary every
/// edge model out of k (as source) and into k (as target) is trained on.
/// Null for a sensor no model edge touches.
using SensorVocabularies = std::vector<std::shared_ptr<const text::Vocabulary>>;

/// Read the per-sensor vocabularies off the models of `edges` (endpoints
/// below `sensors`; model-less edges are skipped). Throws
/// robust::VocabularyMismatch naming the first edge whose source or target
/// vocabulary differs from an earlier edge's vocabulary of that sensor.
SensorVocabularies sensor_vocabularies(std::size_t sensors,
                                       const std::vector<MvrEdge>& edges);

/// A pair whose model could not be trained (diverged, timed out, crashed).
/// The edge is absent from the graph; the reason is kept so a partial MVRG
/// is honest about what it is missing instead of silently thinner.
struct PairFailure {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::string reason;
  std::uint32_t attempts = 0;  ///< training attempts made before giving up
};

class MvrGraph {
 public:
  MvrGraph() = default;
  explicit MvrGraph(std::vector<std::string> sensor_names);

  void add_edge(MvrEdge edge);

  /// Record a pair the miner permanently failed to train (fault isolation).
  void add_failure(PairFailure failure);

  std::size_t sensor_count() const { return names_.size(); }
  const std::vector<std::string>& sensor_names() const { return names_; }
  const std::string& name(std::size_t node) const;
  const std::vector<MvrEdge>& edges() const { return edges_; }
  /// Pairs with no edge because training permanently failed. Subgraph
  /// filters preserve these records (they are metadata, not edges).
  const std::vector<PairFailure>& failures() const { return failures_; }

  /// Nodes that have at least one incident edge (the paper deletes edgeless
  /// nodes from a subgraph; we report them as inactive instead so indices
  /// stay stable).
  std::vector<std::size_t> active_sensors() const;

  std::vector<std::size_t> in_degrees() const;
  std::vector<std::size_t> out_degrees() const;

  /// "Popular" sensors: in-degree >= threshold (paper: 100 at full scale).
  std::vector<std::size_t> popular_sensors(std::size_t min_in_degree) const;

  /// Global subgraph: keep edges with bleu in [lo, hi).
  MvrGraph filter_bleu(double lo, double hi) const;

  /// Local subgraph: drop all edges incident to the given nodes.
  MvrGraph without_sensors(const std::vector<std::size_t>& nodes) const;

  /// Structure-only view for component/community analysis (edge weight =
  /// BLEU score).
  graph::Digraph to_digraph() const;

  /// Graphviz DOT with sensor names as labels.
  std::string to_dot() const;

 private:
  std::vector<std::string> names_;
  std::vector<MvrEdge> edges_;
  std::vector<PairFailure> failures_;
};

}  // namespace desmine::core
