#include "core/mvr_graph.h"

#include <algorithm>
#include <set>

#include "robust/errors.h"
#include "util/error.h"

namespace desmine::core {

SensorVocabularies sensor_vocabularies(std::size_t sensors,
                                       const std::vector<MvrEdge>& edges) {
  SensorVocabularies out(sensors);
  const auto bind = [&out](std::size_t sensor, const text::Vocabulary& vocab,
                           const MvrEdge& e) {
    DESMINE_EXPECTS(sensor < out.size(), "edge endpoint out of range");
    if (out[sensor] == nullptr) {
      out[sensor] = std::make_shared<const text::Vocabulary>(vocab);
    } else if (*out[sensor] != vocab) {
      throw robust::VocabularyMismatch(sensor, e.src, e.dst);
    }
  };
  for (const MvrEdge& e : edges) {
    if (e.model == nullptr) continue;
    bind(e.src, e.model->src_vocab(), e);
    bind(e.dst, e.model->tgt_vocab(), e);
  }
  return out;
}

MvrGraph::MvrGraph(std::vector<std::string> sensor_names)
    : names_(std::move(sensor_names)) {}

void MvrGraph::add_edge(MvrEdge edge) {
  DESMINE_EXPECTS(edge.src < names_.size() && edge.dst < names_.size(),
                  "edge endpoint out of range");
  DESMINE_EXPECTS(edge.src != edge.dst, "self-translation edges not allowed");
  edges_.push_back(std::move(edge));
}

void MvrGraph::add_failure(PairFailure failure) {
  DESMINE_EXPECTS(failure.src < names_.size() && failure.dst < names_.size(),
                  "failure endpoint out of range");
  DESMINE_EXPECTS(failure.src != failure.dst,
                  "self-translation pairs not allowed");
  failures_.push_back(std::move(failure));
}

const std::string& MvrGraph::name(std::size_t node) const {
  DESMINE_EXPECTS(node < names_.size(), "node out of range");
  return names_[node];
}

std::vector<std::size_t> MvrGraph::active_sensors() const {
  std::set<std::size_t> active;
  for (const MvrEdge& e : edges_) {
    active.insert(e.src);
    active.insert(e.dst);
  }
  return {active.begin(), active.end()};
}

std::vector<std::size_t> MvrGraph::in_degrees() const {
  std::vector<std::size_t> deg(names_.size(), 0);
  for (const MvrEdge& e : edges_) ++deg[e.dst];
  return deg;
}

std::vector<std::size_t> MvrGraph::out_degrees() const {
  std::vector<std::size_t> deg(names_.size(), 0);
  for (const MvrEdge& e : edges_) ++deg[e.src];
  return deg;
}

std::vector<std::size_t> MvrGraph::popular_sensors(
    std::size_t min_in_degree) const {
  const std::vector<std::size_t> deg = in_degrees();
  std::vector<std::size_t> popular;
  for (std::size_t v = 0; v < deg.size(); ++v) {
    if (deg[v] >= min_in_degree) popular.push_back(v);
  }
  return popular;
}

MvrGraph MvrGraph::filter_bleu(double lo, double hi) const {
  MvrGraph out(names_);
  out.failures_ = failures_;
  for (const MvrEdge& e : edges_) {
    if (e.bleu >= lo && e.bleu < hi) out.edges_.push_back(e);
  }
  return out;
}

MvrGraph MvrGraph::without_sensors(
    const std::vector<std::size_t>& nodes) const {
  const std::set<std::size_t> removed(nodes.begin(), nodes.end());
  MvrGraph out(names_);
  out.failures_ = failures_;
  for (const MvrEdge& e : edges_) {
    if (removed.count(e.src) == 0 && removed.count(e.dst) == 0) {
      out.edges_.push_back(e);
    }
  }
  return out;
}

graph::Digraph MvrGraph::to_digraph() const {
  graph::Digraph g(names_.size());
  for (const MvrEdge& e : edges_) g.add_edge(e.src, e.dst, e.bleu);
  return g;
}

std::string MvrGraph::to_dot() const { return to_digraph().to_dot(names_); }

}  // namespace desmine::core
