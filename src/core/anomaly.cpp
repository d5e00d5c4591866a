#include "core/anomaly.h"

#include <algorithm>

#include "core/edge_scorer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/errors.h"
#include "util/error.h"
#include "util/first_equal.h"
#include "util/thread_pool.h"

namespace desmine::core {

namespace {

constexpr std::uint32_t kNoPair = 0xFFFFFFFFu;

}  // namespace

struct AnomalyDetector::Memos {
  // With pairs: nothing ahead of the detector's memos answers a repeated
  // (candidate, reference) pair, as serve's span memo does for serve.
  explicit Memos(std::size_t edges)
      : edges(edges, DecodeCache(DecodeCache::Pairs::kOn)) {}

  std::vector<DecodeCache> edges;
  MemoGauges gauges{obs::metrics().gauge("detector.memo.entries"),
                    obs::metrics().gauge("detector.memo.bytes")};
};

void validate(const DetectorConfig& config) {
  DESMINE_EXPECTS(config.valid_lo <= config.valid_hi, "valid band order");
  DESMINE_EXPECTS(config.min_coverage >= 0.0 && config.min_coverage <= 1.0,
                  "min_coverage must lie in [0, 1]");
}

std::vector<std::uint8_t> unhealthy_flags(
    const std::vector<std::size_t>& unhealthy, std::size_t sensors) {
  std::vector<std::uint8_t> flags;
  if (!unhealthy.empty()) flags.assign(sensors, 0);
  for (const std::size_t n : unhealthy) {
    DESMINE_EXPECTS(n < sensors,
                    "health mask names a sensor outside the graph");
    flags[n] = 1;
  }
  return flags;
}

WindowVerdict window_verdict(const DetectorConfig& config, std::size_t total,
                             std::size_t surviving, std::size_t broken,
                             bool quorum) {
  WindowVerdict v;
  const double valid = static_cast<double>(total);
  v.coverage = valid == 0.0 ? 0.0 : static_cast<double>(surviving) / valid;
  if (quorum && v.coverage < config.min_coverage) {
    // Below quorum: no verdict. The placeholder 0.0 keeps score series
    // NaN-free; `degraded` tells consumers to ignore it.
    v.degraded = true;
  } else if (surviving > 0) {
    v.anomaly_score =
        static_cast<double>(broken) / static_cast<double>(surviving);
  }
  return v;
}

AnomalyDetector::AnomalyDetector(const MvrGraph& graph, DetectorConfig config)
    : config_(config), names_(graph.sensor_names()) {
  validate(config_);
  for (const MvrEdge& e : graph.edges()) {
    if (in_valid_band(config_, e.bleu)) {
      DESMINE_EXPECTS(e.model != nullptr,
                      "valid edge lacks a trained model");
      valid_edges_.push_back(e);
    }
  }
  vocabs_ = sensor_vocabularies(names_.size(), valid_edges_);
  memos_ = std::make_shared<Memos>(valid_edges_.size());
  if (config_.threads != 1 && valid_edges_.size() > 1) {
    pool_ = std::make_shared<util::ThreadPool>(config_.threads);
  }
}

DetectionResult AnomalyDetector::detect(
    const std::vector<EncodedCorpus>& corpora,
    const DetectOptions& options) const {
  const HealthMask* unhealthy = options.unhealthy;
  DESMINE_EXPECTS(!corpora.empty(), "no test sentences");
  const std::size_t windows = corpora.front().windows.size();
  for (std::size_t k = 0; k < corpora.size(); ++k) {
    if (corpora[k].windows.size() != windows) {
      throw robust::MisalignedCorpus(
          k < names_.size() ? names_[k]
                            : "sensor[" + std::to_string(k) + "]",
          windows, corpora[k].windows.size());
    }
  }
  if (unhealthy != nullptr) {
    DESMINE_EXPECTS(unhealthy->size() == windows,
                    "health mask must hold one entry per window");
  }

  const obs::ScopedTimer detect_timer(
      "detect", {obs::kv("windows", windows),
                 obs::kv("valid_edges", valid_edges_.size())});
  obs::Histogram& edge_ms = obs::metrics().histogram("detector.edge_score_ms");
  obs::Counter& degraded_windows =
      obs::metrics().counter("detect.window.degraded");

  DetectionResult result;
  result.valid_edges = valid_edges_;
  for (MvrEdge& e : result.valid_edges) e.model.reset();
  result.edge_bleu.assign(valid_edges_.size(),
                          std::vector<double>(windows, 0.0));
  result.anomaly_scores.assign(windows, 0.0);
  result.broken_edges.assign(windows, {});
  result.coverage.assign(windows, 0.0);
  result.degraded.assign(windows, 0);

  // Per-window health flags: an edge leaves a window's valid set when
  // either endpoint is unhealthy there.
  std::vector<std::vector<std::uint8_t>> bad;
  if (unhealthy != nullptr && !valid_edges_.empty()) {
    for (const std::vector<std::size_t>& nodes : *unhealthy) {
      bad.push_back(unhealthy_flags(nodes, names_.size()));
    }
  }
  const auto excluded = [&bad](std::size_t t, const MvrEdge& edge) {
    return !bad.empty() && is_excluded(bad[t], edge.src, edge.dst);
  };
  for (const MvrEdge& edge : valid_edges_) {
    DESMINE_EXPECTS(edge.src < corpora.size() && edge.dst < corpora.size(),
                    "edge endpoint missing from test data");
  }
  for (std::size_t k = 0; k < corpora.size(); ++k) {
    const EncodedCorpus& c = corpora[k];
    DESMINE_EXPECTS(vocabulary(k) == nullptr ||
                        std::all_of(c.windows.begin(), c.windows.end(),
                                    [&c](std::uint32_t i) {
                                      return i < c.sentences.size();
                                    }),
                    "window points past its corpus's sentences");
  }

  // Edges are independent units of work: one edge's model and memo are
  // touched by one thread, which decodes on its own thread arena. Each edge
  // scores its distinct (source, reference) pairs over all of its windows
  // in one EdgeScorer call against its memo, so a pair is looked up once
  // per call, not once per window, a sentence decodes once per detector,
  // and a pair whose candidate the memo already held is BLEU-scored once
  // per memo epoch. Excluded (edge, window) pairs are skipped entirely: an
  // unhealthy sensor's sentences are plumbing artifacts, not data worth
  // scoring. The counters count (edge, window) items.
  const EdgeScorer scorer({config_.bleu});
  obs::Counter& edge_windows =
      obs::metrics().counter("detector.edge_windows_scored");
  obs::Counter& decoded = obs::metrics().counter("detector.decoded");
  obs::Counter& memo_hits = obs::metrics().counter("detector.memo.hits");
  obs::Counter& pair_hits = obs::metrics().counter("detector.memo.pair_hits");
  auto score_edge = [&](std::size_t e) {
    const MvrEdge& edge = valid_edges_[e];
    const EncodedCorpus& src = corpora[edge.src];
    const EncodedCorpus& dst = corpora[edge.dst];
    obs::ScopedTimer timer("score-edge", edge_ms);
    std::vector<std::uint32_t> pair(windows, kNoPair);  // window -> pair
    std::vector<const EncodedSentence*> sources, references;
    util::FirstEqual first_window(windows);
    std::size_t scored = 0;
    for (std::size_t t = 0; t < windows; ++t) {
      if (excluded(t, edge)) continue;
      ++scored;
      const std::uint32_t s = src.windows[t];
      const std::uint32_t r = dst.windows[t];
      // The key is the pair itself: equal keys are equal pairs.
      const std::size_t first = first_window.find_or_add(
          std::uint64_t{s} << 32 | r, t, [](std::size_t) { return true; });
      if (first != t) {
        pair[t] = pair[first];
        continue;
      }
      pair[t] = static_cast<std::uint32_t>(sources.size());
      sources.push_back(&src.sentences[s]);
      references.push_back(&dst.sentences[r]);
    }
    if (scored == 0) return;
    const EdgeScorer::Result res =
        scorer.score([&edge] { return edge.model; }, sources, references,
                     &memos_->edges[e]);
    std::size_t hits = 0;
    std::size_t pairs_answered = 0;
    for (std::size_t t = 0; t < windows; ++t) {
      if (pair[t] == kNoPair) continue;
      result.edge_bleu[e][t] = res.bleu[pair[t]];
      hits += res.hit[pair[t]] != EdgeScorer::Result::kDecoded;
      pairs_answered += res.hit[pair[t]] == EdgeScorer::Result::kPair;
    }
    timer.annotate(obs::kv("decoded", res.decoded));
    edge_windows.inc(scored);
    decoded.inc(res.decoded);
    memo_hits.inc(hits);
    pair_hits.inc(pairs_answered);
  };

  if (pool_ == nullptr) {
    for (std::size_t e = 0; e < valid_edges_.size(); ++e) score_edge(e);
  } else {
    pool_->parallel_for(valid_edges_.size(), score_edge);
  }
  std::size_t memo_entries = 0;
  std::size_t memo_bytes = 0;
  for (const DecodeCache& memo : memos_->edges) {
    memo_entries += memo.size() + memo.pairs();
    memo_bytes += memo.bytes();
  }
  memos_->gauges.update(memo_entries, memo_bytes);

  for (std::size_t t = 0; t < windows; ++t) {
    std::size_t surviving = 0;
    std::size_t broken = 0;
    for (std::size_t e = 0; e < valid_edges_.size(); ++e) {
      if (excluded(t, valid_edges_[e])) continue;
      ++surviving;
      if (is_broken(config_, result.edge_bleu[e][t], valid_edges_[e].bleu)) {
        ++broken;
        result.broken_edges[t].push_back(e);
      }
    }
    // A degraded window keeps the broken edges of its surviving (genuinely
    // scored) models for diagnosis.
    const WindowVerdict v = window_verdict(
        config_, valid_edges_.size(), surviving, broken, unhealthy != nullptr);
    result.anomaly_scores[t] = v.anomaly_score;
    result.coverage[t] = v.coverage;
    result.degraded[t] = v.degraded;
    if (v.degraded) degraded_windows.inc();
  }

  obs::metrics().counter("detector.windows_scored").inc(windows);
  DESMINE_LOG_DEBUG("detection pass complete",
                    {obs::kv("windows", windows),
                     obs::kv("valid_edges", valid_edges_.size()),
                     obs::kv("wall_ms", detect_timer.elapsed_ms())});
  return result;
}

}  // namespace desmine::core
