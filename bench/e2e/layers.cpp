#include "layers.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <set>
#include <thread>

#include "core/window_assembler.h"
#include "io/artifact_map.h"
#include "io/serialize.h"
#include "nmt/translation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/matrix.h"
#include "text/bleu.h"

namespace desmine::e2e {

namespace {

constexpr std::size_t kAssembleTicks = 4800;  // 20 plant days
constexpr std::size_t kBlocks = 25;           // timed blocks per probe
constexpr std::size_t kDevSentences = kDevDays * kMinutesPerDay / kWindowStride;
constexpr std::size_t kTrainSteps = 60;

void add(std::vector<Metric>* out, std::string name, double value,
         std::string unit) {
  out->push_back({std::move(name), value, std::move(unit)});
}

/// Run fn(w) for every worker w in [0, kWorkers) at once (w = 0 on this
/// thread) and rethrow the first failure after all have joined.
template <typename F>
void on_workers(F&& fn) {
  std::vector<std::exception_ptr> errors(kWorkers);
  const auto run = [&](std::size_t w) {
    try {
      fn(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  std::vector<std::thread> others;
  for (std::size_t w = 1; w < kWorkers; ++w) others.emplace_back(run, w);
  run(0);
  for (std::thread& t : others) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Median wall seconds of `reps` calls of `fn`.
template <typename F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    walls.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(walls));
}

/// Median seconds of kBlocks timed calls of `block(b)`.
template <typename F>
double median_block_seconds(F&& block) {
  std::vector<double> s;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const auto t0 = Clock::now();
    block(b);
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(s));
}

/// Median seconds of kBlocks timed calls of `block(w, b)` on every worker w
/// at once.
template <typename F>
double parallel_median_block_seconds(F&& block) {
  std::vector<std::vector<double>> s(kWorkers);
  on_workers([&](std::size_t w) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const auto t0 = Clock::now();
      block(w, b);
      s[w].push_back(seconds_between(t0, Clock::now()));
    }
  });
  std::vector<double> all;
  for (const std::vector<double>& w : s) all.insert(all.end(), w.begin(), w.end());
  return median(std::move(all));
}

/// A random edge among those of worker w (index w mod kWorkers), so
/// concurrent workers never share a model.
const core::MvrEdge* sample_edge(const std::vector<const core::MvrEdge*>& edges,
                                 std::size_t w, util::Rng& rng) {
  const std::size_t slots = (edges.size() - w + kWorkers - 1) / kWorkers;
  return edges[w + kWorkers * rng.index(slots)];
}

std::vector<const core::MvrEdge*> model_edges(const core::Framework& fw) {
  std::vector<const core::MvrEdge*> edges;
  for (const core::MvrEdge& e : fw.graph().edges()) {
    if (e.model) edges.push_back(&e);
  }
  return edges;
}

/// Probes run in traced runs only, and their spans belong in the trace.
struct TracingOn {
  TracingOn() { obs::tracer().enable(); }
  ~TracingOn() { obs::tracer().disable(); }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;
};

struct GemmShape {
  const char* name;
  tensor::Transpose trans_a;
  std::size_t a_rows, a_cols, b_rows, b_cols;
  float beta;
};

/// Time one GEMM shape; reports us per call plus its operation count and
/// the bytes it moves, computed from the shape.
double probe_gemm(const GemmShape& s, RunResult* result) {
  tensor::Matrix a(s.a_rows, s.a_cols);
  tensor::Matrix b(s.b_rows, s.b_cols);
  const std::size_t m =
      s.trans_a == tensor::Transpose::kTrans ? s.a_cols : s.a_rows;
  const std::size_t k =
      s.trans_a == tensor::Transpose::kTrans ? s.a_rows : s.a_cols;
  const std::size_t n = s.b_cols;
  tensor::Matrix out(m, n);
  util::Rng rng(11);
  a.init_uniform(rng, 1.0f);
  b.init_uniform(rng, 1.0f);
  constexpr int kCalls = 200;
  const double us = median_block_seconds([&](std::size_t) {
                      for (int c = 0; c < kCalls; ++c) {
                        tensor::gemm(s.trans_a, tensor::Transpose::kNo, 1.0f,
                                     a.view(), b.view(), s.beta, out.view());
                      }
                    }) /
                    kCalls * 1e6;
  const double flop = 2.0 * static_cast<double>(m * n * k);
  const double bytes = 4.0 * static_cast<double>(m * k + k * n +
                                                 m * n * (s.beta != 0.0f ? 2 : 1));
  const std::string shape = s.name;
  add(&result->detail, "tensor.gemm_flop." + shape, flop, "count");
  add(&result->detail, "tensor.gemm_bytes." + shape, bytes, "bytes");
  add(&result->detail, "tensor.gemm_gflops." + shape, flop / us * 1e-3,
      "GFLOP/s");
  return us;
}

}  // namespace

EdgeWindowProbe::EdgeWindowProbe(const core::Framework& framework,
                                 const core::MultivariateSeries& series,
                                 std::uint64_t seed)
    : corpora_(framework.to_corpora(series)), edges_(model_edges(framework)) {
  const util::Rng master(seed ^ 0xed9eull);
  for (std::size_t w = 0; w < kWorkers; ++w) rngs_.push_back(master.fork(w));
}

std::vector<EdgeWindowProbe::Cost> EdgeWindowProbe::sample() {
  const std::size_t windows = corpora_.front().size();
  std::vector<Cost> per(kWorkers);
  on_workers([&](std::size_t w) {
    // The same loop as AnomalyDetector::detect, with the clock read around
    // each call.
    const core::MvrEdge* e = sample_edge(edges_, w, rngs_[w]);
    double translate_ms = 0.0, bleu_ms = 0.0;
    for (std::size_t t = 0; t < windows; ++t) {
      const auto t0 = Clock::now();
      const text::Sentence candidate = e->model->translate(corpora_[e->src][t]);
      const auto t1 = Clock::now();
      (void)text::sentence_bleu(candidate, corpora_[e->dst][t]);
      translate_ms += ms_between(t0, t1);
      bleu_ms += ms_between(t1, Clock::now());
    }
    const double n = static_cast<double>(windows);
    per[w] = {translate_ms * 1e3 / n, bleu_ms * 1e3 / n};
  });
  return per;
}

LayerCosts probe_layers(const LayerInputs& in, RunResult* result) {
  const TracingOn tracing;
  const obs::Span probe_span("bench.probe_layers");
  const core::Framework& fw = *in.framework;
  const core::MultivariateSeries& series = *in.series;
  std::vector<Metric>* layer = &result->per_layer;
  LayerCosts costs;

  // core: window assembly per tick, corpus encoding per history.
  {
    const obs::Span span("bench.probe.core");
    const TickTable table =
        TickTable::from_series(series, fw.encrypter().kept_sensors());
    const std::size_t ticks = std::min(table.ticks(), kAssembleTicks);
    std::vector<std::map<std::string, std::string>> maps;
    maps.reserve(ticks);
    TickFeed feed(table.sensors);
    for (std::size_t t = 0; t < ticks; ++t) maps.push_back(feed.fill(table, t));
    core::WindowAssembler assembler(fw.encrypter(), fw.config().window);
    const std::size_t per_block = ticks / kBlocks;
    costs.assemble_us = median_block_seconds([&](std::size_t b) {
                          for (std::size_t t = b * per_block;
                               t < (b + 1) * per_block; ++t) {
                            assembler.push(maps[t]);
                          }
                        }) /
                        static_cast<double>(per_block) * 1e6;
    costs.encode_corpora_ms =
        median_seconds(5, [&] { (void)fw.to_corpora(series); }) * 1e3;
  }
  add(layer, "core.assemble_us", costs.assemble_us, "us");
  add(layer, "core.encode_corpora_ms", costs.encode_corpora_ms, "ms");

  const std::vector<text::Corpus> corpora = fw.to_corpora(series);
  const std::size_t windows = corpora.front().size();
  const std::size_t dev = std::min(kDevSentences, windows);
  const std::vector<const core::MvrEdge*> edges = model_edges(fw);
  std::vector<util::Rng> rngs;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    rngs.push_back(util::Rng(in.seed ^ 0x1a7e4full).fork(w));
  }

  // nmt + text: B=1 greedy decode and sentence BLEU, as batch detection
  // runs them; corpus BLEU over a dev-sized corpus, as the miner does.
  {
    const obs::Span span("bench.probe.translate");
    EdgeWindowProbe probe(fw, series, in.seed);
    std::vector<double> translate, bleu;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      for (const EdgeWindowProbe::Cost& c : probe.sample()) {
        translate.push_back(c.translate_us);
        bleu.push_back(c.bleu_us);
      }
    }
    const double translate_us = median(std::move(translate));
    costs.sentence_bleu_us = median(std::move(bleu));

    const core::MvrEdge* e = edges.front();
    text::Corpus cand, ref;
    for (std::size_t t = 0; t < dev; ++t) {
      cand.push_back(e->model->translate(corpora[e->src][t]));
      ref.push_back(corpora[e->dst][t]);
    }
    const double corpus_ms =
        median_block_seconds(
            [&](std::size_t) { (void)text::corpus_bleu(cand, ref); }) *
        1e3;
    add(layer, "nmt.translate_us", translate_us, "us");
    add(layer, "text.sentence_bleu_us", costs.sentence_bleu_us, "us");
    add(layer, "text.corpus_bleu_ms", corpus_ms, "ms");
  }

  // nmt: stacked greedy decode per row at B = 1/8/32 distinct sources of
  // the edge whose source sensor has the most distinct sentences.
  {
    const obs::Span span("bench.probe.translate_batch");
    std::vector<std::vector<const text::Sentence*>> distinct(corpora.size());
    for (std::size_t k = 0; k < corpora.size(); ++k) {
      std::set<text::Sentence> seen;
      for (const text::Sentence& s : corpora[k]) {
        if (seen.insert(s).second) distinct[k].push_back(&s);
      }
    }
    const core::MvrEdge* widest = edges.front();
    for (const core::MvrEdge* e : edges) {
      if (distinct[e->src].size() > distinct[widest->src].size()) widest = e;
    }
    const std::vector<const text::Sentence*>& sources = distinct[widest->src];
    for (const std::size_t b : {std::size_t{1}, std::size_t{8},
                                std::size_t{32}}) {
      const std::size_t rows = std::min(b, sources.size());
      costs.batch_row_us[b] =
          median_block_seconds([&](std::size_t block) {
            std::vector<const text::Sentence*> batch;
            for (std::size_t r = 0; r < rows; ++r) {
              batch.push_back(sources[(block * rows + r) % sources.size()]);
            }
            (void)widest->model->translate_batch(batch);
          }) /
          static_cast<double>(rows) * 1e6;
      add(layer, "nmt.translate_batch_row_us.b" + std::to_string(b),
          costs.batch_row_us[b], "us");
    }
    add(&result->detail, "nmt.translate_batch_distinct_sources",
        static_cast<double>(sources.size()), "count");
  }

  // nmt: dev-set scoring (Algorithm 1's s(i,j)) and training steps, on
  // kWorkers threads as the miner runs them.
  {
    const obs::Span span("bench.probe.train");
    costs.dev_score_ms =
        parallel_median_block_seconds([&](std::size_t w, std::size_t) {
          const core::MvrEdge* e = sample_edge(edges, w, rngs[w]);
          const std::size_t first = rngs[w].index(windows - dev + 1);
          const text::Corpus src(corpora[e->src].begin() + first,
                                 corpora[e->src].begin() + first + dev);
          const text::Corpus dst(corpora[e->dst].begin() + first,
                                 corpora[e->dst].begin() + first + dev);
          (void)e->model->score(src, dst);
        }) *
        1e3;

    std::vector<std::vector<double>> step_ms(kWorkers);
    on_workers([&](std::size_t w) {
      const core::MvrEdge* e = sample_edge(edges, w, rngs[w]);
      const std::size_t n = std::min<std::size_t>(windows, 72);
      const text::Corpus src(corpora[e->src].begin(),
                             corpora[e->src].begin() + n);
      const text::Corpus dst(corpora[e->dst].begin(),
                             corpora[e->dst].begin() + n);
      nmt::TranslationConfig cfg = fw.config().miner.translation;
      cfg.trainer.steps = kTrainSteps;
      auto last = Clock::now();
      cfg.trainer.on_step = [&](const nmt::StepEvent&) {
        const auto now = Clock::now();
        step_ms[w].push_back(ms_between(last, now));
        last = now;
      };
      (void)nmt::train_translation_model(src, dst, cfg, in.seed + w);
    });
    std::vector<double> steps;
    for (const std::vector<double>& w : step_ms) {
      steps.insert(steps.end(), w.begin(), w.end());
    }
    costs.train_step_ms = median(std::move(steps));
  }
  add(layer, "nmt.train_step_ms", costs.train_step_ms, "ms");
  add(layer, "nmt.dev_score_ms", costs.dev_score_ms, "ms");

  // tensor: the decode-step gate GEMM (B=32 rows, H=24 -> 4H) and the
  // training weight-gradient GEMM (x^T * dz over a 16-row batch).
  {
    const obs::Span span("bench.probe.gemm");
    add(layer, "tensor.gemm_us.decode",
        probe_gemm({"decode", tensor::Transpose::kNo, 32, 24, 24, 96, 0.0f},
                   result),
        "us");
    add(layer, "tensor.gemm_us.train",
        probe_gemm({"train", tensor::Transpose::kTrans, 16, 24, 16, 96, 1.0f},
                   result),
        "us");
  }
  add(layer, "tensor.workspace_bytes_peak",
      obs::metrics().gauge("tensor.workspace.bytes_peak").value(), "bytes");

  // io: mapped open (header + TOC), first-touch materialization of every
  // edge (CRC + page faults), and the whole-framework load.
  {
    const obs::Span span("bench.probe.io");
    const double open_s =
        median_seconds(5, [&] { (void)io::ArtifactMap::open(in.artifact); });
    std::vector<double> materialize;
    for (int r = 0; r < 5; ++r) {
      const auto map = io::ArtifactMap::open(in.artifact);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < map->edges().size(); ++i) {
        if (map->edges()[i].has_model) (void)map->materialize_edge(i);
      }
      materialize.push_back(seconds_between(t0, Clock::now()));
    }
    const double load_s = median_seconds(
        5, [&] { (void)io::load_framework(in.artifact, framework_config()); });
    add(layer, "io.open_ms", open_s * 1e3, "ms");
    add(layer, "io.materialize_ms", median(materialize) * 1e3, "ms");
    add(layer, "io.load_framework_ms", load_s * 1e3, "ms");
  }
  return costs;
}

double batch_row_cost_us(const LayerCosts& costs, double batch) {
  double best = 0.0;
  double best_gap = 1e300;
  for (const auto& [b, us] : costs.batch_row_us) {
    const double gap = std::abs(std::log(static_cast<double>(b)) -
                                std::log(std::max(batch, 1.0)));
    if (gap < best_gap) {
      best_gap = gap;
      best = us;
    }
  }
  return best;
}

}  // namespace desmine::e2e
