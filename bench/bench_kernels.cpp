// Micro-kernel benchmarks (google-benchmark): the numeric primitives the
// pipeline's cost is built from — GEMM, LSTM forward/BPTT, attention
// decode and train steps, tanh, exp and softmax, seq2seq train steps,
// batched greedy decode, an end-to-end train-pair, BLEU scoring, and
// Walktrap.
//
// Results go to bench_artifacts/BENCH_kernels.json (google-benchmark JSON)
// so successive runs form a perf trajectory; the metrics registry — which
// includes the tensor.workspace.* arena instruments — is dumped alongside
// as BENCH_kernels_metrics.json.
#include <benchmark/benchmark.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "graph/walktrap.h"
#include "nn/attention.h"
#include "nn/lstm.h"
#include "nn/param.h"
#include "nmt/translation.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/workspace.h"
#include "text/bleu.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace dt = desmine::tensor;
namespace dn = desmine::nn;
namespace dg = desmine::graph;
namespace dx = desmine::text;
using desmine::util::Rng;

static void BM_Matmul(benchmark::State& state) {
  // Startup-default backend (auto-detected): the perf-trajectory anchor the
  // pre-dispatch BM_Matmul numbers compare against.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  dt::Matrix a(n, n), b(n, n), c(n, n);
  a.init_uniform(rng, 1.0f);
  b.init_uniform(rng, 1.0f);
  for (auto _ : state) {
    dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a.view(), b.view(),
             0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(16)->Arg(64)->Arg(128);

/// Pin `backend` for the benchmark body, restoring the startup default
/// (env override, else best available) afterwards so later benchmarks keep
/// measuring what the tools would run.
class BackendGuard {
 public:
  explicit BackendGuard(dt::kernels::Backend b) { dt::kernels::set_backend(b); }
  ~BackendGuard() { dt::kernels::select_backend("auto"); }
};

static void BM_Gemm(benchmark::State& state, dt::kernels::Backend backend) {
  // The backend column of the speedup table: same GEMM, explicit backend.
  if (!dt::kernels::backend_available(backend)) {
    state.SkipWithError("backend unavailable on this CPU/build");
    return;
  }
  const BackendGuard guard(backend);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  dt::Matrix a(n, n), b(n, n), c(n, n);
  a.init_uniform(rng, 1.0f);
  b.init_uniform(rng, 1.0f);
  for (auto _ : state) {
    dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a.view(), b.view(),
             0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK_CAPTURE(BM_Gemm, scalar, dt::kernels::Backend::kScalar)
    ->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_CAPTURE(BM_Gemm, avx2, dt::kernels::Backend::kAvx2)
    ->Arg(64)->Arg(128)->Arg(256);

/// The five GEMM shapes of a `mine` train step (E = H = 24, B = 16, 4H = 96):
/// the attention backward's dWa += enc[s]^T dtr and denc[s] += dtr Wa^T, run
/// 2 S times per target step, and the LSTM's x W_x, dW_x += x^T dz and
/// dx = dz W_x^T.
struct TrainShape {
  dt::Transpose ta, tb;
  std::size_t m, k, n;
  const char* label;
};
constexpr dt::Transpose kN = dt::Transpose::kNo, kT = dt::Transpose::kTrans;
constexpr TrainShape kTrainShapes[] = {
    {kT, kN, 24, 16, 24, "tn 24x24 k=16 dWa"},
    {kN, kT, 16, 24, 24, "nt 16x24 k=24 denc"},
    {kN, kN, 16, 24, 96, "nn 16x96 k=24 xW"},
    {kT, kN, 24, 16, 96, "tn 24x96 k=16 dW"},
    {kN, kT, 16, 96, 24, "nt 16x24 k=96 dx"},
};

static void BM_GemmTrainShapes(benchmark::State& state) {
  // Startup-default backend, accumulating (beta = 1) as training does.
  const TrainShape& shape = kTrainShapes[state.range(0)];
  const bool ta = shape.ta == dt::Transpose::kTrans;
  const bool tb = shape.tb == dt::Transpose::kTrans;
  Rng rng(10);
  dt::Matrix a(ta ? shape.k : shape.m, ta ? shape.m : shape.k);
  dt::Matrix b(tb ? shape.n : shape.k, tb ? shape.k : shape.n);
  dt::Matrix c(shape.m, shape.n);
  a.init_uniform(rng, 1.0f);
  b.init_uniform(rng, 1.0f);
  for (auto _ : state) {
    dt::gemm(shape.ta, shape.tb, 1.0f, a.view(), b.view(), 1.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(shape.label);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(2 * shape.m * shape.n * shape.k));
}
BENCHMARK(BM_GemmTrainShapes)->DenseRange(0, 4);

static void BM_LstmStep(benchmark::State& state) {
  // Forward-only stepping: the greedy-decode / encoder inner loop.
  const auto hidden = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  dn::LstmStack lstm("l", hidden, hidden, 2, rng, 0.0f);
  dt::Matrix x(8, hidden, 0.1f);
  for (auto _ : state) {
    lstm.begin(8);
    for (int t = 0; t < 10; ++t) {
      benchmark::DoNotOptimize(lstm.step(x).data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_LstmStep)->Arg(24)->Arg(64);

static void BM_LstmStepBackend(benchmark::State& state,
                               dt::kernels::Backend backend) {
  // BM_LstmStep with an explicit backend column, for per-shape speedups.
  if (!dt::kernels::backend_available(backend)) {
    state.SkipWithError("backend unavailable on this CPU/build");
    return;
  }
  const BackendGuard guard(backend);
  const auto hidden = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  dn::LstmStack lstm("l", hidden, hidden, 2, rng, 0.0f);
  dt::Matrix x(8, hidden, 0.1f);
  for (auto _ : state) {
    lstm.begin(8);
    for (int t = 0; t < 10; ++t) {
      benchmark::DoNotOptimize(lstm.step(x).data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK_CAPTURE(BM_LstmStepBackend, scalar, dt::kernels::Backend::kScalar)
    ->Arg(24)->Arg(64);
BENCHMARK_CAPTURE(BM_LstmStepBackend, avx2, dt::kernels::Backend::kAvx2)
    ->Arg(24)->Arg(64);

static void BM_LstmBptt(benchmark::State& state) {
  // Full backpropagation through time over a 10-step sequence: the
  // gradient half of every training step.
  const auto hidden = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 8;
  constexpr int kSteps = 10;
  Rng rng(7);
  dn::LstmStack lstm("l", hidden, hidden, 2, rng, 0.0f);
  dn::ParamRegistry reg;
  lstm.register_params(reg);
  dt::Matrix x(kBatch, hidden, 0.1f);
  dt::Matrix dh(kBatch, hidden, 0.01f);
  dt::Workspace ws;
  for (auto _ : state) {
    ws.reset();
    lstm.begin(kBatch, nullptr, true, nullptr, &ws);
    for (int t = 0; t < kSteps; ++t) lstm.step(x);
    const std::vector<dt::ConstMatrixView> dh_top(kSteps, dh.view());
    reg.zero_grad();
    auto back = lstm.backward(dh_top);
    benchmark::DoNotOptimize(back.dx.front().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_LstmBptt)->Arg(24)->Arg(64);

/// The attention geometry of a `mine` train step and of a serve decode:
/// H = 24, batch 16, 20 source positions, 21 target steps (20 words + </s>).
constexpr std::size_t kAttnHidden = 24;
constexpr std::size_t kAttnBatch = 16;
constexpr std::size_t kAttnSrc = 20;
constexpr std::size_t kAttnSteps = 21;

/// Random encoder outputs and decoder states for the attention benches.
struct AttentionInputs {
  std::vector<dt::Matrix> enc, h_dec;
  AttentionInputs() {
    Rng rng(8);
    for (std::size_t s = 0; s < kAttnSrc; ++s) {
      enc.emplace_back(kAttnBatch, kAttnHidden);
      enc.back().init_uniform(rng, 0.5f);
    }
    for (std::size_t t = 0; t < kAttnSteps; ++t) {
      h_dec.emplace_back(kAttnBatch, kAttnHidden);
      h_dec.back().init_uniform(rng, 0.5f);
    }
  }
};

static void BM_AttentionScore(benchmark::State& state,
                              dt::kernels::Backend backend) {
  // One decode's attention: begin() over 20 source positions, then 21 steps
  // (score + softmax + context + h~). items_per_second is steps per second,
  // so 1e6 / items_per_second is the per-step cost in µs.
  if (!dt::kernels::backend_available(backend)) {
    state.SkipWithError("backend unavailable on this CPU/build");
    return;
  }
  const BackendGuard guard(backend);
  Rng rng(8);
  dn::LuongAttention attn("a", kAttnHidden, rng);
  const AttentionInputs in;
  dt::Workspace ws;
  for (auto _ : state) {
    ws.reset();
    attn.begin(&in.enc, kAttnBatch, &ws);
    for (const dt::Matrix& h : in.h_dec) {
      benchmark::DoNotOptimize(attn.step(h).data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAttnSteps));
}
BENCHMARK_CAPTURE(BM_AttentionScore, scalar, dt::kernels::Backend::kScalar);
BENCHMARK_CAPTURE(BM_AttentionScore, avx2, dt::kernels::Backend::kAvx2);

static void BM_AttentionTrainStep(benchmark::State& state,
                                  dt::kernels::Backend backend) {
  // The attention share of one teacher-forced train step: 21 forward steps,
  // then 21 backward steps in reverse order.
  if (!dt::kernels::backend_available(backend)) {
    state.SkipWithError("backend unavailable on this CPU/build");
    return;
  }
  const BackendGuard guard(backend);
  Rng rng(8);
  dn::LuongAttention attn("a", kAttnHidden, rng);
  dn::ParamRegistry params;
  attn.register_params(params);
  const AttentionInputs in;
  const dt::Matrix d_attn(kAttnBatch, kAttnHidden, 0.01f);
  dt::Workspace ws;
  for (auto _ : state) {
    ws.reset();
    params.zero_grad();
    attn.begin(&in.enc, kAttnBatch, &ws);
    for (const dt::Matrix& h : in.h_dec) attn.step(h);
    for (std::size_t t = 0; t < kAttnSteps; ++t) {
      benchmark::DoNotOptimize(attn.backward_step(d_attn).data());
    }
  }
}
BENCHMARK_CAPTURE(BM_AttentionTrainStep, scalar,
                  dt::kernels::Backend::kScalar);
BENCHMARK_CAPTURE(BM_AttentionTrainStep, avx2, dt::kernels::Backend::kAvx2);

static void BM_Tanh(benchmark::State& state, bool kernel) {
  // h~'s tanh at the decode geometry (batch 16 x H 24): a std::tanh loop
  // against the dispatched tensor::tanh_inplace (same bits on every
  // backend). Each iteration restores the pre-activations first.
  Rng rng(10);
  dt::Matrix pre(kAttnBatch, kAttnHidden), m(kAttnBatch, kAttnHidden);
  pre.init_uniform(rng, 3.0f);
  for (auto _ : state) {
    m.view().copy_from(pre);
    if (kernel) {
      dt::tanh_inplace(m.view());
    } else {
      float* p = m.data();
      for (std::size_t i = 0; i < m.size(); ++i) p[i] = std::tanh(p[i]);
    }
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.size()));
}
BENCHMARK_CAPTURE(BM_Tanh, libm, false);
BENCHMARK_CAPTURE(BM_Tanh, kernel, true);

static void BM_Exp(benchmark::State& state, bool kernel) {
  // The softmax's exps at the decode geometry (batch 16 x 20 source
  // positions, scores minus their row max): a std::exp loop against the
  // dispatched tensor::exp_inplace (same bits on every backend). Each
  // iteration restores the inputs first.
  Rng rng(11);
  dt::Matrix pre(kAttnBatch, kAttnSrc), m(kAttnBatch, kAttnSrc);
  pre.init_uniform(rng, 5.0f);
  for (std::size_t i = 0; i < pre.size(); ++i) {
    pre.data()[i] -= 5.0f;  // in [-10, 0], as after the max is subtracted
  }
  for (auto _ : state) {
    m.view().copy_from(pre);
    if (kernel) {
      dt::exp_inplace(m.view());
    } else {
      float* p = m.data();
      for (std::size_t i = 0; i < m.size(); ++i) p[i] = std::exp(p[i]);
    }
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.size()));
}
BENCHMARK_CAPTURE(BM_Exp, libm, false);
BENCHMARK_CAPTURE(BM_Exp, kernel, true);

static void BM_SoftmaxRows(benchmark::State& state,
                           dt::kernels::Backend backend) {
  // Attention's alignment softmax at the decode geometry (batch 16 x 20
  // source positions) per backend; items are rows.
  if (!dt::kernels::backend_available(backend)) {
    state.SkipWithError("backend unavailable on this CPU/build");
    return;
  }
  const BackendGuard guard(backend);
  Rng rng(12);
  dt::Matrix pre(kAttnBatch, kAttnSrc), m(kAttnBatch, kAttnSrc);
  pre.init_uniform(rng, 4.0f);
  for (auto _ : state) {
    m.view().copy_from(pre);
    dt::softmax_rows(m.view());
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAttnBatch));
}
BENCHMARK_CAPTURE(BM_SoftmaxRows, scalar, dt::kernels::Backend::kScalar);
BENCHMARK_CAPTURE(BM_SoftmaxRows, avx2, dt::kernels::Backend::kAvx2);

/// A 48-sentence, 20-word substitution corpus over 24 words per side: the
/// bench/e2e `mine` geometry's pair languages.
static void mine_corpus(dx::Corpus& src, dx::Corpus& dst) {
  Rng rng(9);
  for (int s = 0; s < 48; ++s) {
    dx::Sentence a, b;
    for (int i = 0; i < 20; ++i) {
      const std::size_t w = rng.index(24);
      a.push_back("s" + std::to_string(w));
      b.push_back("t" + std::to_string((w + s) % 24));
    }
    src.push_back(a);
    dst.push_back(b);
  }
}

/// The `mine` model configuration (E = H = 24, one layer, no dropout).
static desmine::nmt::TranslationConfig mine_config() {
  desmine::nmt::TranslationConfig cfg;
  cfg.model.embedding_dim = 24;
  cfg.model.hidden_dim = 24;
  cfg.model.num_layers = 1;
  cfg.model.dropout = 0.0f;
  cfg.model.max_decode_length = 22;
  cfg.trainer.steps = 30;
  cfg.trainer.batch_size = 16;
  return cfg;
}

static void BM_TranslateBatch(benchmark::State& state) {
  // Greedy decode of batch B (the arg) with a pair model trained at the
  // `mine` geometry: the cost detection and serving pay per window and
  // edge. items are rows, so 1e6 / items_per_second is µs per row.
  const auto batch = static_cast<std::size_t>(state.range(0));
  dx::Corpus src, dst;
  mine_corpus(src, dst);
  desmine::nmt::TranslationConfig cfg = mine_config();
  cfg.trainer.steps = 120;
  auto model = desmine::nmt::train_translation_model(src, dst, cfg, 42);
  std::vector<std::vector<std::int32_t>> ids;
  for (std::size_t b = 0; b < batch; ++b) {
    ids.push_back(model.src_vocab().encode(src[b % src.size()]));
  }
  std::vector<const std::vector<std::int32_t>*> sources;
  for (const auto& v : ids) sources.push_back(&v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.model().translate_batch(sources).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_TranslateBatch)->Arg(1)->Arg(8)->Arg(32);

static void BM_LstmTrainStep(benchmark::State& state) {
  // One teacher-forced forward+backward of a small seq2seq batch.
  desmine::nmt::Seq2SeqConfig cfg;
  cfg.embedding_dim = 24;
  cfg.hidden_dim = 24;
  cfg.num_layers = 1;
  cfg.dropout = 0.0f;
  desmine::nmt::Seq2SeqModel model(30, 30, cfg, Rng(3));
  std::vector<desmine::nmt::EncodedPair> pairs;
  Rng rng(4);
  for (int k = 0; k < 8; ++k) {
    desmine::nmt::EncodedPair p;
    for (int i = 0; i < 6; ++i) {
      p.source.push_back(4 + rng.uniform_int(0, 25));
      p.target.push_back(4 + rng.uniform_int(0, 25));
    }
    pairs.push_back(p);
  }
  std::vector<const desmine::nmt::EncodedPair*> batch;
  for (const auto& p : pairs) batch.push_back(&p);
  model.reserve_workspace(6, 6, 8);
  for (auto _ : state) {
    model.params().zero_grad();
    benchmark::DoNotOptimize(model.train_batch(batch));
  }
}
BENCHMARK(BM_LstmTrainStep);

static void BM_TrainPair(benchmark::State& state) {
  // End to end: vocabulary build + model init + full training run + greedy
  // BLEU scoring for one sensor pair — the miner's unit of work, at the
  // bench/e2e `mine` geometry (E = H = 24, one layer, batch 16, 20-word
  // sentences) so kernel work can be measured without the e2e harness.
  dx::Corpus src, dst;
  mine_corpus(src, dst);
  const desmine::nmt::TranslationConfig cfg = mine_config();
  dt::Workspace ws;
  for (auto _ : state) {
    ws.reset();
    auto model = desmine::nmt::train_translation_model(src, dst, cfg, 42,
                                                       nullptr, &ws);
    benchmark::DoNotOptimize(model.score(src, dst).score);
  }
}
BENCHMARK(BM_TrainPair);

static void BM_CorpusBleu(benchmark::State& state) {
  Rng rng(5);
  dx::Corpus cand, ref;
  for (int s = 0; s < 100; ++s) {
    dx::Sentence c, r;
    for (int i = 0; i < 20; ++i) {
      c.push_back("w" + std::to_string(rng.index(50)));
      r.push_back("w" + std::to_string(rng.index(50)));
    }
    cand.push_back(c);
    ref.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dx::corpus_bleu(cand, ref).score);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_CorpusBleu);

// CRC-32 over 4 MiB, about the size of the bench/e2e fixture's weights.
// Arg 0: the dispatched crc32 (folded where PCLMULQDQ is available);
// arg 1: the byte-at-a-time table loop. ns/byte = 1e9 / bytes_per_second.
static void BM_Crc32(benchmark::State& state) {
  Rng rng(6);
  std::vector<unsigned char> buf(std::size_t{4} << 20);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.index(256));
  const bool table = state.range(0) == 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table ? desmine::util::detail::crc32_table(buf.data(), buf.size())
              : desmine::util::crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32)->Arg(0)->Arg(1);

static void BM_Walktrap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  dg::Digraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool same = (i / 8) == (j / 8);
      if (rng.bernoulli(same ? 0.7 : 0.02)) g.add_edge(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dg::walktrap(g).community_count);
  }
}
BENCHMARK(BM_Walktrap)->Arg(32)->Arg(64);

int main(int argc, char** argv) {
  // Console output for humans, JSON to the artifact dir for the perf
  // trajectory (injected as --benchmark_out so the library drives its own
  // file reporter), and a metrics dump so the tensor.workspace.* arena
  // stats land next to the timings they explain. An explicit
  // --benchmark_out on the command line wins.
  const std::string json_path =
      desmine::bench::artifact_dir() + "/BENCH_kernels.json";
  std::string out_flag = "--benchmark_out=" + json_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  std::vector<char*> args(argv, argv + argc);
  bool user_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      user_out = true;
    }
  }
  if (!user_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!user_out) std::cout << "[bench] wrote " << json_path << "\n";
  desmine::bench::dump_observability("kernels");
  return 0;
}
