// desmine — umbrella header for the public API.
//
// Include this one header to embed the framework: offline mining
// (core::Framework), online single-stream detection (core::OnlineDetector),
// the multi-session serving layer (serve::SessionManager), artifact and CSV
// io, config JSON round-trip, and the observability hooks tools are
// expected to wire up.
//
// Public surface (covered by the tier-1 tests and kept
// backwards-compatible across PRs):
//   core::FrameworkConfig / Framework        — fit / detect / detect_degraded
//   core::AnomalyDetector / DetectOptions    — windowed scoring over corpora
//   core::OnlineDetector / WindowAssembler   — streaming single-session path
//   core::MvrGraph / MvrEdge                 — mined relationship graph
//   core::SensorEncrypter / LanguageGenerator— event encoding / language gen
//   serve::SessionManager / ServeConfig      — multi-session batched serving
//   lifecycle::LifecycleController / DriftMonitor / IncrementalRetrainer
//                                            — drift -> retrain -> promotion
//   io::read_csv / save_framework / load_framework — data + artifact io
//   io::RunConfig / run_config_{to,from}_json — config files (--config)
//   obs::init_logging / metrics / trace      — structured obs surface
//   obs::telemetry / HttpExposition          — live scrape plane (/metrics)
//   tensor::kernels (Backend / select_backend) + tensor::gemm
//                                            — compute-kernel dispatch
//                                              (DESIGN.md §16): scalar or
//                                              avx2, chosen per process via
//                                              config key tensor.kernels /
//                                              --kernels / DESMINE_KERNELS
//
// Everything else under src/ (tensor internals beyond the kernel dispatch
// surface, nn, nmt, text, robust internals, serve::BatchScheduler, util) is
// internal: tools and tests may reach in, but embedders should not — those
// layers rearrange freely between PRs.
#pragma once

#include "core/anomaly.h"
#include "core/encryption.h"
#include "core/event.h"
#include "core/framework.h"
#include "core/language.h"
#include "core/miner.h"
#include "core/mvr_graph.h"
#include "core/online.h"
#include "core/window_assembler.h"
#include "io/config_json.h"
#include "io/csv.h"
#include "io/serialize.h"
#include "lifecycle/controller.h"
#include "obs/http_exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "robust/sensor_health.h"
#include "serve/session_manager.h"
#include "tensor/kernels.h"
