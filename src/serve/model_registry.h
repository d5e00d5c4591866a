// Generation-counted model registry for hot reload (DESIGN.md §13).
//
// Serving must swap in a retrained MVRG artifact without restarting or
// perturbing in-flight work. The registry holds the *current* generation —
// an immutable bundle of the valid-band edges of one mapped (v4) artifact
// plus the detector thresholds — behind one mutex; publishing a new generation is a pointer
// swap. Every window snapshots a shared_ptr to the generation it was
// ingested under and scores against exactly that state, so a swap never
// mixes models within a window: windows ingested before the swap finish on
// the old generation, windows after it start on the new one. When the last
// in-flight reference drains (scheduler edge states erased, pending windows
// finalized), the old generation's models free themselves; retired_live()
// exposes the count of still-referenced retired generations so tests can
// assert the drain actually released the memory.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/anomaly.h"
#include "core/edge_scorer.h"
#include "core/window_assembler.h"
#include "nmt/translation.h"
#include "serve/residency.h"

namespace desmine::serve {

/// One valid edge of a generation: its TOC index into the generation's
/// artifact map. The model materializes through the generation's
/// ResidencyManager on demand; scorers go through acquire().
struct EdgeModel {
  std::size_t src = 0;
  std::size_t dst = 0;
  double train_bleu = 0.0;  ///< s(i, j) — the broken threshold baseline
  /// The generation's vocabularies of sensors src and dst.
  std::shared_ptr<const text::Vocabulary> src_vocab, dst_vocab;
  /// The generation's residency cache and this edge's index into the map's
  /// TOC.
  std::shared_ptr<ResidencyManager> residency;
  std::size_t map_index = 0;

  /// The model to score with, from the residency cache (materializing on
  /// first touch). io::ArtifactError surfaces corruption, and
  /// robust::VocabularyMismatch a model trained on other vocabularies than
  /// its sensors'; the scheduler's per-edge failure handling treats either
  /// like any scoring error.
  std::shared_ptr<nmt::TranslationModel> acquire() const;
};

/// One immutable published model state. Windows and scheduler edge states
/// hold shared_ptrs to the generation they score against; nothing mutates a
/// generation after publication. `residency` pins the io::ArtifactMap (and
/// with it the weight pages) for the generation's whole lifetime.
struct ModelGeneration {
  std::uint64_t id = 1;  ///< monotonically increasing across reloads
  std::vector<EdgeModel> edges;
  /// Every index into `edges`, ascending: the edge list of each window
  /// whose sensors are all healthy. Built once per generation, so such a
  /// window neither filters the edges nor has its list checked again
  /// (PendingWindow::edges, BatchScheduler::submit).
  std::vector<std::size_t> edge_plan;
  core::DetectorConfig detector;
  /// The artifact's language windows: how a window's words are cut.
  core::WindowConfig window;
  /// Per sensor node, the vocabulary its valid edges are trained on (null
  /// for sensors no valid edge touches): what windows are encoded with.
  core::SensorVocabularies vocabularies;
  std::shared_ptr<ResidencyManager> residency;
};

/// Build a generation over a mapped (v4) artifact: keep the valid-band edges
/// (core::in_valid_band, after core::validate). No model is deserialized: edges
/// materialize lazily through a fresh ResidencyManager budgeted by
/// `residency`. Each sensor's vocabulary is read from the meta blob of the
/// first valid edge touching it whose blob is intact; the open-to-serveable
/// cost stays independent of weight bytes. Throws PreconditionError when a
/// valid-band TOC entry lacks a model blob.
std::shared_ptr<const ModelGeneration> make_generation(
    std::shared_ptr<io::ArtifactMap> map, const core::DetectorConfig& detector,
    std::uint64_t id, const ResidencyConfig& residency);

/// A window's sentences — one character span per sensor node, cut into
/// words and encoded by core::encode_span — against `gen`'s vocabularies;
/// sensors without one stay empty.
std::vector<core::EncodedSentence> encode_window(
    const ModelGeneration& gen, const core::WindowSpans& spans);

class ModelRegistry {
 public:
  explicit ModelRegistry(std::shared_ptr<const ModelGeneration> initial);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The generation new windows should score against. Thread-safe; the
  /// returned pointer stays valid for as long as the caller holds it, even
  /// across publishes.
  std::shared_ptr<const ModelGeneration> current() const;

  /// Atomically make `next` the current generation (next->id must exceed
  /// the current id). Returns the retired generation; the registry also
  /// keeps a weak_ptr to it so retired_live() can observe the drain.
  std::shared_ptr<const ModelGeneration> publish(
      std::shared_ptr<const ModelGeneration> next);

  /// Id of the current generation.
  std::uint64_t generation() const;

  /// Retired generations still referenced somewhere (in-flight windows or
  /// scheduler edge states). 0 means every old generation's memory has been
  /// released.
  std::size_t retired_live() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ModelGeneration> current_;
  mutable std::vector<std::weak_ptr<const ModelGeneration>> retired_;
};

}  // namespace desmine::serve
