// Mapped (v4) model store: page-aligned artifacts served without copying.
//
// v4 is the only framework artifact format; io::save_framework writes it and
// io::load_framework reads it through this map. Rather than deserializing
// every tensor into owned heap memory before the first window can score, the
// layout makes the kernel's page cache the weight storage (DESIGN.md §15):
//
//   offset 0    64-byte header (fixed):
//               "DESM" | u32 version=4 | u64 file_size | u64 toc_off |
//               u64 toc_len | u64 edge_count | u64 reserved |
//               u32 toc_crc | u32 header_crc (CRC-32 of bytes [0,52)) | pad
//   then        per-edge meta blobs, densely packed — vocabularies +
//               Seq2SeqConfig in the v3 stream encoding (io/serialize.h)
//   then        per-edge weight regions, each starting on a 4096-byte page
//               boundary; every parameter tensor inside is raw row-major f32
//               at 64-byte alignment (cache-line / SIMD friendly)
//   file end    the TOC: window config, encrypter, sensor names, one entry
//               per edge (scores + blob extents + per-parameter shapes and
//               absolute offsets), permanently failed pairs
//
// ArtifactMap::open mmap()s the file read-only and verifies the header and
// TOC CRCs eagerly — O(header + TOC), independent of total weight bytes.
// Weight pages are faulted in lazily, the first time an edge's model is
// materialized; each edge's meta/weight CRCs are verified exactly once, on
// that first touch. Materialized models hold their weights as
// tensor::ConstMatrixView aliases of the mapped pages (nn::WeightStorage::
// kDeferred) and pin the map alive via shared_ptr, so scoring is zero-copy
// and bit-identical to the heap path. Two maps of one file share pages
// (MAP_SHARED of a read-only file); N serving processes cost one copy of
// the weights in physical memory.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/encryption.h"
#include "core/framework.h"
#include "core/language.h"
#include "core/mvr_graph.h"
#include "util/error.h"

namespace desmine::io {

/// The mapped layout's version tag: the only framework artifact version.
inline constexpr std::uint32_t kMappedArtifactVersion = 4;
/// Fixed header size; the TOC offset/length live at fixed offsets inside it.
inline constexpr std::size_t kV4HeaderSize = 64;
/// Per-edge weight regions start on page boundaries so edges fault
/// independently and never share a dirty page.
inline constexpr std::size_t kV4PageAlign = 4096;
/// Every parameter tensor inside a weight region is 64-byte aligned.
inline constexpr std::size_t kV4WeightAlign = 64;

/// Typed corruption/truncation error for mapped artifacts. IS-A RuntimeError,
/// so callers that only care about "the artifact is bad" keep working; the
/// section tells tooling (desmine_inspect) and tests exactly which integrity
/// check failed.
class ArtifactError : public RuntimeError {
 public:
  enum class Section {
    kHeader,     ///< bad magic/version, header CRC mismatch
    kToc,        ///< TOC CRC mismatch or unparseable/out-of-bounds entries
    kMeta,       ///< a per-edge meta blob failed its CRC on first touch
    kWeights,    ///< a per-edge weight region failed its CRC on first touch
    kTruncated,  ///< file shorter than its header claims
  };

  ArtifactError(Section section, const std::string& message)
      : RuntimeError(message), section_(section) {}

  Section section() const { return section_; }

  static const char* section_name(Section s);

 private:
  Section section_;
};

/// Shape + absolute file offset of one parameter tensor (raw f32 row-major).
struct ParamExtent {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t off = 0;  ///< absolute file offset, kV4WeightAlign-aligned
};

/// One TOC entry: the edge's scores plus where its blobs live in the file.
struct EdgeEntry {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  double bleu = 0.0;
  double runtime_seconds = 0.0;
  bool has_model = false;
  std::uint64_t meta_off = 0;
  std::uint64_t meta_len = 0;
  std::uint32_t meta_crc = 0;
  std::uint64_t weights_off = 0;  ///< kV4PageAlign-aligned region start
  std::uint64_t weights_len = 0;
  std::uint32_t weights_crc = 0;
  std::vector<ParamExtent> params;  ///< registry order
};

struct ArtifactMapOptions {
  /// Read the file into heap memory instead of mmap()ing it; every view,
  /// CRC and materialization path is byte-for-byte identical, only the
  /// backing storage differs. For platforms without mmap and for CI to
  /// prove the fallback stays live (also forced by the
  /// DESMINE_FORCE_HEAP_FALLBACK environment variable).
  bool force_heap = false;
};

/// A read-only mapping of one v4 artifact. Thread-safe: materialization and
/// first-touch CRC verification are serialized internally; concurrent reads
/// of already-materialized models need no coordination (pages are immutable).
class ArtifactMap : public std::enable_shared_from_this<ArtifactMap> {
 public:
  /// Map `path` and eagerly verify the header and TOC (magic, version,
  /// declared vs actual file size, both CRCs, every extent in bounds).
  /// Throws ArtifactError on any integrity failure and RuntimeError when the
  /// file cannot be opened. Cost is O(header + TOC): no weight page is
  /// touched.
  static std::shared_ptr<ArtifactMap> open(const std::string& path,
                                           const ArtifactMapOptions& options = {});

  ~ArtifactMap();
  ArtifactMap(const ArtifactMap&) = delete;
  ArtifactMap& operator=(const ArtifactMap&) = delete;

  const std::string& path() const { return path_; }
  std::uint64_t file_size() const { return size_; }
  /// False when the heap fallback is backing this map instead of mmap.
  bool mapped() const { return mapped_; }

  const core::WindowConfig& window() const { return window_; }
  const core::SensorEncrypter& encrypter() const { return *encrypter_; }
  const std::vector<std::string>& sensor_names() const { return sensor_names_; }
  const std::vector<EdgeEntry>& edges() const { return edges_; }
  const std::vector<core::PairFailure>& failures() const { return failures_; }

  /// Build the edge's model with weights bound as zero-copy views into the
  /// mapped pages. First touch verifies the edge's meta + weight CRCs
  /// (ArtifactError on mismatch) and faults its pages in; the returned model
  /// pins this map alive for its own lifetime. Each call builds a fresh
  /// model (decode state is per-instance); the underlying weight pages are
  /// shared. `index` is an index into edges(); the entry must have a model.
  std::shared_ptr<nmt::TranslationModel> materialize_edge(std::size_t index);

  /// The edge's source and target vocabularies, read from its meta blob
  /// after checking the blob's CRC (ArtifactError kMeta on mismatch). No
  /// weight page is touched: serving reads each sensor's vocabulary this
  /// way while it builds a mapped generation.
  std::pair<text::Vocabulary, text::Vocabulary> vocabularies(
      std::size_t index) const;

  /// Verify every model edge's meta + weight CRCs now — the eager
  /// counterpart of the lazy first-touch checks (ArtifactError naming the
  /// failing section). Hot reload and shadow arming call this so a corrupt
  /// candidate is rejected before it ever becomes a serving generation;
  /// cold-start open stays O(header+TOC) and verifies lazily.
  void verify_all();

  /// Bytes an edge's materialized decode state costs beyond the shared
  /// pages (vocabularies, config, model scaffolding) plus its mapped
  /// meta+weight extent — the unit serve::ResidencyManager budgets with.
  std::uint64_t edge_cost_bytes(std::size_t index) const;

  /// Materialize every edge into a fitted core::Framework (what
  /// io::load_framework returns). Window config comes from the artifact;
  /// detector / miner settings from `config_overlay`. The returned
  /// framework's models all pin this map.
  core::Framework materialize_framework(
      core::FrameworkConfig config_overlay = {});

 private:
  ArtifactMap() = default;

  const unsigned char* data() const;
  /// Verify an edge's meta+weight CRCs exactly once (under mutex).
  void verify_edge(std::size_t index);
  /// Throw ArtifactError kMeta unless the edge's meta blob matches its CRC.
  void check_meta(std::size_t index) const;

  std::string path_;
  std::uint64_t size_ = 0;
  bool mapped_ = false;
  void* map_base_ = nullptr;               // when mapped_
  std::vector<unsigned char> heap_copy_;   // heap fallback

  core::WindowConfig window_{};
  std::optional<core::SensorEncrypter> encrypter_;
  std::vector<std::string> sensor_names_;
  std::vector<EdgeEntry> edges_;
  std::vector<core::PairFailure> failures_;

  std::mutex verify_mutex_;
  std::vector<bool> verified_;  // per-edge first-touch CRC check done
};

}  // namespace desmine::io
