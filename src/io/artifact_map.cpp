#include "io/artifact_map.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>
#include <utility>

#include "io/serialize.h"
#include "io/wire.h"
#include "nmt/seq2seq.h"
#include "nn/param.h"
#include "tensor/matrix.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace desmine::io {

namespace {

using wire::read_count;
using wire::read_f64;
using wire::read_string;
using wire::read_u32;
using wire::read_u64;
using wire::write_f64;
using wire::write_string;
using wire::write_u32;
using wire::write_u64;

constexpr char kMagic[4] = {'D', 'E', 'S', 'M'};
// Bytes [0,52) of the header are covered by header_crc at offset 52.
constexpr std::size_t kHeaderCrcSpan = 52;
// Estimated heap cost of one materialized edge beyond the shared pages:
// vocabulary maps, Param/layer scaffolding, decode caches' first growth.
constexpr std::uint64_t kEdgeOverheadBytes = 64 * 1024;

std::uint64_t align_up(std::uint64_t off, std::uint64_t alignment) {
  return (off + alignment - 1) / alignment * alignment;
}

void put_u32(std::string& buf, std::size_t off, std::uint32_t v) {
  std::memcpy(buf.data() + off, &v, sizeof(v));
}

void put_u64(std::string& buf, std::size_t off, std::uint64_t v) {
  std::memcpy(buf.data() + off, &v, sizeof(v));
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

const char* ArtifactError::section_name(Section s) {
  switch (s) {
    case Section::kHeader: return "header";
    case Section::kToc: return "toc";
    case Section::kMeta: return "meta";
    case Section::kWeights: return "weights";
    case Section::kTruncated: return "truncated";
  }
  return "unknown";
}

// ---- writer (io::save_framework, declared in io/serialize.h) ---------------

void save_framework(const core::Framework& framework,
                    const std::string& path) {
  DESMINE_EXPECTS(framework.fitted(), "cannot save an unfitted framework");
  const core::MvrGraph& graph = framework.graph();
  const auto& graph_edges = graph.edges();

  // Pass 1: serialize each model edge's meta blob and plan the weight
  // extents; offsets only, no weight bytes are touched yet.
  std::vector<EdgeEntry> entries(graph_edges.size());
  std::vector<std::string> metas(graph_edges.size());
  std::uint64_t off = kV4HeaderSize;
  for (std::size_t i = 0; i < graph_edges.size(); ++i) {
    const core::MvrEdge& e = graph_edges[i];
    EdgeEntry& entry = entries[i];
    entry.src = e.src;
    entry.dst = e.dst;
    entry.bleu = e.bleu;
    entry.runtime_seconds = e.runtime_seconds;
    entry.has_model = e.model != nullptr;
    if (!entry.has_model) continue;

    std::ostringstream meta(std::ios::binary);
    write_vocabulary(meta, e.model->src_vocab());
    write_vocabulary(meta, e.model->tgt_vocab());
    write_seq2seq_config(meta, e.model->model().config());
    metas[i] = std::move(meta).str();
    entry.meta_off = off;
    entry.meta_len = metas[i].size();
    entry.meta_crc = util::crc32(metas[i]);
    off += entry.meta_len;
  }
  for (std::size_t i = 0; i < graph_edges.size(); ++i) {
    const core::MvrEdge& e = graph_edges[i];
    if (e.model == nullptr) continue;
    EdgeEntry& entry = entries[i];
    off = align_up(off, kV4PageAlign);
    entry.weights_off = off;
    for (const nn::Param* p : e.model->model().params().params()) {
      off = align_up(off, kV4WeightAlign);
      entry.params.push_back(
          ParamExtent{p->rows(), p->cols(), off});
      off += static_cast<std::uint64_t>(p->size()) * sizeof(float);
    }
    entry.weights_len = off - entry.weights_off;
  }
  const std::uint64_t toc_off = off;

  // Pass 2: lay the body down (alignment gaps stay zero, so weight-region
  // CRCs are deterministic) and checksum each weight region in place.
  std::string body(toc_off, '\0');
  for (std::size_t i = 0; i < graph_edges.size(); ++i) {
    const core::MvrEdge& e = graph_edges[i];
    if (e.model == nullptr) continue;
    EdgeEntry& entry = entries[i];
    std::memcpy(body.data() + entry.meta_off, metas[i].data(),
                entry.meta_len);
    const auto& params = e.model->model().params().params();
    for (std::size_t k = 0; k < params.size(); ++k) {
      const tensor::ConstMatrixView w = params[k]->view();
      std::memcpy(body.data() + entry.params[k].off, w.data(),
                  w.rows() * w.cols() * sizeof(float));
    }
    entry.weights_crc = util::crc32(
        body.data() + entry.weights_off, entry.weights_len);
  }

  // Pass 3: the TOC, now that every extent and CRC is known.
  std::ostringstream toc_os(std::ios::binary);
  const core::WindowConfig& w = framework.config().window;
  write_u64(toc_os, w.word_length);
  write_u64(toc_os, w.word_stride);
  write_u64(toc_os, w.sentence_length);
  write_u64(toc_os, w.sentence_stride);
  write_encrypter(toc_os, framework.encrypter());
  write_u64(toc_os, graph.sensor_count());
  for (const std::string& name : graph.sensor_names()) {
    write_string(toc_os, name);
  }
  write_u64(toc_os, entries.size());
  for (const EdgeEntry& entry : entries) {
    write_u64(toc_os, entry.src);
    write_u64(toc_os, entry.dst);
    write_f64(toc_os, entry.bleu);
    write_f64(toc_os, entry.runtime_seconds);
    write_u32(toc_os, entry.has_model ? 1 : 0);
    if (!entry.has_model) continue;
    write_u64(toc_os, entry.meta_off);
    write_u64(toc_os, entry.meta_len);
    write_u32(toc_os, entry.meta_crc);
    write_u64(toc_os, entry.weights_off);
    write_u64(toc_os, entry.weights_len);
    write_u32(toc_os, entry.weights_crc);
    write_u64(toc_os, entry.params.size());
    for (const ParamExtent& x : entry.params) {
      write_u64(toc_os, x.rows);
      write_u64(toc_os, x.cols);
      write_u64(toc_os, x.off);
    }
  }
  write_u64(toc_os, graph.failures().size());
  for (const core::PairFailure& f : graph.failures()) {
    write_u64(toc_os, f.src);
    write_u64(toc_os, f.dst);
    write_string(toc_os, f.reason);
    write_u32(toc_os, f.attempts);
  }
  const std::string toc = std::move(toc_os).str();

  std::memcpy(body.data(), kMagic, 4);
  put_u32(body, 4, kMappedArtifactVersion);
  put_u64(body, 8, toc_off + toc.size());  // file_size
  put_u64(body, 16, toc_off);
  put_u64(body, 24, toc.size());
  put_u64(body, 32, entries.size());
  put_u64(body, 40, 0);  // reserved
  put_u32(body, 48, util::crc32(toc));
  put_u32(body, 52, util::crc32(body.data(), kHeaderCrcSpan));
  // bytes 56..63 stay zero (reserved)

  body += toc;
  write_file_atomic(path, body);
}

// ---- reader ----------------------------------------------------------------

std::shared_ptr<ArtifactMap> ArtifactMap::open(
    const std::string& path, const ArtifactMapOptions& options) {
  bool force_heap = options.force_heap;
  if (const char* env = std::getenv("DESMINE_FORCE_HEAP_FALLBACK");
      env != nullptr && *env != '\0' && std::string_view(env) != "0") {
    force_heap = true;
  }

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw RuntimeError("cannot open for reading: " + path + ": " +
                       std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw RuntimeError("cannot stat " + path + ": " + std::strerror(err));
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);

  std::shared_ptr<ArtifactMap> map(new ArtifactMap());
  map->path_ = path;
  map->size_ = size;
  if (size < kV4HeaderSize) {
    ::close(fd);
    throw ArtifactError(ArtifactError::Section::kTruncated,
                        "artifact shorter than the v4 header: " + path);
  }
  if (!force_heap) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    if (base != MAP_FAILED) {
      map->map_base_ = base;
      map->mapped_ = true;
    }
  }
  if (!map->mapped_) {
    map->heap_copy_.resize(size);
    std::uint64_t done = 0;
    while (done < size) {
      const ::ssize_t n =
          ::pread(fd, map->heap_copy_.data() + done, size - done,
                  static_cast<::off_t>(done));
      if (n <= 0) {
        const int err = errno;
        ::close(fd);
        throw RuntimeError("cannot read " + path + ": " +
                           (n == 0 ? "unexpected EOF" : std::strerror(err)));
      }
      done += static_cast<std::uint64_t>(n);
    }
  }
  // The mapping (or heap copy) carries the data from here on.
  ::close(fd);

  const unsigned char* d = map->data();
  if (std::memcmp(d, kMagic, 4) != 0) {
    throw ArtifactError(ArtifactError::Section::kHeader,
                        "not a desmine artifact (bad magic): " + path);
  }
  const std::uint32_t version = get_u32(d + 4);
  if (version != kMappedArtifactVersion) {
    throw ArtifactError(
        ArtifactError::Section::kHeader,
        "not a mapped (v4) artifact: version " + std::to_string(version) +
            " in " + path);
  }
  if (util::crc32(d, kHeaderCrcSpan) != get_u32(d + kHeaderCrcSpan)) {
    throw ArtifactError(ArtifactError::Section::kHeader,
                        "header checksum mismatch (corrupt header): " + path);
  }
  const std::uint64_t declared_size = get_u64(d + 8);
  if (declared_size != size) {
    throw ArtifactError(
        ArtifactError::Section::kTruncated,
        "artifact is " + std::to_string(size) + " bytes but its header "
            "declares " + std::to_string(declared_size) + ": " + path);
  }
  const std::uint64_t toc_off = get_u64(d + 16);
  const std::uint64_t toc_len = get_u64(d + 24);
  const std::uint64_t edge_count = get_u64(d + 32);
  if (toc_off < kV4HeaderSize || toc_len > size || toc_off > size - toc_len) {
    throw ArtifactError(ArtifactError::Section::kToc,
                        "TOC extent out of bounds: " + path);
  }
  const std::uint32_t toc_crc = get_u32(d + 48);
  if (util::crc32(d + toc_off, toc_len) != toc_crc) {
    throw ArtifactError(ArtifactError::Section::kToc,
                        "TOC checksum mismatch (corrupt TOC): " + path);
  }

  // Parse the (CRC-clean) TOC; any framing error past this point means the
  // writer and reader disagree, which we still surface as a TOC error. Every
  // count is checked against the TOC bytes left before it sizes anything.
  try {
    std::istringstream is(
        std::string(reinterpret_cast<const char*>(d + toc_off), toc_len),
        std::ios::binary);
    map->window_.word_length = read_u64(is);
    map->window_.word_stride = read_u64(is);
    map->window_.sentence_length = read_u64(is);
    map->window_.sentence_stride = read_u64(is);
    map->encrypter_ = read_encrypter(is);
    const std::uint64_t sensor_count = read_count(is, sizeof(std::uint64_t));
    map->sensor_names_.reserve(sensor_count);
    for (std::uint64_t i = 0; i < sensor_count; ++i) {
      map->sensor_names_.push_back(read_string(is));
    }
    const std::uint64_t toc_edges =
        read_count(is, 4 * 8 + 4);  // src, dst, bleu, runtime, has_model
    if (toc_edges != edge_count) {
      throw RuntimeError("TOC edge count disagrees with header");
    }
    map->edges_.resize(toc_edges);
    for (EdgeEntry& e : map->edges_) {
      e.src = read_u64(is);
      e.dst = read_u64(is);
      e.bleu = read_f64(is);
      e.runtime_seconds = read_f64(is);
      e.has_model = read_u32(is) != 0;
      if (!e.has_model) continue;
      e.meta_off = read_u64(is);
      e.meta_len = read_u64(is);
      e.meta_crc = read_u32(is);
      e.weights_off = read_u64(is);
      e.weights_len = read_u64(is);
      e.weights_crc = read_u32(is);
      e.params.resize(read_count(is, 3 * 8));  // rows, cols, off
      for (ParamExtent& x : e.params) {
        x.rows = read_u64(is);
        x.cols = read_u64(is);
        x.off = read_u64(is);
      }
    }
    const std::uint64_t failure_count =
        read_count(is, 3 * 8 + 4);  // src, dst, empty reason, attempts
    map->failures_.resize(failure_count);
    for (core::PairFailure& f : map->failures_) {
      f.src = read_u64(is);
      f.dst = read_u64(is);
      f.reason = read_string(is);
      f.attempts = read_u32(is);
    }
  } catch (const RuntimeError& e) {
    throw ArtifactError(ArtifactError::Section::kToc,
                        std::string("unparseable TOC: ") + e.what() + ": " +
                            path);
  }

  // Every extent the TOC points at must be inside the body, aligned as the
  // format promises, and internally consistent — checked once here so the
  // lazy materialization path can trust the entries.
  for (const EdgeEntry& e : map->edges_) {
    if (!e.has_model) continue;
    const bool meta_ok = e.meta_off >= kV4HeaderSize && e.meta_len <= toc_off &&
                         e.meta_off <= toc_off - e.meta_len;
    const bool weights_ok =
        e.weights_off % kV4PageAlign == 0 && e.weights_len <= toc_off &&
        e.weights_off >= kV4HeaderSize &&
        e.weights_off <= toc_off - e.weights_len;
    if (!meta_ok || !weights_ok) {
      throw ArtifactError(ArtifactError::Section::kToc,
                          "edge blob extent out of bounds: " + path);
    }
    for (const ParamExtent& x : e.params) {
      const std::uint64_t bytes = x.rows * x.cols * sizeof(float);
      const bool param_ok =
          x.rows < (1u << 24) && x.cols < (1u << 24) &&
          x.off % kV4WeightAlign == 0 && x.off >= e.weights_off &&
          bytes <= e.weights_len &&
          x.off <= e.weights_off + e.weights_len - bytes;
      if (!param_ok) {
        throw ArtifactError(ArtifactError::Section::kToc,
                            "parameter extent out of bounds: " + path);
      }
    }
  }
  map->verified_.assign(map->edges_.size(), false);
  return map;
}

ArtifactMap::~ArtifactMap() {
  if (mapped_) ::munmap(map_base_, size_);
}

const unsigned char* ArtifactMap::data() const {
  return mapped_ ? static_cast<const unsigned char*>(map_base_)
                 : heap_copy_.data();
}

void ArtifactMap::check_meta(std::size_t index) const {
  const EdgeEntry& e = edges_[index];
  if (util::crc32(data() + e.meta_off, e.meta_len) != e.meta_crc) {
    throw ArtifactError(
        ArtifactError::Section::kMeta,
        "meta blob checksum mismatch for edge " + std::to_string(e.src) +
            "->" + std::to_string(e.dst) + ": " + path_);
  }
}

void ArtifactMap::verify_edge(std::size_t index) {
  std::lock_guard<std::mutex> lock(verify_mutex_);
  if (verified_[index]) return;
  const EdgeEntry& e = edges_[index];
  check_meta(index);
  if (util::crc32(data() + e.weights_off, e.weights_len) != e.weights_crc) {
    throw ArtifactError(
        ArtifactError::Section::kWeights,
        "weight region checksum mismatch for edge " + std::to_string(e.src) +
            "->" + std::to_string(e.dst) + ": " + path_);
  }
  verified_[index] = true;
}

void ArtifactMap::verify_all() {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].has_model) verify_edge(i);
  }
}

std::pair<text::Vocabulary, text::Vocabulary> ArtifactMap::vocabularies(
    std::size_t index) const {
  DESMINE_EXPECTS(index < edges_.size() && edges_[index].has_model,
                  "edge has no model to read vocabularies from");
  check_meta(index);
  const EdgeEntry& e = edges_[index];
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data() + e.meta_off),
                  e.meta_len),
      std::ios::binary);
  text::Vocabulary src = read_vocabulary(is);
  text::Vocabulary tgt = read_vocabulary(is);
  return {std::move(src), std::move(tgt)};
}

std::shared_ptr<nmt::TranslationModel> ArtifactMap::materialize_edge(
    std::size_t index) {
  DESMINE_EXPECTS(index < edges_.size(), "edge index out of range");
  const EdgeEntry& e = edges_[index];
  DESMINE_EXPECTS(e.has_model, "edge has no model to materialize");
  verify_edge(index);

  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data() + e.meta_off),
                  e.meta_len),
      std::ios::binary);
  text::Vocabulary src_vocab = read_vocabulary(is);
  text::Vocabulary tgt_vocab = read_vocabulary(is);
  const nmt::Seq2SeqConfig config =
      read_seq2seq_config(is);

  auto model = std::make_unique<nmt::Seq2SeqModel>(
      src_vocab.size(), tgt_vocab.size(), config, util::Rng(0), nullptr,
      nn::WeightStorage::kDeferred);
  auto& params = model->params().params();
  if (params.size() != e.params.size()) {
    throw ArtifactError(ArtifactError::Section::kToc,
                        "parameter count mismatch materializing edge " +
                            std::to_string(e.src) + "->" +
                            std::to_string(e.dst) + ": " + path_);
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    const ParamExtent& x = e.params[k];
    nn::Param* p = params[k];
    if (x.rows != p->rows() || x.cols != p->cols()) {
      throw ArtifactError(ArtifactError::Section::kToc,
                          "parameter shape mismatch for " + p->name + ": " +
                              path_);
    }
    p->bind(tensor::ConstMatrixView(
        reinterpret_cast<const float*>(data() + x.off), x.rows, x.cols));
  }

  auto translation = std::make_shared<nmt::TranslationModel>(
      std::move(src_vocab), std::move(tgt_vocab), std::move(model));
  translation->pin_storage(shared_from_this());
  return translation;
}

std::uint64_t ArtifactMap::edge_cost_bytes(std::size_t index) const {
  DESMINE_EXPECTS(index < edges_.size(), "edge index out of range");
  const EdgeEntry& e = edges_[index];
  return e.meta_len + e.weights_len + kEdgeOverheadBytes;
}

core::Framework ArtifactMap::materialize_framework(
    core::FrameworkConfig config_overlay) {
  config_overlay.window = window_;
  core::MvrGraph graph(sensor_names_);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const EdgeEntry& entry = edges_[i];
    core::MvrEdge e;
    e.src = entry.src;
    e.dst = entry.dst;
    e.bleu = entry.bleu;
    e.runtime_seconds = entry.runtime_seconds;
    if (entry.has_model) e.model = materialize_edge(i);
    graph.add_edge(std::move(e));
  }
  for (const core::PairFailure& f : failures_) {
    graph.add_failure(f);
  }
  core::Framework framework(config_overlay);
  framework.restore(*encrypter_, std::move(graph));
  return framework;
}

}  // namespace desmine::io
