#include "io/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "io/artifact_map.h"
#include "io/wire.h"
#include "robust/fault_injector.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"

namespace desmine::io {

namespace {

constexpr char kMagic[4] = {'D', 'E', 'S', 'M'};
constexpr char kCrcMagic[4] = {'C', 'R', 'C', '1'};
constexpr std::size_t kCrcTrailerSize = 8;  // magic + u32 crc

using wire::expect_fits;
using wire::read_count;
using wire::read_string;
using wire::read_u32;
using wire::read_u64;
using wire::write_f32;
using wire::write_string;
using wire::write_u32;
using wire::write_u64;

/// Stream header: magic "DESM" + kStreamArtifactVersion.
void write_header(std::ostream& os) {
  os.write(kMagic, 4);
  write_u32(os, kStreamArtifactVersion);
}

/// Validate the magic and the version: only kStreamArtifactVersion is a
/// stream.
void read_header(std::istream& is) {
  char magic[4] = {};
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != std::string(kMagic, 4)) {
    throw RuntimeError("not a desmine artifact (bad magic)");
  }
  const std::uint32_t version = read_u32(is);
  if (version != kStreamArtifactVersion) {
    throw RuntimeError("unsupported stream artifact version " +
                       std::to_string(version));
  }
}

}  // namespace

void write_seq2seq_config(std::ostream& os, const nmt::Seq2SeqConfig& c) {
  write_u64(os, c.embedding_dim);
  write_u64(os, c.hidden_dim);
  write_u64(os, c.num_layers);
  write_f32(os, c.dropout);
  write_f32(os, c.init_scale);
  write_u64(os, c.max_decode_length);
  write_u32(os, static_cast<std::uint32_t>(c.attention));
}

nmt::Seq2SeqConfig read_seq2seq_config(std::istream& is) {
  nmt::Seq2SeqConfig c;
  c.embedding_dim = read_u64(is);
  c.hidden_dim = read_u64(is);
  c.num_layers = read_u64(is);
  is.read(reinterpret_cast<char*>(&c.dropout), sizeof(float));
  is.read(reinterpret_cast<char*>(&c.init_scale), sizeof(float));
  c.max_decode_length = read_u64(is);
  if (!is) throw RuntimeError("unexpected end of stream reading config");
  c.attention = static_cast<nn::AttentionScore>(read_u32(is));
  return c;
}

std::string seq2seq_config_error(const nmt::Seq2SeqConfig& c) {
  const auto field = [](const char* name, const std::string& value,
                        const char* rule) {
    return "model config field '" + std::string(name) + "' is " + value +
           ", must " + rule;
  };
  if (c.embedding_dim == 0) return field("embedding_dim", "0", "be > 0");
  if (c.hidden_dim == 0) return field("hidden_dim", "0", "be > 0");
  if (c.num_layers == 0) return field("num_layers", "0", "be > 0");
  if (!(c.dropout >= 0.0f && c.dropout < 1.0f)) {
    return field("dropout", std::to_string(c.dropout), "lie in [0, 1)");
  }
  const auto attention = static_cast<std::uint32_t>(c.attention);
  if (attention > static_cast<std::uint32_t>(nn::AttentionScore::kDot)) {
    return field("attention", std::to_string(attention),
                 "be 0 (general) or 1 (dot)");
  }
  return {};
}

void write_matrix(std::ostream& os, tensor::ConstMatrixView m) {
  write_u64(os, m.rows());
  write_u64(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
}

tensor::Matrix read_matrix(std::istream& is) {
  const std::uint64_t rows = read_u64(is);
  const std::uint64_t cols = read_u64(is);
  // Sanity cap (it also keeps rows * cols from overflowing): no desmine
  // tensor is anywhere near this large.
  if (rows > (1u << 24) || cols > (1u << 24)) {
    throw RuntimeError("implausible matrix dimensions in artifact");
  }
  expect_fits(is, rows * cols, sizeof(float));
  tensor::Matrix m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!is) throw RuntimeError("unexpected end of stream reading matrix");
  return m;
}

void write_vocabulary(std::ostream& os, const text::Vocabulary& v) {
  // The four specials are implicit (ids 0..3); persist the rest in order.
  write_u64(os, v.size() - 4);
  for (std::size_t id = 4; id < v.size(); ++id) {
    write_string(os, v.token(static_cast<std::int32_t>(id)));
  }
}

text::Vocabulary read_vocabulary(std::istream& is) {
  const std::uint64_t extra = read_count(is, sizeof(std::uint64_t));
  text::Corpus corpus;
  text::Sentence all;
  all.reserve(extra);
  for (std::uint64_t i = 0; i < extra; ++i) all.push_back(read_string(is));
  corpus.push_back(std::move(all));
  return text::Vocabulary::build(corpus);
}

void write_translation_model(std::ostream& os, nmt::TranslationModel& model,
                             const nmt::Seq2SeqConfig& config) {
  write_vocabulary(os, model.src_vocab());
  write_vocabulary(os, model.tgt_vocab());
  write_seq2seq_config(os, config);
  const auto& params = model.model().params().params();
  write_u64(os, params.size());
  // Weights are read through view(), so a mapped model deep-copies to an
  // owned stream exactly like a heap model.
  for (const nn::Param* p : params) write_matrix(os, p->view());
}

nmt::TranslationModel read_translation_model(std::istream& is) {
  text::Vocabulary src_vocab = read_vocabulary(is);
  text::Vocabulary tgt_vocab = read_vocabulary(is);
  const nmt::Seq2SeqConfig config = read_seq2seq_config(is);
  if (const std::string why = seq2seq_config_error(config); !why.empty()) {
    throw RuntimeError("implausible artifact: " + why);
  }
  // The weights the config implies must fit in what is left: per tensor,
  // its two u64 dimensions and its floats.
  const nmt::ParameterFootprint need =
      nmt::parameter_footprint(src_vocab.size(), tgt_vocab.size(), config);
  try {
    expect_fits(is, need.tensors, 2 * sizeof(std::uint64_t));
    expect_fits(is, need.floats, sizeof(float));
  } catch (const RuntimeError& e) {
    throw RuntimeError("implausible artifact: model config implies " +
                       std::to_string(need.tensors) + " tensors of " +
                       std::to_string(need.floats) + " floats (" + e.what() +
                       ")");
  }

  auto model = std::make_unique<nmt::Seq2SeqModel>(
      src_vocab.size(), tgt_vocab.size(), config, util::Rng(0));
  auto& params = model->params().params();
  const std::uint64_t count = read_u64(is);
  if (count != params.size()) {
    throw RuntimeError("parameter count mismatch in artifact");
  }
  for (nn::Param* p : params) {
    tensor::Matrix m = read_matrix(is);
    if (!m.same_shape(p->value)) {
      throw RuntimeError("parameter shape mismatch for " + p->name);
    }
    p->value = std::move(m);
  }
  return nmt::TranslationModel(std::move(src_vocab), std::move(tgt_vocab),
                               std::move(model));
}

void write_encrypter(std::ostream& os, const core::SensorEncrypter& enc) {
  write_u64(os, enc.kept_sensors().size());
  for (const std::string& name : enc.kept_sensors()) {
    const auto& encoding = enc.encoding(name);
    write_string(os, encoding.sensor);
    write_u64(os, encoding.to_char.size());
    for (const auto& [state, letter] : encoding.to_char) {
      write_string(os, state);
      os.put(letter);
    }
  }
  write_u64(os, enc.dropped_sensors().size());
  for (const std::string& name : enc.dropped_sensors()) {
    write_string(os, name);
  }
}

core::SensorEncrypter read_encrypter(std::istream& is) {
  const std::uint64_t kept = read_count(is, 2 * sizeof(std::uint64_t));
  std::vector<core::SensorEncrypter::Encoding> encodings;
  encodings.reserve(kept);
  for (std::uint64_t i = 0; i < kept; ++i) {
    core::SensorEncrypter::Encoding e;
    e.sensor = read_string(is);
    const std::uint64_t states = read_count(is, sizeof(std::uint64_t) + 1);
    for (std::uint64_t s = 0; s < states; ++s) {
      std::string state = read_string(is);
      const int letter = is.get();
      if (letter == std::char_traits<char>::eof()) {
        throw RuntimeError("unexpected end of stream reading encoding");
      }
      e.to_char.emplace(std::move(state), static_cast<char>(letter));
    }
    encodings.push_back(std::move(e));
  }
  const std::uint64_t dropped = read_count(is, sizeof(std::uint64_t));
  std::vector<std::string> dropped_names;
  dropped_names.reserve(dropped);
  for (std::uint64_t i = 0; i < dropped; ++i) {
    dropped_names.push_back(read_string(is));
  }
  return core::SensorEncrypter::from_encodings(std::move(encodings),
                                               std::move(dropped_names));
}

void write_file_atomic(const std::string& path, std::string_view payload) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw RuntimeError("cannot open for writing: " + tmp + ": " +
                       std::strerror(errno));
  }
  bool ok = std::fwrite(payload.data(), 1, payload.size(), f) ==
            payload.size();
  ok = ok && std::fflush(f) == 0;
  ok = ok && ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw RuntimeError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw RuntimeError("cannot rename " + tmp + " -> " + path + ": " +
                       std::strerror(errno));
  }
  // fsync the directory so the rename itself survives a crash.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." :
                          path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void write_artifact_file(const std::string& path, std::string_view payload) {
  const std::uint32_t crc = util::crc32(payload);
  std::string bytes(payload);
  bytes.append(kCrcMagic, 4);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  write_file_atomic(path, bytes);
}

std::string read_artifact_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw RuntimeError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string bytes = std::move(buf).str();

  if (bytes.size() < 8) {
    throw RuntimeError("artifact truncated (no header): " + path);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (std::memcmp(bytes.data(), kMagic, 4) == 0 &&
      version != kStreamArtifactVersion) {
    throw ArtifactError(ArtifactError::Section::kHeader,
                        "not a stream (v3) artifact: version " +
                            std::to_string(version) + ": " + path);
  }
  if (bytes.size() < 8 + kCrcTrailerSize ||
      std::memcmp(bytes.data() + bytes.size() - kCrcTrailerSize, kCrcMagic,
                  4) != 0) {
    throw RuntimeError("artifact truncated (missing CRC trailer): " + path);
  }
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - 4, sizeof(stored));
  bytes.resize(bytes.size() - kCrcTrailerSize);
  if (stored != util::crc32(bytes)) {
    throw RuntimeError("artifact checksum mismatch (corrupt or truncated): " +
                       path);
  }
  return bytes;
}

void save_pair_model(const std::string& path, nmt::TranslationModel& model,
                     const nmt::Seq2SeqConfig& config) {
  std::ostringstream os(std::ios::binary);
  write_header(os);
  write_translation_model(os, model, config);
  if (!os) throw RuntimeError("serialization failed for " + path);
  write_artifact_file(path, os.str());
}

nmt::TranslationModel load_pair_model(const std::string& path) {
  if (robust::fire_fault("model.load", 0) == robust::FaultAction::kThrow) {
    throw RuntimeError("injected fault at model.load for " + path);
  }
  std::istringstream is(read_artifact_file(path), std::ios::binary);
  read_header(is);
  return read_translation_model(is);
}

core::Framework load_framework(const std::string& path,
                               core::FrameworkConfig config_overlay) {
  if (robust::fire_fault("model.load", 0) == robust::FaultAction::kThrow) {
    throw RuntimeError("injected fault at model.load for " + path);
  }
  // Header + TOC verified eagerly, models bound as zero-copy views; the
  // returned models pin the map for their lifetime.
  return ArtifactMap::open(path)->materialize_framework(
      std::move(config_overlay));
}

}  // namespace desmine::io
