// Round-trip tests for artifact serialization: matrices, vocabularies,
// translation models, encrypters and whole-framework snapshots, plus the
// typed rejection of corrupt, hostile and legacy-version files.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/framework.h"
#include "data/plant.h"
#include "io/artifact_map.h"
#include "io/serialize.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"

namespace di = desmine::io;
namespace dc = desmine::core;
namespace dt = desmine::tensor;
namespace dx = desmine::text;
namespace dm = desmine::nmt;
namespace dd = desmine::data;
using desmine::util::Rng;

namespace {

/// Temp file path that cleans up on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path("/tmp/desmine_test_" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

}  // namespace

TEST(Serialize, MatrixRoundTrip) {
  Rng rng(1);
  dt::Matrix m(5, 7);
  m.init_uniform(rng, 1.0f);
  std::stringstream ss;
  di::write_matrix(ss, m);
  const dt::Matrix back = di::read_matrix(ss);
  ASSERT_TRUE(back.same_shape(m));
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], m.data()[i]);
  }
}

TEST(Serialize, VocabularyRoundTripPreservesIds) {
  const auto v = dx::Vocabulary::build({{"zeta", "alpha", "mid"}});
  std::stringstream ss;
  di::write_vocabulary(ss, v);
  const auto back = di::read_vocabulary(ss);
  EXPECT_EQ(back.size(), v.size());
  for (std::size_t id = 0; id < v.size(); ++id) {
    EXPECT_EQ(back.token(static_cast<std::int32_t>(id)),
              v.token(static_cast<std::int32_t>(id)));
  }
  EXPECT_EQ(back.id("zeta"), v.id("zeta"));
}

TEST(Serialize, TranslationModelRoundTripSameOutputs) {
  dx::Corpus src = {{"sa", "sb", "sa", "sb"}, {"sb", "sa", "sb", "sa"}};
  dx::Corpus tgt = {{"ta", "tb", "ta", "tb"}, {"tb", "ta", "tb", "ta"}};
  dm::TranslationConfig cfg;
  cfg.model.embedding_dim = 8;
  cfg.model.hidden_dim = 8;
  cfg.model.num_layers = 1;
  cfg.model.dropout = 0.0f;
  cfg.trainer.steps = 40;
  cfg.trainer.batch_size = 2;
  auto model = dm::train_translation_model(src, tgt, cfg, 5);

  std::stringstream ss;
  di::write_translation_model(ss, model, cfg.model);
  auto back = di::read_translation_model(ss);

  for (const auto& sentence : src) {
    EXPECT_EQ(back.translate(sentence), model.translate(sentence));
  }
  EXPECT_DOUBLE_EQ(back.score(src, tgt).score, model.score(src, tgt).score);
}

TEST(Serialize, CorruptStreamThrows) {
  std::stringstream ss("not an artifact at all");
  EXPECT_THROW(di::read_matrix(ss), desmine::RuntimeError);
}

TEST(Serialize, HostileCountsThrowBeforeAllocating) {
  // A count or length larger than the bytes left fails typed, whatever
  // reader meets it first (vocabulary, string, matrix, encrypter).
  const auto stream_with = [](std::uint64_t a, std::uint64_t b) {
    std::string bytes(2 * sizeof(std::uint64_t) + 16, '\0');
    std::memcpy(bytes.data(), &a, sizeof(a));
    std::memcpy(bytes.data() + sizeof(a), &b, sizeof(b));
    return std::stringstream(bytes);
  };
  for (const std::uint64_t n : {1ull << 20, 1ull << 40, 1ull << 62}) {
    auto vocab = stream_with(n, 0);
    EXPECT_THROW(di::read_vocabulary(vocab), desmine::RuntimeError) << n;
    auto encrypter = stream_with(n, 0);
    EXPECT_THROW(di::read_encrypter(encrypter), desmine::RuntimeError) << n;
  }
  // Dimensions under the sanity cap, but 2^40 floats in a 32-byte stream.
  auto matrix = stream_with(1 << 20, 1 << 20);
  EXPECT_THROW(di::read_matrix(matrix), desmine::RuntimeError);
}

TEST(Serialize, EncrypterRoundTrip) {
  dc::MultivariateSeries series = {
      {"s1", {"ON", "OFF", "ON"}},
      {"s2", {"x", "x", "x"}},  // dropped
      {"s3", {"low", "high", "mid"}},
  };
  const auto enc = dc::SensorEncrypter::fit(series);
  std::stringstream ss;
  di::write_encrypter(ss, enc);
  const auto back = di::read_encrypter(ss);
  EXPECT_EQ(back.kept_sensors(), enc.kept_sensors());
  EXPECT_EQ(back.dropped_sensors(), enc.dropped_sensors());
  EXPECT_EQ(back.encode("s1", {"OFF", "ON", "???"}),
            enc.encode("s1", {"OFF", "ON", "???"}));
  EXPECT_EQ(back.cardinality("s3"), 3u);
}

TEST(Serialize, FrameworkSnapshotDetectsIdentically) {
  // Small pipeline: fit, snapshot, reload, compare detection output.
  dd::PlantConfig pcfg;
  pcfg.num_components = 2;
  pcfg.sensors_per_component = 2;
  pcfg.num_popular = 0;
  pcfg.num_lazy = 0;
  pcfg.num_constant = 1;
  pcfg.days = 4;
  pcfg.minutes_per_day = 180;
  pcfg.anomalies = {{3, {0}}};
  pcfg.precursors = false;
  pcfg.seed = 9;
  const auto plant = dd::generate_plant(pcfg);

  dc::FrameworkConfig fcfg;
  fcfg.window.word_length = 5;
  fcfg.window.word_stride = 1;
  fcfg.window.sentence_length = 5;
  fcfg.window.sentence_stride = 5;
  fcfg.miner.translation.model.embedding_dim = 12;
  fcfg.miner.translation.model.hidden_dim = 12;
  fcfg.miner.translation.model.num_layers = 1;
  fcfg.miner.translation.model.dropout = 0.0f;
  fcfg.miner.translation.trainer.steps = 60;
  fcfg.miner.translation.trainer.batch_size = 4;
  fcfg.miner.seed = 3;
  fcfg.detector.valid_lo = 0.0;
  fcfg.detector.valid_hi = 100.5;

  dc::Framework fw(fcfg);
  fw.fit(plant.days_slice(0, 2), plant.days_slice(2, 1));

  const TempFile file("framework.bin");
  di::save_framework(fw, file.path);
  dc::Framework loaded = di::load_framework(file.path, fcfg);

  EXPECT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.graph().sensor_count(), fw.graph().sensor_count());
  EXPECT_EQ(loaded.graph().edges().size(), fw.graph().edges().size());
  for (std::size_t i = 0; i < fw.graph().edges().size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.graph().edges()[i].bleu,
                     fw.graph().edges()[i].bleu);
  }

  const auto test_slice = plant.days_slice(3, 1);
  const auto r1 = fw.detect(test_slice);
  const auto r2 = loaded.detect(test_slice);
  ASSERT_EQ(r1.anomaly_scores.size(), r2.anomaly_scores.size());
  for (std::size_t t = 0; t < r1.anomaly_scores.size(); ++t) {
    EXPECT_DOUBLE_EQ(r1.anomaly_scores[t], r2.anomaly_scores[t]);
  }
}

namespace {

/// Tiny trained pair-model artifact on disk; the corruption tests below
/// mutate copies of it. Pair models go through the same crash-safe
/// write_artifact_file / read_artifact_file path as framework snapshots.
std::string make_pair_artifact(const std::string& path) {
  dx::Corpus src = {{"sa", "sb", "sa", "sb"}, {"sb", "sa", "sb", "sa"}};
  dx::Corpus tgt = {{"ta", "tb", "ta", "tb"}, {"tb", "ta", "tb", "ta"}};
  dm::TranslationConfig cfg;
  cfg.model.embedding_dim = 8;
  cfg.model.hidden_dim = 8;
  cfg.model.num_layers = 1;
  cfg.model.dropout = 0.0f;
  cfg.trainer.steps = 30;
  cfg.trainer.batch_size = 2;
  auto model = dm::train_translation_model(src, tgt, cfg, 5);
  di::save_pair_model(path, model, cfg.model);
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(Serialize, PairModelArtifactRoundTrip) {
  const TempFile file("pair_roundtrip.bin");
  const std::string bytes = make_pair_artifact(file.path);
  ASSERT_GT(bytes.size(), 16u);  // header + payload + CRC trailer
  auto back = di::load_pair_model(file.path);
  EXPECT_GT(back.src_vocab().size(), 0u);
}

TEST(Serialize, TruncatedArtifactAlwaysThrows) {
  const TempFile file("pair_truncate.bin");
  const std::string bytes = make_pair_artifact(file.path);

  // Truncation points: empty file, mid-magic, exactly the header, mid-body,
  // up to each byte of the CRC trailer. Every one must raise RuntimeError —
  // never a crash, never a silently short model.
  const std::vector<std::size_t> cuts = {
      0, 1, 4, 7, 8, bytes.size() / 2, bytes.size() - 9,
      bytes.size() - 8, bytes.size() - 4, bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    write_bytes(file.path, bytes.substr(0, cut));
    EXPECT_THROW(di::load_pair_model(file.path), desmine::RuntimeError)
        << "truncation at byte " << cut << " was not rejected";
  }
}

TEST(Serialize, BitFlippedArtifactAlwaysThrows) {
  const TempFile file("pair_bitflip.bin");
  const std::string bytes = make_pair_artifact(file.path);

  // Flip one random byte per round (fixed seed => reproducible failures).
  // Every offset counts, the version field included: a sidecar is only ever
  // v3, so a flip there is rejected like any other.
  Rng rng(2024);
  for (int round = 0; round < 32; ++round) {
    const std::size_t offset = rng.index(bytes.size());
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(
        corrupt[offset] ^ static_cast<char>(rng.uniform_int(1, 255)));
    write_bytes(file.path, corrupt);
    EXPECT_THROW(di::load_pair_model(file.path), desmine::RuntimeError)
        << "byte flip at offset " << offset << " was not rejected";
  }
}

TEST(Serialize, PairModelRejectsOtherVersions) {
  const TempFile file("pair_versions.bin");
  const std::string bytes = make_pair_artifact(file.path);
  const auto with_version = [](std::string b, std::uint32_t version) {
    std::memcpy(b.data() + 4, &version, sizeof(version));
    return b;
  };
  for (const std::uint32_t version : {0u, 1u, 2u, 4u, 5u}) {
    write_bytes(file.path, with_version(bytes, version));
    EXPECT_THROW(di::load_pair_model(file.path), desmine::RuntimeError)
        << "version " << version << " sidecar was not rejected";
  }
  // A version field reading 2 must not bypass the CRC either: with a byte
  // of the last weight tensor flipped too (the payload ends just before
  // the 8-byte CRC trailer), the sidecar must still be refused.
  std::string corrupt = with_version(bytes, 2);
  const std::size_t at = corrupt.size() - 8 - 2;
  corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
  write_bytes(file.path, corrupt);
  EXPECT_THROW(di::load_pair_model(file.path), desmine::RuntimeError);
}

TEST(Serialize, CorruptFrameworkSnapshotThrows) {
  // A flipped weight byte in a saved snapshot must be caught by the edge's
  // weight CRC before it can score.
  dd::PlantConfig pcfg;
  pcfg.num_components = 1;
  pcfg.sensors_per_component = 2;
  pcfg.num_popular = 0;
  pcfg.num_lazy = 0;
  pcfg.num_constant = 0;
  pcfg.days = 2;
  pcfg.minutes_per_day = 60;
  pcfg.anomalies.clear();
  pcfg.precursors = false;
  pcfg.seed = 9;
  const auto plant = dd::generate_plant(pcfg);

  dc::FrameworkConfig fcfg;
  fcfg.window.word_length = 5;
  fcfg.window.word_stride = 1;
  fcfg.window.sentence_length = 5;
  fcfg.window.sentence_stride = 5;
  fcfg.miner.translation.model.embedding_dim = 8;
  fcfg.miner.translation.model.hidden_dim = 8;
  fcfg.miner.translation.model.num_layers = 1;
  fcfg.miner.translation.model.dropout = 0.0f;
  fcfg.miner.translation.trainer.steps = 20;
  fcfg.miner.translation.trainer.batch_size = 4;
  fcfg.miner.seed = 3;
  dc::Framework fw(fcfg);
  fw.fit(plant.days_slice(0, 1), plant.days_slice(1, 1));

  const TempFile file("framework_corrupt.bin");
  di::save_framework(fw, file.path);
  // Flip a byte inside the first model edge's weight region, a
  // CRC-covered position.
  std::size_t flip_at = 0;
  {
    const auto map = di::ArtifactMap::open(file.path);
    for (const di::EdgeEntry& e : map->edges()) {
      if (e.has_model) {
        flip_at = e.weights_off + e.weights_len / 2;
        break;
      }
    }
  }
  ASSERT_GT(flip_at, 0u);
  std::ifstream is(file.path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string bytes = buf.str();
  bytes[flip_at] = static_cast<char>(bytes[flip_at] ^ 0x40);
  write_bytes(file.path, bytes);
  EXPECT_THROW(di::load_framework(file.path, fcfg), desmine::RuntimeError);
}

TEST(Serialize, AtomicWriteLeavesExistingArtifactIntactOnFailure) {
  const TempFile file("pair_atomic.bin");
  const std::string bytes = make_pair_artifact(file.path);
  // Writing to a path whose parent directory vanished must throw and must
  // not disturb an existing artifact at a different path.
  EXPECT_THROW(
      di::write_artifact_file("/tmp/desmine_missing_dir/x/y.bin", "payload"),
      desmine::RuntimeError);
  auto back = di::load_pair_model(file.path);
  EXPECT_GT(back.src_vocab().size(), 0u);
}

TEST(Serialize, SaveUnfittedFrameworkThrows) {
  dc::Framework fw(dc::FrameworkConfig{});
  EXPECT_THROW(di::save_framework(fw, "/tmp/desmine_nope.bin"),
               desmine::PreconditionError);
}

TEST(Serialize, LoadMissingFileThrows) {
  EXPECT_THROW(di::load_framework("/tmp/desmine_does_not_exist.bin"),
               desmine::RuntimeError);
}

// ---------------------------------------------------------------------------
// Mapped (v4) model store: round trip, typed corruption errors, hostile
// TOC counts, page sharing, heap fallback (DESIGN.md §15).
// ---------------------------------------------------------------------------

namespace {

/// One small fitted framework shared by the v4 tests (training dominates
/// test time; the artifact tests only need *a* graph with real models).
const dc::Framework& fitted_framework() {
  static const dc::Framework* fw = [] {
    dd::PlantConfig pcfg;
    pcfg.num_components = 2;
    pcfg.sensors_per_component = 2;
    pcfg.num_popular = 0;
    pcfg.num_lazy = 0;
    pcfg.num_constant = 0;
    pcfg.days = 4;
    pcfg.minutes_per_day = 180;
    pcfg.anomalies = {{3, {0}}};
    pcfg.precursors = false;
    pcfg.seed = 9;
    const auto plant = dd::generate_plant(pcfg);

    dc::FrameworkConfig fcfg;
    fcfg.window.word_length = 5;
    fcfg.window.word_stride = 1;
    fcfg.window.sentence_length = 5;
    fcfg.window.sentence_stride = 5;
    fcfg.miner.translation.model.embedding_dim = 12;
    fcfg.miner.translation.model.hidden_dim = 12;
    fcfg.miner.translation.model.num_layers = 1;
    fcfg.miner.translation.model.dropout = 0.0f;
    fcfg.miner.translation.trainer.steps = 60;
    fcfg.miner.translation.trainer.batch_size = 4;
    fcfg.miner.seed = 3;
    fcfg.detector.valid_lo = 0.0;
    fcfg.detector.valid_hi = 100.5;
    auto* out = new dc::Framework(fcfg);
    out->fit(plant.days_slice(0, 2), plant.days_slice(2, 1));
    return out;
  }();
  return *fw;
}

dc::MultivariateSeries v4_test_slice() {
  dd::PlantConfig pcfg;
  pcfg.num_components = 2;
  pcfg.sensors_per_component = 2;
  pcfg.num_popular = 0;
  pcfg.num_lazy = 0;
  pcfg.num_constant = 0;
  pcfg.days = 4;
  pcfg.minutes_per_day = 180;
  pcfg.anomalies = {{3, {0}}};
  pcfg.precursors = false;
  pcfg.seed = 9;
  return dd::generate_plant(pcfg).days_slice(3, 1);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// True when the CI heap-fallback job disables mmap process-wide; tests
/// that assert on the mapping itself adapt or skip.
bool forced_heap() {
  const char* v = std::getenv("DESMINE_FORCE_HEAP_FALLBACK");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

}  // namespace

TEST(ArtifactV4, OnlyV4RoundTripsBitIdentically) {
  // The v4 round trip is bit-identical: IEEE-754 equality, not tolerance —
  // the weight bytes are the same bytes. v1–v3 framework files do not load:
  // load_framework names the version in a kHeader error, both for the v4
  // bytes re-labelled v1..v3 and for a genuine v3 stream (a pair sidecar).
  const dc::Framework& fw = fitted_framework();
  const auto test_slice = v4_test_slice();
  const auto expect = fw.detect(test_slice);
  const TempFile file("v4_roundtrip.bin");
  di::save_framework(fw, file.path);
  dc::Framework loaded = di::load_framework(file.path, fw.config());
  const auto got = loaded.detect(test_slice);
  ASSERT_EQ(got.anomaly_scores.size(), expect.anomaly_scores.size());
  for (std::size_t t = 0; t < expect.anomaly_scores.size(); ++t) {
    EXPECT_DOUBLE_EQ(got.anomaly_scores[t], expect.anomaly_scores[t])
        << "tick " << t;
  }

  const auto expect_header_error = [&fw](const std::string& path,
                                         std::uint32_t version) {
    try {
      di::load_framework(path, fw.config());
      FAIL() << "version " << version << " file loaded";
    } catch (const di::ArtifactError& e) {
      EXPECT_EQ(e.section(), di::ArtifactError::Section::kHeader);
      EXPECT_NE(std::string(e.what()).find("version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  };
  const std::string bytes = slurp(file.path);
  for (std::uint32_t version = 1; version <= 3; ++version) {
    std::string patched = bytes;
    std::memcpy(patched.data() + 4, &version, sizeof(version));
    write_bytes(file.path, patched);
    expect_header_error(file.path, version);
  }
  const TempFile sidecar("v4_legacy_sidecar.bin");
  make_pair_artifact(sidecar.path);
  expect_header_error(sidecar.path, 3);
}

namespace {

/// Overwrite the u64 at `at` with `value`, then recompute the TOC and header
/// CRCs so that only the value itself can fail the open.
void patch_u64_resealed(std::string& bytes, std::size_t at,
                        std::uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  std::uint64_t toc_off = 0, toc_len = 0;
  std::memcpy(&toc_off, bytes.data() + 16, sizeof(toc_off));
  std::memcpy(&toc_len, bytes.data() + 24, sizeof(toc_len));
  const std::uint32_t toc_crc =
      desmine::util::crc32(bytes.data() + toc_off, toc_len);
  std::memcpy(bytes.data() + 48, &toc_crc, sizeof(toc_crc));
  const std::uint32_t header_crc = desmine::util::crc32(bytes.data(), 52);
  std::memcpy(bytes.data() + 52, &header_crc, sizeof(header_crc));
}

}  // namespace

TEST(ArtifactV4, HostileTocCountsRaiseTypedTocErrors) {
  // A CRC-clean TOC can still carry absurd counts. Each must fail the open
  // as ArtifactError kToc, never as std::bad_alloc / std::length_error.
  const dc::Framework& fw = fitted_framework();
  ASSERT_TRUE(fw.graph().failures().empty());
  const TempFile file("v4_hostile.bin");
  di::save_framework(fw, file.path);
  const std::string clean = slurp(file.path);

  // TOC: window (4 u64) | encrypter | sensor count, names | edge count, ...
  // | failure count (the last 8 bytes when there are no failures).
  std::uint64_t toc_off = 0;
  std::memcpy(&toc_off, clean.data() + 16, sizeof(toc_off));
  std::ostringstream enc;
  di::write_encrypter(enc, fw.encrypter());
  const std::size_t sensor_count_at = toc_off + 32 + enc.str().size();
  std::size_t edge_count_at = sensor_count_at + 8;
  for (const std::string& name : fw.graph().sensor_names()) {
    edge_count_at += 8 + name.size();
  }
  const std::size_t name_len_at = sensor_count_at + 8;
  const std::size_t failure_count_at = clean.size() - 8;

  struct Case {
    const char* what;
    std::vector<std::size_t> at;
    std::uint64_t value;
  };
  const std::vector<Case> cases = {
      {"failure count 2^40", {failure_count_at}, 1ull << 40},
      {"failure count 2^62", {failure_count_at}, 1ull << 62},
      {"sensor-name length 2^62", {name_len_at}, 1ull << 62},
      {"header + TOC edge count 2^40", {32, edge_count_at}, 1ull << 40},
  };
  for (const Case& c : cases) {
    std::string bytes = clean;
    for (const std::size_t at : c.at) patch_u64_resealed(bytes, at, c.value);
    write_bytes(file.path, bytes);
    try {
      di::ArtifactMap::open(file.path);
      FAIL() << c.what << " was not rejected";
    } catch (const di::ArtifactError& e) {
      EXPECT_EQ(e.section(), di::ArtifactError::Section::kToc)
          << c.what << ": " << e.what();
    }
  }
}

TEST(ArtifactV4, MapExposesGraphStructure) {
  const dc::Framework& fw = fitted_framework();
  const TempFile file("v4_structure.bin");
  di::save_framework(fw, file.path);
  const auto map = di::ArtifactMap::open(file.path);
  EXPECT_EQ(map->mapped(), !forced_heap());
  EXPECT_EQ(map->sensor_names(), fw.graph().sensor_names());
  ASSERT_EQ(map->edges().size(), fw.graph().edges().size());
  EXPECT_EQ(map->encrypter().kept_sensors(), fw.encrypter().kept_sensors());
  EXPECT_EQ(map->window().word_length, fw.config().window.word_length);
  for (std::size_t i = 0; i < map->edges().size(); ++i) {
    const di::EdgeEntry& e = map->edges()[i];
    EXPECT_EQ(e.src, fw.graph().edges()[i].src);
    EXPECT_EQ(e.dst, fw.graph().edges()[i].dst);
    EXPECT_DOUBLE_EQ(e.bleu, fw.graph().edges()[i].bleu);
    if (e.has_model) {
      EXPECT_EQ(e.weights_off % di::kV4PageAlign, 0u);
      for (const di::ParamExtent& x : e.params) {
        EXPECT_EQ(x.off % di::kV4WeightAlign, 0u);
      }
    }
  }
}

TEST(ArtifactV4, TruncationRaisesTypedErrors) {
  const dc::Framework& fw = fitted_framework();
  const TempFile file("v4_truncate.bin");
  di::save_framework(fw, file.path);
  const std::string bytes = slurp(file.path);
  ASSERT_GT(bytes.size(), di::kV4HeaderSize);

  const std::vector<std::size_t> cuts = {0, 1, 16, di::kV4HeaderSize - 1,
                                         di::kV4HeaderSize, bytes.size() / 2,
                                         bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    write_bytes(file.path, bytes.substr(0, cut));
    try {
      di::ArtifactMap::open(file.path);
      FAIL() << "truncation at byte " << cut << " was not rejected";
    } catch (const di::ArtifactError& e) {
      EXPECT_EQ(e.section(), di::ArtifactError::Section::kTruncated)
          << "cut " << cut << ": " << e.what();
    }
  }
}

TEST(ArtifactV4, BitFlipsRaiseSectionTypedErrors) {
  const dc::Framework& fw = fitted_framework();
  const TempFile file("v4_bitflip.bin");
  di::save_framework(fw, file.path);
  const std::string clean = slurp(file.path);

  // Locate each section with a clean map, then corrupt them one at a time.
  std::size_t meta_at = 0, weights_at = 0, weights_last = 0, toc_at = 0;
  std::size_t flip_edge = 0;
  {
    const auto map = di::ArtifactMap::open(file.path);
    for (std::size_t i = 0; i < map->edges().size(); ++i) {
      const di::EdgeEntry& e = map->edges()[i];
      if (e.has_model) {
        flip_edge = i;
        meta_at = e.meta_off + e.meta_len / 2;
        weights_at = e.weights_off + 64;  // inside the first parameter
        // The region's last byte: where CRC folding hands off to the
        // byte-at-a-time tail.
        weights_last = e.weights_off + e.weights_len - 1;
        break;
      }
    }
    toc_at = clean.size() - 8;  // inside the TOC (its tail is the last bytes)
  }
  ASSERT_GT(meta_at, 0u);
  ASSERT_GT(weights_at, 0u);

  const auto flipped = [&clean](std::size_t at) {
    std::string bytes = clean;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
    return bytes;
  };

  // Header flip (inside the CRC-covered span): rejected at open.
  write_bytes(file.path, flipped(20));
  try {
    di::ArtifactMap::open(file.path);
    FAIL() << "header flip not rejected";
  } catch (const di::ArtifactError& e) {
    EXPECT_EQ(e.section(), di::ArtifactError::Section::kHeader);
  }

  // TOC flip: rejected at open.
  write_bytes(file.path, flipped(toc_at));
  try {
    di::ArtifactMap::open(file.path);
    FAIL() << "TOC flip not rejected";
  } catch (const di::ArtifactError& e) {
    EXPECT_EQ(e.section(), di::ArtifactError::Section::kToc);
  }

  // Meta flip: open succeeds (lazy), first materialization of that edge
  // throws kMeta; other edges stay servable.
  write_bytes(file.path, flipped(meta_at));
  {
    const auto map = di::ArtifactMap::open(file.path);
    try {
      map->materialize_edge(flip_edge);
      FAIL() << "meta flip not rejected";
    } catch (const di::ArtifactError& e) {
      EXPECT_EQ(e.section(), di::ArtifactError::Section::kMeta);
    }
  }

  // Weight-page flip: same lazy contract, kWeights.
  write_bytes(file.path, flipped(weights_at));
  {
    const auto map = di::ArtifactMap::open(file.path);
    try {
      map->materialize_edge(flip_edge);
      FAIL() << "weight flip not rejected";
    } catch (const di::ArtifactError& e) {
      EXPECT_EQ(e.section(), di::ArtifactError::Section::kWeights);
    }
  }

  // Flip of the weight region's last byte: kWeights as well.
  ASSERT_GT(weights_last, weights_at);
  write_bytes(file.path, flipped(weights_last));
  {
    const auto map = di::ArtifactMap::open(file.path);
    try {
      map->materialize_edge(flip_edge);
      FAIL() << "flip of the last weight byte not rejected";
    } catch (const di::ArtifactError& e) {
      EXPECT_EQ(e.section(), di::ArtifactError::Section::kWeights);
    }
  }
}

TEST(ArtifactV4, HeapFallbackIsBitIdentical) {
  const dc::Framework& fw = fitted_framework();
  const auto test_slice = v4_test_slice();
  const TempFile file("v4_heap.bin");
  di::save_framework(fw, file.path);

  di::ArtifactMapOptions opt;
  opt.force_heap = true;
  const auto map = di::ArtifactMap::open(file.path, opt);
  EXPECT_FALSE(map->mapped());
  dc::Framework loaded = map->materialize_framework(fw.config());
  const auto expect = fw.detect(test_slice);
  const auto got = loaded.detect(test_slice);
  ASSERT_EQ(got.anomaly_scores.size(), expect.anomaly_scores.size());
  for (std::size_t t = 0; t < expect.anomaly_scores.size(); ++t) {
    EXPECT_DOUBLE_EQ(got.anomaly_scores[t], expect.anomaly_scores[t]);
  }
}

TEST(ArtifactV4, MappedModelsRefuseTraining) {
  const dc::Framework& fw = fitted_framework();
  const TempFile file("v4_frozen.bin");
  di::save_framework(fw, file.path);
  const auto map = di::ArtifactMap::open(file.path);
  for (std::size_t i = 0; i < map->edges().size(); ++i) {
    if (!map->edges()[i].has_model) continue;
    const auto model = map->materialize_edge(i);
    EXPECT_FALSE(model->model().trainable());
    EXPECT_THROW(model->model().train_batch({}), desmine::PreconditionError);
    break;
  }
}

TEST(ArtifactV4, PairModelSidecarsStayStreamV3) {
  const TempFile file("v4_sidecar.bin");
  const std::string bytes = make_pair_artifact(file.path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "DESM");
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, di::kStreamArtifactVersion);
}

#ifdef __linux__
namespace {

/// Sum one smaps field (kB) over every mapping of `path`.
std::size_t smaps_field_kb(const std::string& path, const std::string& field) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool in_target = false;
  std::size_t total = 0;
  while (std::getline(smaps, line)) {
    // Mapping headers look like "7f12...-7f34... r--s 00000000 08:01 ...";
    // field lines like "Shared_Clean:  4 kB". The address range in the first
    // token (and only there) contains '-'.
    const std::string first = line.substr(0, line.find(' '));
    if (first.find('-') != std::string::npos) {
      in_target = line.size() >= path.size() &&
                  line.compare(line.size() - path.size(), path.size(),
                               path) == 0;
      continue;
    }
    if (in_target && line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      std::size_t kb = 0;
      fields >> kb;
      total += kb;
    }
  }
  return total;
}

}  // namespace

TEST(ArtifactV4, TwoMapsShareCleanPages) {
  if (forced_heap()) GTEST_SKIP() << "mmap disabled via env";
  const dc::Framework& fw = fitted_framework();
  const TempFile file("v4_share.bin");
  di::save_framework(fw, file.path);

  const auto a = di::ArtifactMap::open(file.path);
  const auto b = di::ArtifactMap::open(file.path);
  ASSERT_TRUE(a->mapped());
  ASSERT_TRUE(b->mapped());
  // Touch every weight page through both maps (CRC sweep reads all bytes).
  for (std::size_t i = 0; i < a->edges().size(); ++i) {
    if (!a->edges()[i].has_model) continue;
    a->materialize_edge(i);
    b->materialize_edge(i);
  }
  // Read-only MAP_SHARED file pages: nothing may be private-dirty, and the
  // doubly-mapped weight pages must show up as shared in at least one
  // mapping — the kernel holds ONE physical copy for both maps.
  EXPECT_EQ(smaps_field_kb(file.path, "Private_Dirty"), 0u);
  EXPECT_GT(smaps_field_kb(file.path, "Shared_Clean"), 0u);
}
#endif  // __linux__
