// Integration tests for the desmine_inspect exit-code contract (README.md):
//   0    artifact ok
//   1    corrupt/unreadable artifact
//   2    usage error
// The binary path is injected by CMake as DESMINE_INSPECT_PATH. The tests
// build real artifacts in-process, then drive the tool as a subprocess — the
// same way an operator or a CI integrity gate would.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/framework.h"
#include "data/plant.h"
#include "io/artifact_map.h"
#include "io/serialize.h"
#include "obs/json.h"
#include "util/crc32.h"

namespace di = desmine::io;
namespace dc = desmine::core;
namespace dd = desmine::data;

namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path("/tmp/desmine_inspect_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// Run desmine_inspect with `args`; returns {exit code, stdout + stderr}.
std::pair<int, std::string> run_inspect(const std::string& args) {
  const TempFile out("stdout.txt");
  const std::string cmd = std::string(DESMINE_INSPECT_PATH) + " " + args +
                          " >" + out.path + " 2>&1";
  const int status = std::system(cmd.c_str());
  std::ifstream is(out.path);
  std::ostringstream buf;
  buf << is.rdbuf();
  if (status < 0 || !WIFEXITED(status)) return {-1, buf.str()};
  return {WEXITSTATUS(status), buf.str()};
}

/// One small fitted framework shared by every test.
const dc::Framework& fitted_framework() {
  static const dc::Framework* fw = [] {
    dd::PlantConfig pcfg;
    pcfg.num_components = 2;
    pcfg.sensors_per_component = 2;
    pcfg.num_popular = 0;
    pcfg.num_lazy = 0;
    pcfg.num_constant = 0;
    pcfg.days = 3;
    pcfg.minutes_per_day = 180;
    pcfg.anomalies = {};
    pcfg.precursors = false;
    pcfg.seed = 11;
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
    fcfg.miner.translation.trainer.steps = 40;
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

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void flip_byte(const std::string& path, std::size_t at) {
  std::string bytes = slurp(path);
  ASSERT_LT(at, bytes.size());
  bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
  write_bytes(path, bytes);
}

}  // namespace

TEST(InspectCli, NoArgumentsIsUsageError) {
  EXPECT_EQ(run_inspect("").first, 2);
}

TEST(InspectCli, UnknownOptionIsUsageError) {
  // Rejected before the file is opened, so a misspelling never runs.
  EXPECT_EQ(run_inspect("--model /tmp/desmine_inspect_no_such_file.bin "
                        "--edgez 4")
                .first,
            2);
}

TEST(InspectCli, MissingFileIsRuntimeError) {
  EXPECT_EQ(run_inspect("--model /tmp/desmine_inspect_no_such_file.bin").first,
            1);
}

TEST(InspectCli, MappedArtifactTextDump) {
  const TempFile file("v4.bin");
  di::save_framework(fitted_framework(), file.path);
  const auto [code, out] = run_inspect("--model " + file.path);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("artifact v4 (mapped"), std::string::npos) << out;
  EXPECT_NE(out.find("header OK, TOC OK"), std::string::npos) << out;
}

TEST(InspectCli, MappedArtifactJsonDump) {
  const TempFile file("v4j.bin");
  di::save_framework(fitted_framework(), file.path);
  const auto [code, out] = run_inspect("--model " + file.path + " --json");
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("\"version\":4"), std::string::npos) << out;
  EXPECT_NE(out.find("\"layout\":\"mapped\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"edge_table\":["), std::string::npos) << out;
}

TEST(InspectCli, JsonDumpIsOneDocumentForAControlCharacterPath) {
  // The document is built by obs::JsonWriter: a path with a control byte
  // is escaped, and s(i,j) keeps 12 significant digits.
  const TempFile file("ctl\x01\x1f.bin");
  di::save_framework(fitted_framework(), file.path);
  const auto [code, out] =
      run_inspect("--model '" + file.path + "' --json --edges 0");
  ASSERT_EQ(code, 0) << out;
  const desmine::obs::JsonValue doc = desmine::obs::parse_json(out);
  EXPECT_EQ(doc.find("path")->string, file.path);
  const auto map = di::ArtifactMap::open(file.path);
  const auto& table = doc.find("edge_table")->array;
  ASSERT_EQ(table.size(), map->edges().size());
  ASSERT_FALSE(table.empty());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i].find("src")->number,
              static_cast<double>(map->edges()[i].src));
    EXPECT_NEAR(table[i].find("bleu")->number, map->edges()[i].bleu, 1e-9);
  }
}

TEST(InspectCli, StreamArtifactRejectedAtHeader) {
  // v4 is the only framework format; a v3 stream (here a pair-model
  // sidecar) is a corrupt artifact as far as the tool is concerned.
  const TempFile file("v3.bin");
  const dc::Framework& fw = fitted_framework();
  for (const dc::MvrEdge& e : fw.graph().edges()) {
    if (!e.model) continue;
    di::save_pair_model(file.path, *e.model,
                        fw.config().miner.translation.model);
    break;
  }
  const auto [code, out] = run_inspect("--model " + file.path);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("corrupt artifact [header]"), std::string::npos) << out;
  EXPECT_NE(out.find("version 3"), std::string::npos) << out;
}

TEST(InspectCli, CorruptTocFailsWithoutVerify) {
  const TempFile file("v4_badtoc.bin");
  di::save_framework(fitted_framework(), file.path);
  std::ifstream is(file.path, std::ios::binary | std::ios::ate);
  const std::size_t size = static_cast<std::size_t>(is.tellg());
  is.close();
  flip_byte(file.path, size - 8);  // inside the TOC
  EXPECT_EQ(run_inspect("--model " + file.path).first, 1);
}

TEST(InspectCli, WeightFlipCaughtOnlyByVerify) {
  const TempFile file("v4_badweights.bin");
  di::save_framework(fitted_framework(), file.path);
  std::size_t weights_at = 0;
  {
    const auto map = di::ArtifactMap::open(file.path);
    for (const di::EdgeEntry& e : map->edges()) {
      if (e.has_model) {
        weights_at = e.weights_off + 64;
        break;
      }
    }
  }
  ASSERT_GT(weights_at, 0u);
  flip_byte(file.path, weights_at);
  // Header + TOC are intact, so a plain dump succeeds (lazy CRCs)...
  EXPECT_EQ(run_inspect("--model " + file.path).first, 0);
  // ...but --verify sweeps every edge and must fail.
  EXPECT_EQ(run_inspect("--model " + file.path + " --verify").first, 1);
}

TEST(InspectCli, TruncatedArtifactIsRuntimeError) {
  const TempFile file("v4_trunc.bin");
  di::save_framework(fitted_framework(), file.path);
  const std::string bytes = slurp(file.path);
  write_bytes(file.path, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(run_inspect("--model " + file.path).first, 1);
}

TEST(InspectCli, HostileTocCountIsCorruptToc) {
  // A failure count of 2^40 in an otherwise CRC-clean TOC (both checksums
  // recomputed) is reported as a corrupt TOC, not an allocator error.
  const TempFile file("v4_hostile.bin");
  ASSERT_TRUE(fitted_framework().graph().failures().empty());
  di::save_framework(fitted_framework(), file.path);
  std::string bytes = slurp(file.path);
  // With no failures, the failure count is the TOC's (and file's) last u64.
  const std::uint64_t count = 1ull << 40;
  std::memcpy(bytes.data() + bytes.size() - 8, &count, sizeof(count));
  std::uint64_t toc_off = 0, toc_len = 0;
  std::memcpy(&toc_off, bytes.data() + 16, sizeof(toc_off));
  std::memcpy(&toc_len, bytes.data() + 24, sizeof(toc_len));
  const std::uint32_t toc_crc =
      desmine::util::crc32(bytes.data() + toc_off, toc_len);
  std::memcpy(bytes.data() + 48, &toc_crc, sizeof(toc_crc));
  const std::uint32_t header_crc = desmine::util::crc32(bytes.data(), 52);
  std::memcpy(bytes.data() + 52, &header_crc, sizeof(header_crc));
  write_bytes(file.path, bytes);

  const auto [code, out] = run_inspect("--model " + file.path);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("corrupt artifact [toc]"), std::string::npos) << out;
}
