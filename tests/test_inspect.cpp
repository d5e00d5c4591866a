// Integration tests for the desmine_inspect exit-code contract (README.md):
//   0    artifact ok
//   1    corrupt/unreadable artifact
//   2    usage error
// The binary path is injected by CMake as DESMINE_INSPECT_PATH. The tests
// build real v3/v4 artifacts in-process, then drive the tool as a
// subprocess — the same way an operator or a CI integrity gate would.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/framework.h"
#include "data/plant.h"
#include "io/artifact_map.h"
#include "io/serialize.h"

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

/// Run desmine_inspect with `args`; returns {exit code, stdout}.
std::pair<int, std::string> run_inspect(const std::string& args) {
  const TempFile out("stdout.txt");
  const std::string cmd = std::string(DESMINE_INSPECT_PATH) + " " + args +
                          " >" + out.path + " 2>/dev/null";
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

void flip_byte(const std::string& path, std::size_t at) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string bytes = buf.str();
  ASSERT_LT(at, bytes.size());
  bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

TEST(InspectCli, StreamArtifactDump) {
  const TempFile file("v3.bin");
  di::save_framework(fitted_framework(), file.path,
                     di::kStreamArtifactVersion);
  const auto [code, out] = run_inspect("--model " + file.path);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("artifact v3 (stream)"), std::string::npos) << out;
  EXPECT_NE(out.find("CRC trailer OK"), std::string::npos) << out;
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
  std::ifstream is(file.path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string bytes = buf.str();
  is.close();
  std::ofstream os(file.path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  os.close();
  EXPECT_EQ(run_inspect("--model " + file.path).first, 1);
}
