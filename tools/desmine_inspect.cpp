// desmine_inspect — dump the layout of any desmine artifact (v1–v4).
//
// A debugging/ops companion to the model store: prints the artifact's
// version, integrity status, and structure without loading any model onto
// the heap. For mapped (v4) artifacts that means the header, the TOC
// (edges, blob offsets/sizes, per-parameter shapes) and — with --verify —
// every edge's meta/weight CRC status; for stream (v1–v3) artifacts the
// header, window config, sensor list, and per-edge model summary.
//
// Usage:
//   desmine_inspect --model FILE [--json] [--verify] [--edges N]
//     --json       machine-readable output (one JSON document)
//     --verify     check every edge's CRCs (v4; touches all weight pages)
//     --edges N    cap per-edge listing at N rows (default 16; 0 = all)
//
// Exit codes: 0 ok | 1 corrupt/unreadable artifact | 2 usage error.
// Corruption detail goes to stderr; the section that failed (header, toc,
// meta, weights, truncated) is named so an operator knows whether the file
// is salvageable (bad weight page) or gone (bad header).
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "args.h"
#include "core/framework.h"
#include "io/artifact_map.h"
#include "io/serialize.h"
#include "tensor/kernels.h"
#include "util/error.h"
#include "util/version.h"

using namespace desmine;
using tools::Args;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

struct InspectOptions {
  bool json = false;
  bool verify = false;
  std::size_t max_edges = 16;  // 0 = all
};

/// "avx2 (scalar avx2 available)" — what this host would decode
/// with, for ops parity with /statusz.
std::string kernels_summary() {
  std::string out = tensor::kernels::backend_name(
      tensor::kernels::active_backend());
  out += " (";
  bool first = true;
  for (const tensor::kernels::Backend b :
       tensor::kernels::available_backends()) {
    if (!first) out += ' ';
    first = false;
    out += tensor::kernels::backend_name(b);
  }
  out += " available)";
  return out;
}

/// v4: everything comes from the header + TOC; --verify additionally CRCs
/// every edge (first materialization-grade touch of the weight pages).
int inspect_mapped(const std::string& path, const InspectOptions& opt) {
  const std::shared_ptr<io::ArtifactMap> map = io::ArtifactMap::open(path);
  const auto& edges = map->edges();
  std::size_t models = 0;
  std::uint64_t weight_bytes = 0;
  for (const io::EdgeEntry& e : edges) {
    if (!e.has_model) continue;
    ++models;
    weight_bytes += e.weights_len;
  }
  // CRC sweep before printing so a corrupt edge fails the run even when the
  // edge listing is capped.
  std::size_t verified = 0;
  if (opt.verify) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!edges[i].has_model) continue;
      map->materialize_edge(i);  // throws io::ArtifactError on bad CRC
      ++verified;
    }
  }
  const std::size_t shown =
      opt.max_edges == 0 ? edges.size()
                         : std::min(edges.size(), opt.max_edges);

  if (opt.json) {
    std::ostringstream os;
    os << "{\"path\":\"" << json_escape(path) << "\",\"version\":4,"
       << "\"layout\":\"mapped\",\"file_size\":" << map->file_size()
       << ",\"mapped\":" << (map->mapped() ? "true" : "false")
       << ",\"sensors\":" << map->sensor_names().size()
       << ",\"edges\":" << edges.size() << ",\"models\":" << models
       << ",\"weight_bytes\":" << weight_bytes
       << ",\"failures\":" << map->failures().size()
       << ",\"window\":{\"word_length\":" << map->window().word_length
       << ",\"word_stride\":" << map->window().word_stride
       << ",\"sentence_length\":" << map->window().sentence_length
       << ",\"sentence_stride\":" << map->window().sentence_stride << "}"
       << ",\"verified_edges\":" << (opt.verify ? verified : 0)
       << ",\"kernels\":\""
       << tensor::kernels::backend_name(tensor::kernels::active_backend())
       << "\",\"edge_table\":[";
    for (std::size_t i = 0; i < shown; ++i) {
      const io::EdgeEntry& e = edges[i];
      if (i != 0) os << ",";
      os << "{\"src\":" << e.src << ",\"dst\":" << e.dst
         << ",\"bleu\":" << e.bleu << ",\"has_model\":"
         << (e.has_model ? "true" : "false");
      if (e.has_model) {
        os << ",\"meta_off\":" << e.meta_off << ",\"meta_len\":" << e.meta_len
           << ",\"weights_off\":" << e.weights_off
           << ",\"weights_len\":" << e.weights_len
           << ",\"params\":" << e.params.size();
      }
      os << "}";
    }
    os << "]}";
    std::cout << os.str() << "\n";
    return 0;
  }

  std::cout << path << ": desmine artifact v4 (mapped, "
            << (map->mapped() ? "mmap" : "heap fallback") << ")\n"
            << "  file_size:  " << map->file_size() << " bytes\n"
            << "  sensors:    " << map->sensor_names().size() << "\n"
            << "  edges:      " << edges.size() << " (" << models
            << " with models, " << weight_bytes << " weight bytes)\n"
            << "  failures:   " << map->failures().size() << "\n"
            << "  window:     word " << map->window().word_length << "/"
            << map->window().word_stride << ", sentence "
            << map->window().sentence_length << "/"
            << map->window().sentence_stride << "\n"
            << "  integrity:  header OK, TOC OK"
            << (opt.verify
                    ? ", " + std::to_string(verified) + " edge CRCs OK"
                    : " (edge CRCs verify lazily; --verify checks now)")
            << "\n"
            << "  kernels:    " << kernels_summary() << "\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const io::EdgeEntry& e = edges[i];
    std::cout << "  edge " << e.src << "->" << e.dst << " bleu=" << e.bleu;
    if (e.has_model) {
      std::cout << " meta@" << e.meta_off << "+" << e.meta_len << " weights@"
                << e.weights_off << "+" << e.weights_len << " ("
                << e.params.size() << " params)";
    } else {
      std::cout << " (no model)";
    }
    std::cout << "\n";
  }
  if (shown < edges.size()) {
    std::cout << "  ... " << edges.size() - shown
              << " more edges (--edges 0 lists all)\n";
  }
  return 0;
}

/// v1–v3: the only way to know the structure is to deserialize the stream
/// (which also verifies the v3 CRC trailer).
int inspect_stream(const std::string& path, std::uint32_t version,
                   const InspectOptions& opt) {
  const core::Framework fw = io::load_framework(path);
  const core::MvrGraph& graph = fw.graph();
  std::size_t models = 0;
  for (const core::MvrEdge& e : graph.edges()) models += e.model != nullptr;
  const std::size_t shown =
      opt.max_edges == 0 ? graph.edges().size()
                         : std::min(graph.edges().size(), opt.max_edges);

  if (opt.json) {
    std::ostringstream os;
    os << "{\"path\":\"" << json_escape(path) << "\",\"version\":" << version
       << ",\"layout\":\"stream\",\"sensors\":" << graph.sensor_count()
       << ",\"edges\":" << graph.edges().size() << ",\"models\":" << models
       << ",\"failures\":" << graph.failures().size()
       << ",\"window\":{\"word_length\":" << fw.config().window.word_length
       << ",\"word_stride\":" << fw.config().window.word_stride
       << ",\"sentence_length\":" << fw.config().window.sentence_length
       << ",\"sentence_stride\":" << fw.config().window.sentence_stride
       << "},\"kernels\":\""
       << tensor::kernels::backend_name(tensor::kernels::active_backend())
       << "\",\"edge_table\":[";
    for (std::size_t i = 0; i < shown; ++i) {
      const core::MvrEdge& e = graph.edges()[i];
      if (i != 0) os << ",";
      os << "{\"src\":" << e.src << ",\"dst\":" << e.dst
         << ",\"bleu\":" << e.bleu << ",\"has_model\":"
         << (e.model != nullptr ? "true" : "false") << "}";
    }
    os << "]}";
    std::cout << os.str() << "\n";
    return 0;
  }

  std::cout << path << ": desmine artifact v" << version << " (stream)\n"
            << "  sensors:    " << graph.sensor_count() << "\n"
            << "  edges:      " << graph.edges().size() << " (" << models
            << " with models)\n"
            << "  failures:   " << graph.failures().size() << "\n"
            << "  window:     word " << fw.config().window.word_length << "/"
            << fw.config().window.word_stride << ", sentence "
            << fw.config().window.sentence_length << "/"
            << fw.config().window.sentence_stride << "\n"
            << "  integrity:  "
            << (version >= 3 ? "CRC trailer OK" : "no CRC (pre-v3 stream)")
            << "\n"
            << "  kernels:    " << kernels_summary() << "\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const core::MvrEdge& e = graph.edges()[i];
    std::cout << "  edge " << e.src << "->" << e.dst << " bleu=" << e.bleu
              << (e.model != nullptr ? "" : " (no model)") << "\n";
  }
  if (shown < graph.edges().size()) {
    std::cout << "  ... " << graph.edges().size() - shown
              << " more edges (--edges 0 lists all)\n";
  }
  return 0;
}

void usage() {
  std::cerr << "usage: desmine_inspect --model artifact.bin [options]\n"
               "  --json       machine-readable output\n"
               "  --verify     check every edge CRC (v4)\n"
               "  --edges N    per-edge rows to print (default 16, 0 = all)\n"
               "exit codes: 0 ok | 1 corrupt/unreadable | 2 usage error\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<Args> args;
  try {
    args = std::make_unique<Args>(argc, argv, 1,
                                  std::set<std::string>{"model", "edges"},
                                  std::set<std::string>{"json", "verify"});
  } catch (const std::exception& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    usage();
    return 2;
  }
  try {
    const std::string path = args->get("model");
    InspectOptions opt;
    opt.json = args->flag("json");
    opt.verify = args->flag("verify");
    opt.max_edges = static_cast<std::size_t>(args->number("edges", 16));
    const std::uint32_t version = io::peek_artifact_version(path);
    return version == io::kMappedArtifactVersion
               ? inspect_mapped(path, opt)
               : inspect_stream(path, version, opt);
  } catch (const io::ArtifactError& e) {
    std::cerr << "corrupt artifact [" <<
        io::ArtifactError::section_name(e.section()) << "]: " << e.what()
              << "\n";
    return 1;
  } catch (const PreconditionError& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
