// desmine_inspect — dump the layout of a desmine (v4 mapped) artifact.
//
// A debugging/ops companion to the model store: prints the artifact's
// integrity status and structure without loading any model onto the heap —
// the header, the TOC (edges, blob offsets/sizes, per-parameter shapes) and,
// with --verify, every edge's meta/weight CRC status. Any other file,
// including a v1–v3 stream artifact or a pair-model sidecar, is rejected as
// corrupt at its header.
//
// Usage:
//   desmine_inspect --model FILE [--json] [--verify] [--edges N]
//     --json       machine-readable output (one JSON document)
//     --verify     check every edge's CRCs (touches all weight pages)
//     --edges N    cap per-edge listing at N rows (default 16; 0 = all)
//
// Exit codes: 0 ok | 1 corrupt/unreadable artifact | 2 usage error.
// Corruption detail goes to stderr; the section that failed (header, toc,
// meta, weights, truncated) is named so an operator knows whether the file
// is salvageable (bad weight page) or gone (bad header).
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <set>
#include <string>

#include "args.h"
#include "io/artifact_map.h"
#include "obs/json.h"
#include "tensor/kernels.h"
#include "util/error.h"
#include "util/version.h"

using namespace desmine;
using tools::Args;

namespace {

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

/// Everything comes from the header + TOC; --verify additionally CRCs every
/// edge (first materialization-grade touch of the weight pages).
int inspect(const std::string& path, const InspectOptions& opt) {
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
    const auto count = [](std::size_t n) {
      return static_cast<std::uint64_t>(n);
    };
    obs::JsonWriter w;
    w.begin_object();
    w.key("path").value(path);
    w.key("version").value(std::uint64_t{4});
    w.key("layout").value("mapped");
    w.key("file_size").value(map->file_size());
    w.key("mapped").value(map->mapped());
    w.key("sensors").value(count(map->sensor_names().size()));
    w.key("edges").value(count(edges.size()));
    w.key("models").value(count(models));
    w.key("weight_bytes").value(weight_bytes);
    w.key("failures").value(count(map->failures().size()));
    w.key("window").begin_object();
    w.key("word_length").value(count(map->window().word_length));
    w.key("word_stride").value(count(map->window().word_stride));
    w.key("sentence_length").value(count(map->window().sentence_length));
    w.key("sentence_stride").value(count(map->window().sentence_stride));
    w.end_object();
    w.key("verified_edges").value(count(verified));
    w.key("kernels").value(
        tensor::kernels::backend_name(tensor::kernels::active_backend()));
    w.key("edge_table").begin_array();
    for (std::size_t i = 0; i < shown; ++i) {
      const io::EdgeEntry& e = edges[i];
      w.begin_object();
      w.key("src").value(e.src);
      w.key("dst").value(e.dst);
      w.key("bleu").value(e.bleu);
      w.key("has_model").value(e.has_model);
      if (e.has_model) {
        w.key("meta_off").value(e.meta_off);
        w.key("meta_len").value(e.meta_len);
        w.key("weights_off").value(e.weights_off);
        w.key("weights_len").value(e.weights_len);
        w.key("params").value(count(e.params.size()));
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::cout << w.str() << "\n";
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

void usage() {
  std::cerr << "usage: desmine_inspect --model artifact.bin [options]\n"
               "  --json       machine-readable output\n"
               "  --verify     check every edge CRC\n"
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
    opt.max_edges = args->count("edges", std::size_t{16});
    return inspect(path, opt);
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
