#include "io/config_json.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/json.h"
#include "util/error.h"

namespace desmine::io {
namespace {

using obs::JsonValue;

[[noreturn]] void bad(const std::string& what) {
  throw PreconditionError("config: " + what);
}

// ---------------------------------------------------------------------------
// Emission. The tree is built as a JsonValue and pretty-printed so that
// --dump-config output is directly editable; parse_json reads it back.

JsonValue make_object() {
  JsonValue v;
  v.type = JsonValue::Type::kObject;
  return v;
}

void put_number(JsonValue& obj, const char* key, double value) {
  JsonValue v;
  v.type = JsonValue::Type::kNumber;
  v.number = value;
  obj.object.emplace_back(key, std::move(v));
}

void put_bool(JsonValue& obj, const char* key, bool value) {
  JsonValue v;
  v.type = JsonValue::Type::kBool;
  v.boolean = value;
  obj.object.emplace_back(key, std::move(v));
}

void put_string(JsonValue& obj, const char* key, std::string value) {
  JsonValue v;
  v.type = JsonValue::Type::kString;
  v.string = std::move(value);
  obj.object.emplace_back(key, std::move(v));
}

void put_object(JsonValue& obj, const char* key, JsonValue child) {
  obj.object.emplace_back(key, std::move(child));
}

void dump(const JsonValue& v, std::string& out, int depth) {
  const auto indent = [&](int d) { out.append(static_cast<std::size_t>(d) * 2, ' '); };
  switch (v.type) {
    case JsonValue::Type::kNull: out += "null"; break;
    case JsonValue::Type::kBool: out += v.boolean ? "true" : "false"; break;
    case JsonValue::Type::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.12g", v.number);
      out += buf;
      break;
    }
    case JsonValue::Type::kString: out += obs::JsonWriter::quote(v.string); break;
    case JsonValue::Type::kObject: {
      if (v.object.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        indent(depth + 1);
        out += obs::JsonWriter::quote(v.object[i].first);
        out += ": ";
        dump(v.object[i].second, out, depth + 1);
        if (i + 1 < v.object.size()) out += ',';
        out += '\n';
      }
      indent(depth);
      out += '}';
      break;
    }
    case JsonValue::Type::kArray: {
      if (v.array.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        indent(depth + 1);
        dump(v.array[i], out, depth + 1);
        if (i + 1 < v.array.size()) out += ',';
        out += '\n';
      }
      indent(depth);
      out += ']';
      break;
    }
  }
}

JsonValue bleu_to_json(const text::BleuOptions& bleu) {
  JsonValue v = make_object();
  put_number(v, "max_order", static_cast<double>(bleu.max_order));
  put_bool(v, "smooth", bleu.smooth);
  return v;
}

JsonValue window_to_json(const core::WindowConfig& w) {
  JsonValue v = make_object();
  put_number(v, "word_length", static_cast<double>(w.word_length));
  put_number(v, "word_stride", static_cast<double>(w.word_stride));
  put_number(v, "sentence_length", static_cast<double>(w.sentence_length));
  put_number(v, "sentence_stride", static_cast<double>(w.sentence_stride));
  return v;
}

JsonValue model_to_json(const nmt::Seq2SeqConfig& m) {
  JsonValue v = make_object();
  put_number(v, "embedding_dim", static_cast<double>(m.embedding_dim));
  put_number(v, "hidden_dim", static_cast<double>(m.hidden_dim));
  put_number(v, "num_layers", static_cast<double>(m.num_layers));
  put_number(v, "dropout", static_cast<double>(m.dropout));
  put_number(v, "init_scale", static_cast<double>(m.init_scale));
  put_number(v, "max_decode_length", static_cast<double>(m.max_decode_length));
  put_string(v, "attention",
             m.attention == nn::AttentionScore::kDot ? "dot" : "general");
  return v;
}

JsonValue trainer_to_json(const nmt::TrainerConfig& t) {
  JsonValue v = make_object();
  put_number(v, "steps", static_cast<double>(t.steps));
  put_number(v, "batch_size", static_cast<double>(t.batch_size));
  put_number(v, "lr", static_cast<double>(t.lr));
  put_number(v, "clip_norm", static_cast<double>(t.clip_norm));
  put_number(v, "lr_decay_start", static_cast<double>(t.lr_decay_start));
  put_number(v, "lr_decay_every", static_cast<double>(t.lr_decay_every));
  put_number(v, "eval_every", static_cast<double>(t.eval_every));
  put_number(v, "patience", static_cast<double>(t.patience));
  put_number(v, "divergence_factor", t.divergence_factor);
  return v;
}

JsonValue retry_to_json(const robust::RetryPolicy& r) {
  JsonValue v = make_object();
  put_number(v, "max_retries", static_cast<double>(r.max_retries));
  put_number(v, "base_delay_ms", r.base_delay_ms);
  put_number(v, "multiplier", r.multiplier);
  put_number(v, "max_delay_ms", r.max_delay_ms);
  put_number(v, "jitter", r.jitter);
  return v;
}

JsonValue miner_to_json(const core::MinerConfig& m) {
  JsonValue v = make_object();
  put_number(v, "threads", static_cast<double>(m.threads));
  put_number(v, "seed", static_cast<double>(m.seed));
  put_number(v, "pair_timeout_s", m.pair_timeout_s);
  put_string(v, "checkpoint_path", m.checkpoint_path);
  put_bool(v, "resume", m.resume);
  put_object(v, "retry", retry_to_json(m.retry));
  put_object(v, "model", model_to_json(m.translation.model));
  put_object(v, "trainer", trainer_to_json(m.translation.trainer));
  put_object(v, "bleu", bleu_to_json(m.translation.bleu));
  return v;
}

JsonValue detector_to_json(const core::DetectorConfig& d) {
  JsonValue v = make_object();
  put_number(v, "valid_lo", d.valid_lo);
  put_number(v, "valid_hi", d.valid_hi);
  put_number(v, "tolerance", d.tolerance);
  put_number(v, "min_coverage", d.min_coverage);
  put_number(v, "threads", static_cast<double>(d.threads));
  put_object(v, "bleu", bleu_to_json(d.bleu));
  return v;
}

JsonValue health_to_json(const robust::HealthConfig& h) {
  JsonValue v = make_object();
  put_number(v, "drop_after_missing", static_cast<double>(h.drop_after_missing));
  put_number(v, "stale_after", static_cast<double>(h.stale_after));
  put_number(v, "max_unk_rate", h.max_unk_rate);
  put_number(v, "unk_window", static_cast<double>(h.unk_window));
  put_number(v, "min_unk_samples", static_cast<double>(h.min_unk_samples));
  put_number(v, "readmit_after", static_cast<double>(h.readmit_after));
  return v;
}

JsonValue serve_to_json(const serve::ServeConfig& s) {
  JsonValue v = make_object();
  put_number(v, "workers", static_cast<double>(s.workers));
  put_number(v, "max_batch", static_cast<double>(s.max_batch));
  put_number(v, "decode_cache", static_cast<double>(s.decode_cache));
  put_number(v, "max_pending_windows",
             static_cast<double>(s.limits.max_pending_windows));
  put_bool(v, "reject_when_full", s.limits.reject_when_full);
  put_number(v, "max_consecutive_shed",
             static_cast<double>(s.limits.max_consecutive_shed));
  put_number(v, "max_global_pending",
             static_cast<double>(s.max_global_pending));
  put_number(v, "max_queue_delay_ms", s.max_queue_delay_ms);
  put_number(v, "circuit_open_after",
             static_cast<double>(s.circuit_open_after));
  put_number(v, "circuit_probe_after",
             static_cast<double>(s.circuit_probe_after));
  put_number(v, "telemetry_port", static_cast<double>(s.telemetry_port));
  put_number(v, "resident_bytes", static_cast<double>(s.resident_bytes));
  put_number(v, "resident_edges", static_cast<double>(s.resident_edges));
  put_number(v, "slow_window_ms", s.slow_window_ms);
  put_number(v, "sliding_window_s", s.sliding_window_s);
  put_number(v, "sliding_epochs", static_cast<double>(s.sliding_epochs));
  return v;
}

JsonValue drift_to_json(const lifecycle::DriftConfig& d) {
  JsonValue v = make_object();
  put_number(v, "ewma_alpha", d.ewma_alpha);
  put_number(v, "min_observations", static_cast<double>(d.min_observations));
  put_number(v, "hysteresis", static_cast<double>(d.hysteresis));
  put_number(v, "drifting_drop", d.drifting_drop);
  put_number(v, "drifted_drop", d.drifted_drop);
  put_number(v, "break_rate", d.break_rate);
  put_number(v, "max_unk_rate", d.max_unk_rate);
  return v;
}

JsonValue retrain_to_json(const lifecycle::RetrainConfig& r) {
  JsonValue v = make_object();
  put_number(v, "lr_factor", r.lr_factor);
  put_number(v, "steps", static_cast<double>(r.steps));
  put_string(v, "journal_path", r.journal_path);
  put_string(v, "warm_start_journal", r.warm_start_journal);
  return v;
}

JsonValue shadow_to_json(const serve::ShadowConfig& s) {
  JsonValue v = make_object();
  put_number(v, "sample_rate", s.sample_rate);
  put_number(v, "min_windows", static_cast<double>(s.min_windows));
  put_number(v, "alert_threshold", s.alert_threshold);
  put_number(v, "max_alert_rate", s.max_alert_rate);
  put_number(v, "min_agreement", s.min_agreement);
  put_number(v, "max_failures", static_cast<double>(s.max_failures));
  return v;
}

JsonValue tensor_to_json(const tensor::kernels::KernelConfig& t) {
  JsonValue v = make_object();
  put_string(v, "kernels", t.kernels);
  return v;
}

JsonValue lifecycle_to_json(const lifecycle::LifecycleConfig& l) {
  JsonValue v = make_object();
  put_object(v, "drift", drift_to_json(l.drift));
  put_object(v, "retrain", retrain_to_json(l.retrain));
  put_object(v, "shadow", shadow_to_json(l.shadow));
  return v;
}

// ---------------------------------------------------------------------------
// Parsing. The readers check each value's type; the section validators
// below check its range. Every error names the full dotted path.

double number_at(const JsonValue& v, const std::string& path) {
  if (!v.is_number()) bad("key '" + path + "' must be a number");
  return v.number;
}

std::size_t uint_at(const JsonValue& v, const std::string& path) {
  const double d = number_at(v, path);
  if (d < 0.0 || d != std::floor(d) || d > 9007199254740992.0) {
    bad("key '" + path + "' must be a non-negative integer");
  }
  return static_cast<std::size_t>(d);
}

bool bool_at(const JsonValue& v, const std::string& path) {
  if (!v.is_bool()) bad("key '" + path + "' must be a boolean");
  return v.boolean;
}

std::string string_at(const JsonValue& v, const std::string& path) {
  if (!v.is_string()) bad("key '" + path + "' must be a string");
  return v.string;
}

void expect_object(const JsonValue& v, const std::string& path) {
  if (!v.is_object()) bad("key '" + path + "' must be an object");
}

void parse_bleu(const JsonValue& v, const std::string& prefix,
                text::BleuOptions* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "max_order") {
      out->max_order = uint_at(value, path);
    } else if (key == "smooth") {
      out->smooth = bool_at(value, path);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_window(const JsonValue& v, const std::string& prefix,
                  core::WindowConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "word_length") {
      out->word_length = uint_at(value, path);
    } else if (key == "word_stride") {
      out->word_stride = uint_at(value, path);
    } else if (key == "sentence_length") {
      out->sentence_length = uint_at(value, path);
    } else if (key == "sentence_stride") {
      out->sentence_stride = uint_at(value, path);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_model(const JsonValue& v, const std::string& prefix,
                 nmt::Seq2SeqConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "embedding_dim") {
      out->embedding_dim = uint_at(value, path);
    } else if (key == "hidden_dim") {
      out->hidden_dim = uint_at(value, path);
    } else if (key == "num_layers") {
      out->num_layers = uint_at(value, path);
    } else if (key == "dropout") {
      out->dropout = static_cast<float>(number_at(value, path));
    } else if (key == "init_scale") {
      out->init_scale = static_cast<float>(number_at(value, path));
    } else if (key == "max_decode_length") {
      out->max_decode_length = uint_at(value, path);
    } else if (key == "attention") {
      const std::string name = string_at(value, path);
      if (name == "general") {
        out->attention = nn::AttentionScore::kGeneral;
      } else if (name == "dot") {
        out->attention = nn::AttentionScore::kDot;
      } else {
        bad("key '" + path + "' must be \"general\" or \"dot\"");
      }
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_trainer(const JsonValue& v, const std::string& prefix,
                   nmt::TrainerConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "steps") {
      out->steps = uint_at(value, path);
    } else if (key == "batch_size") {
      out->batch_size = uint_at(value, path);
    } else if (key == "lr") {
      out->lr = static_cast<float>(number_at(value, path));
    } else if (key == "clip_norm") {
      out->clip_norm = static_cast<float>(number_at(value, path));
    } else if (key == "lr_decay_start") {
      out->lr_decay_start = uint_at(value, path);
    } else if (key == "lr_decay_every") {
      out->lr_decay_every = uint_at(value, path);
    } else if (key == "eval_every") {
      out->eval_every = uint_at(value, path);
    } else if (key == "patience") {
      out->patience = uint_at(value, path);
    } else if (key == "divergence_factor") {
      out->divergence_factor = number_at(value, path);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_retry(const JsonValue& v, const std::string& prefix,
                 robust::RetryPolicy* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "max_retries") {
      out->max_retries = uint_at(value, path);
    } else if (key == "base_delay_ms") {
      out->base_delay_ms = number_at(value, path);
    } else if (key == "multiplier") {
      out->multiplier = number_at(value, path);
    } else if (key == "max_delay_ms") {
      out->max_delay_ms = number_at(value, path);
    } else if (key == "jitter") {
      out->jitter = number_at(value, path);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_miner(const JsonValue& v, const std::string& prefix,
                 core::MinerConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "threads") {
      out->threads = uint_at(value, path);
    } else if (key == "seed") {
      out->seed = static_cast<std::uint64_t>(uint_at(value, path));
    } else if (key == "pair_timeout_s") {
      out->pair_timeout_s = number_at(value, path);
    } else if (key == "checkpoint_path") {
      out->checkpoint_path = string_at(value, path);
    } else if (key == "resume") {
      out->resume = bool_at(value, path);
    } else if (key == "retry") {
      parse_retry(value, path, &out->retry);
    } else if (key == "model") {
      parse_model(value, path, &out->translation.model);
    } else if (key == "trainer") {
      parse_trainer(value, path, &out->translation.trainer);
    } else if (key == "bleu") {
      parse_bleu(value, path, &out->translation.bleu);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_detector(const JsonValue& v, const std::string& prefix,
                    core::DetectorConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "valid_lo") {
      out->valid_lo = number_at(value, path);
    } else if (key == "valid_hi") {
      out->valid_hi = number_at(value, path);
    } else if (key == "tolerance") {
      out->tolerance = number_at(value, path);
    } else if (key == "min_coverage") {
      out->min_coverage = number_at(value, path);
    } else if (key == "threads") {
      out->threads = uint_at(value, path);
    } else if (key == "bleu") {
      parse_bleu(value, path, &out->bleu);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_health(const JsonValue& v, const std::string& prefix,
                  robust::HealthConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "drop_after_missing") {
      out->drop_after_missing = uint_at(value, path);
    } else if (key == "stale_after") {
      out->stale_after = uint_at(value, path);
    } else if (key == "max_unk_rate") {
      out->max_unk_rate = number_at(value, path);
    } else if (key == "unk_window") {
      out->unk_window = uint_at(value, path);
    } else if (key == "min_unk_samples") {
      out->min_unk_samples = uint_at(value, path);
    } else if (key == "readmit_after") {
      out->readmit_after = uint_at(value, path);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_serve(const JsonValue& v, const std::string& prefix,
                 serve::ServeConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "workers") {
      out->workers = uint_at(value, path);
    } else if (key == "max_batch") {
      out->max_batch = uint_at(value, path);
    } else if (key == "decode_cache") {
      out->decode_cache = uint_at(value, path);
    } else if (key == "max_pending_windows") {
      out->limits.max_pending_windows = uint_at(value, path);
    } else if (key == "reject_when_full") {
      out->limits.reject_when_full = bool_at(value, path);
    } else if (key == "max_consecutive_shed") {
      out->limits.max_consecutive_shed = uint_at(value, path);
    } else if (key == "max_global_pending") {
      out->max_global_pending = uint_at(value, path);
    } else if (key == "max_queue_delay_ms") {
      out->max_queue_delay_ms = number_at(value, path);
    } else if (key == "circuit_open_after") {
      out->circuit_open_after = uint_at(value, path);
    } else if (key == "circuit_probe_after") {
      out->circuit_probe_after = uint_at(value, path);
    } else if (key == "telemetry_port") {
      out->telemetry_port = uint_at(value, path);
    } else if (key == "resident_bytes") {
      out->resident_bytes = uint_at(value, path);
    } else if (key == "resident_edges") {
      out->resident_edges = uint_at(value, path);
    } else if (key == "slow_window_ms") {
      out->slow_window_ms = number_at(value, path);
    } else if (key == "sliding_window_s") {
      out->sliding_window_s = number_at(value, path);
    } else if (key == "sliding_epochs") {
      out->sliding_epochs = uint_at(value, path);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_drift(const JsonValue& v, const std::string& prefix,
                 lifecycle::DriftConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "ewma_alpha") {
      out->ewma_alpha = number_at(value, path);
    } else if (key == "min_observations") {
      out->min_observations = uint_at(value, path);
    } else if (key == "hysteresis") {
      out->hysteresis = uint_at(value, path);
    } else if (key == "drifting_drop") {
      out->drifting_drop = number_at(value, path);
    } else if (key == "drifted_drop") {
      out->drifted_drop = number_at(value, path);
    } else if (key == "break_rate") {
      out->break_rate = number_at(value, path);
    } else if (key == "max_unk_rate") {
      out->max_unk_rate = number_at(value, path);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_retrain(const JsonValue& v, const std::string& prefix,
                   lifecycle::RetrainConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "lr_factor") {
      out->lr_factor = number_at(value, path);
    } else if (key == "steps") {
      out->steps = uint_at(value, path);
    } else if (key == "journal_path") {
      out->journal_path = string_at(value, path);
    } else if (key == "warm_start_journal") {
      out->warm_start_journal = string_at(value, path);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_shadow(const JsonValue& v, const std::string& prefix,
                  serve::ShadowConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "sample_rate") {
      out->sample_rate = number_at(value, path);
    } else if (key == "min_windows") {
      out->min_windows = uint_at(value, path);
    } else if (key == "alert_threshold") {
      out->alert_threshold = number_at(value, path);
    } else if (key == "max_alert_rate") {
      out->max_alert_rate = number_at(value, path);
    } else if (key == "min_agreement") {
      out->min_agreement = number_at(value, path);
    } else if (key == "max_failures") {
      out->max_failures = uint_at(value, path);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_tensor(const JsonValue& v, const std::string& prefix,
                  tensor::kernels::KernelConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "kernels") {
      const std::string name = string_at(value, path);
      tensor::kernels::Backend backend;
      if (name != "auto" && !tensor::kernels::parse_backend(name, &backend)) {
        bad("key '" + path + "' must be \"auto\", \"scalar\", or \"avx2\"");
      }
      out->kernels = name;
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

void parse_lifecycle(const JsonValue& v, const std::string& prefix,
                     lifecycle::LifecycleConfig* out) {
  expect_object(v, prefix);
  for (const auto& [key, value] : v.object) {
    const std::string path = prefix + "." + key;
    if (key == "drift") {
      parse_drift(value, path, &out->drift);
    } else if (key == "retrain") {
      parse_retrain(value, path, &out->retrain);
    } else if (key == "shadow") {
      parse_shadow(value, path, &out->shadow);
    } else {
      bad("unknown key '" + path + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// Range checks, one validator per section. `require` throws ConfigKeyError
// naming the key (and, for a cross-key rule, the key it is compared with).

void require(bool ok, const std::string& key, const std::string& rule,
             const std::string& other = "") {
  if (ok) return;
  std::vector<std::string> keys = {key};
  if (!other.empty()) keys.push_back(other);
  throw ConfigKeyError(std::move(keys),
                       "config: key '" + key + "' must " + rule +
                           (other.empty() ? "" : " '" + other + "'"));
}

template <typename T>
void positive(T v, const std::string& key) {
  require(v > T{0}, key, "be > 0");
}
template <typename T>
void nonneg(T v, const std::string& key) {
  require(v >= T{0}, key, "be >= 0");
}
void fraction(double d, const std::string& key) {
  require(d >= 0.0 && d <= 1.0, key, "lie in [0, 1]");
}

void validate_bleu(const text::BleuOptions& b, const std::string& prefix) {
  positive(b.max_order, prefix + ".max_order");
}

void validate_model(const nmt::Seq2SeqConfig& m, const std::string& prefix) {
  positive(m.embedding_dim, prefix + ".embedding_dim");
  positive(m.hidden_dim, prefix + ".hidden_dim");
  positive(m.num_layers, prefix + ".num_layers");
  require(m.dropout >= 0.0f && m.dropout < 1.0f, prefix + ".dropout",
          "lie in [0, 1)");
  positive(m.init_scale, prefix + ".init_scale");
  positive(m.max_decode_length, prefix + ".max_decode_length");
}

void validate_trainer(const nmt::TrainerConfig& t, const std::string& prefix) {
  positive(t.steps, prefix + ".steps");
  positive(t.batch_size, prefix + ".batch_size");
  positive(t.lr, prefix + ".lr");
  nonneg(t.clip_norm, prefix + ".clip_norm");
  positive(t.patience, prefix + ".patience");
  nonneg(t.divergence_factor, prefix + ".divergence_factor");
}

void validate_retry(const robust::RetryPolicy& r, const std::string& prefix) {
  nonneg(r.base_delay_ms, prefix + ".base_delay_ms");
  require(r.multiplier >= 1.0, prefix + ".multiplier", "be >= 1");
  nonneg(r.max_delay_ms, prefix + ".max_delay_ms");
  fraction(r.jitter, prefix + ".jitter");
}

}  // namespace

void validate_window(const core::WindowConfig& w) {
  positive(w.word_length, "window.word_length");
  positive(w.word_stride, "window.word_stride");
  positive(w.sentence_length, "window.sentence_length");
  positive(w.sentence_stride, "window.sentence_stride");
}

void validate_miner(const core::MinerConfig& m) {
  nonneg(m.pair_timeout_s, "miner.pair_timeout_s");
  validate_retry(m.retry, "miner.retry");
  validate_model(m.translation.model, "miner.model");
  validate_trainer(m.translation.trainer, "miner.trainer");
  validate_bleu(m.translation.bleu, "miner.bleu");
}

void validate_detector(const core::DetectorConfig& d) {
  nonneg(d.tolerance, "detector.tolerance");
  fraction(d.min_coverage, "detector.min_coverage");
  validate_bleu(d.bleu, "detector.bleu");
  require(d.valid_lo <= d.valid_hi, "detector.valid_lo", "be <=",
          "detector.valid_hi");
}

void validate_health(const robust::HealthConfig& h) {
  positive(h.drop_after_missing, "health.drop_after_missing");
  fraction(h.max_unk_rate, "health.max_unk_rate");
  positive(h.unk_window, "health.unk_window");
  positive(h.min_unk_samples, "health.min_unk_samples");
  positive(h.readmit_after, "health.readmit_after");
}

void validate_serve(const serve::ServeConfig& s) {
  positive(s.max_batch, "serve.max_batch");
  positive(s.limits.max_pending_windows, "serve.max_pending_windows");
  positive(s.limits.max_consecutive_shed, "serve.max_consecutive_shed");
  nonneg(s.max_queue_delay_ms, "serve.max_queue_delay_ms");
  positive(s.circuit_probe_after, "serve.circuit_probe_after");
  require(s.telemetry_port <= 65535, "serve.telemetry_port", "be <= 65535");
  nonneg(s.slow_window_ms, "serve.slow_window_ms");
  positive(s.sliding_window_s, "serve.sliding_window_s");
  positive(s.sliding_epochs, "serve.sliding_epochs");
}

void validate_lifecycle(const lifecycle::LifecycleConfig& l) {
  const lifecycle::DriftConfig& d = l.drift;
  require(d.ewma_alpha > 0.0 && d.ewma_alpha <= 1.0,
          "lifecycle.drift.ewma_alpha", "lie in (0, 1]");
  positive(d.min_observations, "lifecycle.drift.min_observations");
  positive(d.hysteresis, "lifecycle.drift.hysteresis");
  nonneg(d.drifting_drop, "lifecycle.drift.drifting_drop");
  nonneg(d.drifted_drop, "lifecycle.drift.drifted_drop");
  fraction(d.break_rate, "lifecycle.drift.break_rate");
  fraction(d.max_unk_rate, "lifecycle.drift.max_unk_rate");
  require(d.drifting_drop <= d.drifted_drop, "lifecycle.drift.drifting_drop",
          "be <=", "lifecycle.drift.drifted_drop");
  positive(l.retrain.lr_factor, "lifecycle.retrain.lr_factor");
  const serve::ShadowConfig& s = l.shadow;
  positive(s.sample_rate, "lifecycle.shadow.sample_rate");
  positive(s.min_windows, "lifecycle.shadow.min_windows");
  fraction(s.alert_threshold, "lifecycle.shadow.alert_threshold");
  fraction(s.max_alert_rate, "lifecycle.shadow.max_alert_rate");
  fraction(s.min_agreement, "lifecycle.shadow.min_agreement");
}

std::string run_config_to_json(const RunConfig& config) {
  JsonValue doc = make_object();
  put_object(doc, "window", window_to_json(config.framework.window));
  put_object(doc, "miner", miner_to_json(config.framework.miner));
  put_object(doc, "detector", detector_to_json(config.framework.detector));
  put_object(doc, "health", health_to_json(config.health));
  put_object(doc, "tensor", tensor_to_json(config.tensor));
  put_object(doc, "serve", serve_to_json(config.serve));
  put_object(doc, "lifecycle", lifecycle_to_json(config.lifecycle));
  std::string out;
  dump(doc, out, 0);
  out += '\n';
  return out;
}

RunConfig run_config_from_json(std::string_view text) {
  const JsonValue doc = obs::parse_json(text);
  if (!doc.is_object()) bad("document must be a JSON object");
  RunConfig config;
  for (const auto& [key, value] : doc.object) {
    if (key == "window") {
      parse_window(value, key, &config.framework.window);
      validate_window(config.framework.window);
    } else if (key == "miner") {
      parse_miner(value, key, &config.framework.miner);
      validate_miner(config.framework.miner);
    } else if (key == "detector") {
      parse_detector(value, key, &config.framework.detector);
      validate_detector(config.framework.detector);
    } else if (key == "health") {
      parse_health(value, key, &config.health);
      validate_health(config.health);
    } else if (key == "tensor") {
      parse_tensor(value, key, &config.tensor);
    } else if (key == "serve") {
      parse_serve(value, key, &config.serve);
      validate_serve(config.serve);
    } else if (key == "lifecycle") {
      parse_lifecycle(value, key, &config.lifecycle);
      validate_lifecycle(config.lifecycle);
    } else {
      bad("unknown key '" + key + "'");
    }
  }
  config.serve.detector = config.framework.detector;
  config.serve.shadow = config.lifecycle.shadow;
  return config;
}

RunConfig load_run_config(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw PreconditionError("config: cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return run_config_from_json(buffer.str());
  } catch (const PreconditionError& e) {
    throw PreconditionError(std::string(e.what()) + " (in '" + path +
                                  "')");
  } catch (const RuntimeError& e) {
    throw PreconditionError(std::string(e.what()) + " (in '" + path +
                                  "')");
  }
}

}  // namespace desmine::io
