#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "io/serialize.h"
#include "obs/json.h"
#include "tensor/kernels.h"
#include "util/error.h"
#include "util/version.h"

namespace desmine::e2e {

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---- memory -----------------------------------------------------------------

double rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

RssPeak::RssPeak() : base_mib_(rss_mib()), peak_mib_(base_mib_) {}

void RssPeak::sample() {
  const double now = rss_mib();
  double peak = peak_mib_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_mib_.compare_exchange_weak(peak, now,
                                          std::memory_order_relaxed)) {
  }
}

double RssPeak::growth_mib() const {
  return peak_mib_.load(std::memory_order_relaxed) - base_mib_;
}

RssSampler::RssSampler(RssPeak& peak)
    : peak_(peak), thread_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          peak_.sample();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }) {}

RssSampler::~RssSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  peak_.sample();
}

// ---- output digests ---------------------------------------------------------

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void Digest::add(std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h_ ^= (word >> (8 * b)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add_pairs(
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
  add(pairs.size());
  for (const auto& [a, b] : pairs) {
    add(a);
    add(b);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// ---- fixture ----------------------------------------------------------------

data::PlantConfig plant_config(std::uint64_t seed, std::size_t days,
                               double noise, bool anomalies) {
  data::PlantConfig cfg;
  cfg.days = days;
  cfg.minutes_per_day = kMinutesPerDay;
  cfg.seed = seed;
  cfg.num_components = 2;
  cfg.sensors_per_component = 3;
  cfg.num_popular = 1;
  cfg.num_lazy = 2;
  cfg.num_constant = 1;
  cfg.noise = noise;
  if (!anomalies) cfg.anomalies.clear();
  return cfg;
}

core::FrameworkConfig framework_config() {
  core::FrameworkConfig cfg;
  cfg.window = {10, 1, 20, 20};
  cfg.miner.translation.model.embedding_dim = 24;
  cfg.miner.translation.model.hidden_dim = 24;
  cfg.miner.translation.model.num_layers = 1;
  cfg.miner.translation.model.dropout = 0.0f;
  cfg.miner.translation.model.max_decode_length = 22;
  cfg.miner.translation.trainer.steps = 250;
  cfg.miner.translation.trainer.batch_size = 16;
  cfg.miner.seed = 5;
  cfg.miner.threads = kWorkers;
  cfg.detector.valid_lo = 0.0;
  cfg.detector.valid_hi = 100.5;
  cfg.detector.threads = kWorkers;
  return cfg;
}

core::MultivariateSeries day_slice(const core::MultivariateSeries& series,
                                   std::size_t first, std::size_t count) {
  return core::slice(series, first * kMinutesPerDay,
                     (first + count) * kMinutesPerDay);
}

Languages build_languages(const core::MultivariateSeries& train,
                          const core::MultivariateSeries& dev) {
  Languages out{core::SensorEncrypter::fit(train), {}};
  const core::LanguageGenerator language(framework_config().window);
  const std::vector<std::string> train_chars = out.encrypter.encode_all(train);
  const std::vector<std::string> dev_chars = out.encrypter.encode_all(dev);
  for (std::size_t k = 0; k < train_chars.size(); ++k) {
    core::SensorLanguage lang;
    lang.name = out.encrypter.kept_sensors()[k];
    lang.train = language.generate(train_chars[k]);
    lang.dev = language.generate(dev_chars[k]);
    out.languages.push_back(std::move(lang));
  }
  return out;
}

std::string fixture_path(const std::string& cache_dir) {
  const data::PlantConfig p =
      plant_config(kFixtureSeed, kTrainDays + kDevDays, 0.005, false);
  const core::FrameworkConfig f = framework_config();
  const nmt::TranslationConfig& t = f.miner.translation;
  std::ostringstream key;
  key << util::desmine_version() << '|' << p.seed << ',' << p.days << ','
      << p.minutes_per_day << ',' << p.num_components << ','
      << p.sensors_per_component << ',' << p.num_popular << ','
      << p.num_lazy << ',' << p.num_constant << ',' << p.noise << '|'
      << f.window.word_length << ',' << f.window.word_stride << ','
      << f.window.sentence_length << ',' << f.window.sentence_stride << '|'
      << t.model.embedding_dim << ',' << t.model.hidden_dim << ','
      << t.model.num_layers << ',' << t.model.max_decode_length << ','
      << t.trainer.steps << ',' << t.trainer.batch_size << ','
      << t.trainer.lr << ',' << f.miner.seed << '|' << backend();
  Digest d;
  for (const char c : key.str()) d.add(static_cast<unsigned char>(c));
  return cache_dir + "/fixture-" + d.hex() + ".desm";
}

std::string ensure_fixture(const std::string& cache_dir) {
  const std::string path = fixture_path(cache_dir);
  if (std::filesystem::exists(path)) return path;
  std::filesystem::create_directories(cache_dir);
  std::cerr << "mining the fixture once (cached at " << path << ")\n";
  const data::PlantDataset plant = data::generate_plant(
      plant_config(kFixtureSeed, kTrainDays + kDevDays, 0.005, false));
  Languages langs = build_languages(day_slice(plant.series, 0, kTrainDays),
                                    day_slice(plant.series, kTrainDays,
                                              kDevDays));
  const core::FrameworkConfig cfg = framework_config();
  core::MvrGraph graph =
      core::RelationshipMiner(cfg.miner).mine(langs.languages);
  core::Framework fw(cfg);
  fw.restore(std::move(langs.encrypter), std::move(graph));
  io::save_framework(fw, path);  // staged + atomic rename
  return path;
}

core::Framework load_fixture(const std::string& path) {
  return io::load_framework(path, framework_config());
}

// ---- tick replay ------------------------------------------------------------

TickTable TickTable::from_series(const core::MultivariateSeries& series,
                                 const std::vector<std::string>& kept) {
  TickTable table;
  table.sensors = kept;
  table.states.resize(kept.size());
  std::vector<const core::EventSequence*> events;
  for (const std::string& name : kept) {
    const auto it = std::find_if(
        series.begin(), series.end(),
        [&](const core::SensorSeries& s) { return s.name == name; });
    DESMINE_EXPECTS(it != series.end(), "series lacks kept sensor " + name);
    events.push_back(&it->events);
  }
  const std::size_t ticks = events.front()->size();
  table.rows.resize(ticks * kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    std::map<std::string, std::uint8_t> index;
    for (std::size_t t = 0; t < ticks; ++t) {
      const std::string& state = (*events[k])[t];
      auto [it, fresh] = index.emplace(
          state, static_cast<std::uint8_t>(table.states[k].size()));
      if (fresh) {
        DESMINE_EXPECTS(table.states[k].size() < 255, "too many states");
        table.states[k].push_back(state);
      }
      table.rows[t * kept.size() + k] = it->second;
    }
  }
  return table;
}

TickFeed::TickFeed(const std::vector<std::string>& sensors) {
  for (const std::string& name : sensors) {
    std::string& value = map_[name];
    value.reserve(16);
    values_.push_back(&value);
  }
}

const std::map<std::string, std::string>& TickFeed::fill(
    const TickTable& table, std::size_t row) {
  const std::size_t k_count = values_.size();
  const std::uint8_t* states = &table.rows[row * k_count];
  for (std::size_t k = 0; k < k_count; ++k) {
    *values_[k] = table.states[k][states[k]];
  }
  return map_;
}

// ---- calibration ------------------------------------------------------------

Calibration load_calibration(const std::string& path) {
  std::ifstream in(path);
  DESMINE_EXPECTS(in.good(), "cannot read calibration file " + path);
  std::stringstream text;
  text << in.rdbuf();
  const obs::JsonValue root = obs::parse_json(text.str());
  Calibration cal;
  const obs::JsonValue* ref = root.find("host_speed_ref");
  DESMINE_EXPECTS(ref != nullptr && ref->number > 0.0,
                  path + " lacks a positive host_speed_ref");
  cal.host_speed_ref = ref->number;
  if (const obs::JsonValue* v = root.find("latency_limit_ms")) {
    cal.latency_limit_ms = v->number;
  }
  if (const obs::JsonValue* ladder = root.find("ladder_wps")) {
    for (const auto& [workload, rates] : ladder->object) {
      for (const obs::JsonValue& r : rates.array) {
        cal.ladder_wps[workload].push_back(r.number);
      }
    }
  }
  if (const obs::JsonValue* digests = root.find("digests")) {
    for (const auto& [backend_name, keys] : digests->object) {
      for (const auto& [key, hex] : keys.object) {
        cal.digests[backend_name][key] = hex.string;
      }
    }
  }
  return cal;
}

std::string backend() {
  return tensor::kernels::backend_name(tensor::kernels::active_backend());
}

void check_digest(const Calibration& calibration, const Options& options,
                  const std::string& key, const std::string& hex,
                  RunResult* result) {
  result->digests.emplace_back(key, hex);
  if (options.seed != kFixtureSeed) return;
  const std::string* recorded = nullptr;
  if (const auto by_backend = calibration.digests.find(backend());
      by_backend != calibration.digests.end()) {
    const auto it = by_backend->second.find(key);
    if (it != by_backend->second.end()) recorded = &it->second;
  }
  if (recorded == nullptr) {
    result->warnings.push_back("no digest recorded for " + key + " on the " +
                               backend() + " backend (got " + hex + ")");
  } else if (*recorded != hex) {
    result->errors.push_back("digest " + key + " is " + hex + ", recorded " +
                             *recorded);
  }
}

}  // namespace desmine::e2e
