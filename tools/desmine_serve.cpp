// desmine_serve — long-lived multi-session streaming detection service.
//
// Loads one trained artifact (desmine_cli train) and serves any number of
// concurrent detection sessions over a JSON-lines protocol, batching
// window scores across sessions by edge model (serve::SessionManager).
//
// Protocol: one flat JSON object per line on stdin (default) or per TCP
// connection (--listen PORT). Requests:
//   {"op": "open"}                        -> {"ok":true,"op":"open","session":N}
//     optional "degraded": "true" for per-session health tracking
//   {"op": "ingest", "session": "N", "<sensor>": "<state>", ...}
//     one tick; every key besides op/session is a sensor reading. Completed
//     windows are emitted as events (see below). Silent when accepted.
//   {"op": "close", "session": "N"}       finish the session: drains
//     in-flight windows, emits them, then acknowledges.
//   {"op": "stats", "session": "N"}       session counters
//   {"op": "ping"}                        liveness check
//   {"op": "reload"}                      hot-swap the served models from a
//     saved artifact (optional "model": path; defaults to --model). On
//     success -> {"ok":true,"op":"reload","generation":N}; on failure the
//     old generation keeps serving. SIGHUP triggers the same reload of the
//     --model path from the outside.
//   {"op": "shadow", "model": PATH}       arm PATH as a shadow candidate
//     (DESIGN.md §14): it scores a mirrored sample of live windows with no
//     client-visible effect. "model" defaults to --model.
//     -> {"ok":true,"op":"shadow","candidate":N}
//   {"op": "promote"}                     promote the armed candidate into
//     serving; requires the shadow gate to pass.
//     -> {"ok":true,"op":"promote","generation":N}
//   {"op": "rollback"}                    discard the armed candidate; the
//     active generation stays bit-identical.
//     -> {"ok":true,"op":"rollback","path":PATH}
//   {"op": "shutdown"}                    drain in-flight windows, ack, then
//     exit exactly like SIGTERM (exit code 130 — the contract is unchanged)
// Window events (scored asynchronously, emitted in window order on the
// session's own connection at the next protocol interaction):
//   {"event":"window","session":N,"window":W,"end_tick":T,"score":S,
//    "coverage":C,"degraded":false,"broken":"a->b c->d","unhealthy":"s2",
//    "failed":"a->b","shed":false}
//   `failed` lists edges whose score was unavailable (decode failure or an
//   open circuit breaker); `shed` marks windows dropped under overload.
// Errors: {"ok":false,"error":"..."} — the connection stays up.
// Malformed lines get such an error and the next line is still served. A
// line is malformed when it is not one JSON object (RFC 8259) whose values
// are all strings, numbers, true, false or null: a nested object or array,
// text after the object, a bad literal or number ("session":1abc), a bad
// escape or lone surrogate, or a repeated key. A \uXXXX escape (and a
// surrogate pair) in a state arrives as its UTF-8 bytes, so it scores like
// the raw UTF-8 state. "session" must be a decimal id. A line longer than
// 1 MiB is answered with one error and skipped up to its newline.
//
// Options: --model FILE (required), --config FILE / --dump-config,
// --listen PORT, detector band overrides (--lo --hi --tolerance
// --min-coverage), serving knobs (--workers --max-batch --decode-cache
// --max-pending --reject-when-full), fault-tolerance knobs
// (--max-global-pending --max-queue-delay-ms --max-consecutive-shed
// --circuit-open-after --circuit-probe-after), compute-kernel knobs
// (--kernels, DESIGN.md §16), telemetry knobs
// (--telemetry-port --slow-window-ms --sliding-window-s --sliding-epochs;
// /metrics serves Prometheus text, /statusz the version/uptime/generation/
// stage-quantiles document), health knobs as desmine_cli detect, and the
// shared observability flags; any other option is a usage error. Exit
// codes match desmine_cli: 0 ok | 1 runtime error | 2 usage error |
// 130 interrupted.
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "args.h"
#include "desmine.h"
#include "obs/json.h"
#include "robust/interrupt.h"
#include "util/error.h"
#include "util/version.h"

using namespace desmine;
using tools::Args;

namespace {

/// Every option the service reads; anything else is a usage error.
const std::set<std::string> kOptions = {
    "model", "config", "listen", "lo", "hi", "tolerance", "min-coverage",
    "health-drop-after", "health-stale-after", "health-unk-rate",
    "health-unk-window", "health-readmit-after", "workers", "max-batch",
    "decode-cache", "max-pending", "max-consecutive-shed",
    "max-global-pending", "max-queue-delay-ms", "circuit-open-after",
    "circuit-probe-after", "telemetry-port", "resident-bytes",
    "resident-edges", "kernels", "slow-window-ms", "sliding-window-s",
    "sliding-epochs", "log-level", "log-json", "metrics-out"};
const std::set<std::string> kFlags = {"dump-config", "reject-when-full",
                                      "force-heap-fallback"};

io::RunConfig effective_config(const Args& args) {
  io::RunConfig run = tools::run_config(args);
  io::validate_run_config(run, args.values());
  run.serve.detector = run.framework.detector;
  return run;
}

/// Per-stage latency quantiles out of the cumulative stage histograms —
/// shared by the stats op and /statusz.
void stage_quantiles_json(obs::JsonWriter& w) {
  const obs::RegistrySnapshot snap = obs::metrics().snapshot();
  w.key("stages").begin_object();
  for (const char* stage :
       {"queue_ms", "batch_form_ms", "decode_ms", "reorder_ms"}) {
    w.key(stage).begin_object();
    const auto it = snap.histograms.find(std::string("serve.stage.") + stage);
    const obs::Histogram::Snapshot s =
        it == snap.histograms.end() ? obs::Histogram::Snapshot{} : it->second;
    w.key("count").value(s.count);
    w.key("p50").value(s.quantile(0.50));
    w.key("p95").value(s.quantile(0.95));
    w.key("p99").value(s.quantile(0.99));
    w.end_object();
  }
  w.end_object();
}

/// Model-lifecycle fields shared by the stats op and /statusz: generation,
/// retired-generation drain, last reload failure, and the armed shadow
/// candidate's gate progress (null when none is armed).
void lifecycle_fields_json(obs::JsonWriter& w,
                           const serve::SessionManager& manager) {
  w.key("generation").value(manager.generation());
  w.key("retired_live").value(
      static_cast<std::uint64_t>(manager.registry().retired_live()));
  w.key("last_reload_error").value(manager.last_reload_error());
  w.key("candidate");
  const auto status = manager.shadow_status();
  if (!status) {
    w.null();
    return;
  }
  w.begin_object();
  w.key("path").value(status->path);
  w.key("candidate_id").value(status->candidate_id);
  w.key("observed").value(static_cast<std::uint64_t>(status->observed));
  w.key("sampled").value(static_cast<std::uint64_t>(status->sampled));
  w.key("alert_rate").value(status->alert_rate());
  w.key("agreement").value(status->agreement());
  w.key("failures").value(static_cast<std::uint64_t>(status->failures));
  w.key("gate_passed").value(manager.shadow_gate_passed());
  w.end_object();
}

/// The /statusz document: build identity, uptime, live session/model
/// counts, lifecycle state, and the per-stage quantiles.
std::string statusz_json(const serve::SessionManager& manager) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("version").value(util::desmine_version());
  w.key("uptime_s").value(manager.uptime_s());
  w.key("sessions").value(
      static_cast<std::uint64_t>(manager.session_count()));
  w.key("valid_models").value(
      static_cast<std::uint64_t>(manager.valid_model_count()));
  w.key("kernels").value(
      tensor::kernels::backend_name(tensor::kernels::active_backend()));
  lifecycle_fields_json(w, manager);
  stage_quantiles_json(w);
  w.end_object();
  return w.str();
}

/// One protocol endpoint (stdin/stdout or one TCP connection). Lines are
/// written whole so concurrent connections never interleave mid-line.
class LineWriter {
 public:
  virtual ~LineWriter() = default;
  virtual void write(const std::string& line) = 0;
};

class StdoutWriter : public LineWriter {
 public:
  void write(const std::string& line) override {
    std::cout << line << "\n" << std::flush;
  }
};

class FdWriter : public LineWriter {
 public:
  explicit FdWriter(int fd) : fd_(fd) {}
  void write(const std::string& line) override {
    std::string out = line;
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
      if (n <= 0) return;  // peer went away; drop the rest silently
      off += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
};

std::string error_line(const std::string& what) {
  obs::JsonWriter w;
  w.begin_object().key("ok").value(false).key("error").value(what);
  w.end_object();
  return w.str();
}

std::string window_line(std::uint64_t session,
                        const serve::WindowResult& r,
                        const core::SensorEncrypter& encrypter) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("event").value("window");
  w.key("session").value(static_cast<std::uint64_t>(session));
  w.key("window").value(static_cast<std::uint64_t>(r.window_index));
  w.key("end_tick").value(static_cast<std::uint64_t>(r.end_tick));
  w.key("score").value(r.anomaly_score);
  w.key("coverage").value(r.coverage);
  w.key("degraded").value(r.degraded);
  const auto& names = encrypter.kept_sensors();
  std::string broken;
  for (const auto& [src, dst] : r.broken) {
    if (!broken.empty()) broken += ' ';
    broken += names[src] + "->" + names[dst];
  }
  w.key("broken").value(broken);
  std::string unhealthy;
  for (const std::size_t n : r.unhealthy) {
    if (!unhealthy.empty()) unhealthy += ' ';
    unhealthy += names[n];
  }
  w.key("unhealthy").value(unhealthy);
  std::string failed;
  for (const auto& [src, dst] : r.failed) {
    if (!failed.empty()) failed += ' ';
    failed += names[src] + "->" + names[dst];
  }
  w.key("failed").value(failed);
  w.key("shed").value(r.shed);
  w.end_object();
  return w.str();
}

/// The protocol state machine, shared by stdin and TCP front-ends. One
/// instance per connection; the SessionManager behind it is shared, so
/// sessions on different connections batch into the same decodes.
class Protocol {
 public:
  /// `default_model` backs the reload op when no "model" field is given;
  /// `shutdown_hook` runs after a shutdown op's ack was written (it mirrors
  /// SIGTERM: sets the interrupt flag and unblocks the accept loop).
  Protocol(serve::SessionManager& manager, core::DegradedConfig degraded,
           std::string default_model, std::function<void()> shutdown_hook)
      : manager_(manager),
        degraded_(degraded),
        default_model_(std::move(default_model)),
        shutdown_hook_(std::move(shutdown_hook)) {}

  ~Protocol() {
    // A dropped connection takes its sessions with it.
    for (const std::uint64_t id : mine_) {
      try {
        manager_.erase(id);
      } catch (const std::exception&) {
      }
    }
  }

  void handle(std::string_view line, LineWriter& out) {
    if (line.empty()) return;
    std::map<std::string, std::string> fields;
    if (!obs::parse_flat_json(line, fields)) {
      out.write(error_line("malformed JSON line"));
      return;
    }
    const auto op_it = fields.find("op");
    if (op_it == fields.end()) {
      out.write(error_line("missing \"op\""));
      return;
    }
    const std::string op = op_it->second;
    try {
      if (op == "open") {
        cmd_open(fields, out);
      } else if (op == "ingest") {
        cmd_ingest(fields, out);
      } else if (op == "close") {
        cmd_close(fields, out);
      } else if (op == "stats") {
        cmd_stats(fields, out);
      } else if (op == "reload") {
        cmd_reload(fields, out);
      } else if (op == "shadow") {
        cmd_shadow(fields, out);
      } else if (op == "promote") {
        cmd_promote(out);
      } else if (op == "rollback") {
        cmd_rollback(out);
      } else if (op == "shutdown") {
        cmd_shutdown(out);
      } else if (op == "ping") {
        obs::JsonWriter w;
        w.begin_object().key("ok").value(true).key("op").value("ping");
        w.end_object();
        out.write(w.str());
      } else {
        out.write(error_line("unknown op '" + op + "'"));
      }
    } catch (const std::exception& e) {
      out.write(error_line(e.what()));
    }
  }

 private:
  std::uint64_t session_of(const std::map<std::string, std::string>& fields) {
    const auto it = fields.find("session");
    if (it == fields.end()) {
      throw PreconditionError("missing \"session\"");
    }
    const std::string& text = it->second;
    std::uint64_t id = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), id);
    if (ec != std::errc() || end != text.data() + text.size() ||
        mine_.count(id) == 0) {
      throw PreconditionError("unknown session '" + it->second + "'");
    }
    return id;
  }

  void emit_completed(std::uint64_t id, LineWriter& out) {
    while (const auto r = manager_.poll(id)) {
      out.write(window_line(id, *r, manager_.encrypter()));
    }
  }

  void cmd_open(const std::map<std::string, std::string>& fields,
                LineWriter& out) {
    core::DegradedConfig degraded;  // strict unless asked
    const auto it = fields.find("degraded");
    if (it != fields.end() && it->second == "true") degraded = degraded_;
    const std::uint64_t id = manager_.open(degraded);
    mine_.insert(id);
    obs::JsonWriter w;
    w.begin_object().key("ok").value(true).key("op").value("open");
    w.key("session").value(static_cast<std::uint64_t>(id));
    w.end_object();
    out.write(w.str());
  }

  /// Every field besides op/session is a sensor reading; they are erased
  /// from `fields` in place, which leaves the tick.
  void cmd_ingest(std::map<std::string, std::string>& fields,
                  LineWriter& out) {
    const std::uint64_t id = session_of(fields);
    fields.erase("op");
    fields.erase("session");
    const serve::IngestStatus status = manager_.ingest(id, fields);
    if (status == serve::IngestStatus::kRejected) {
      out.write(error_line("backpressure: session " + std::to_string(id) +
                           " is full; poll and retry"));
    } else if (status == serve::IngestStatus::kClosed) {
      out.write(error_line("session " + std::to_string(id) + " is closed"));
    }
    emit_completed(id, out);
  }

  void cmd_close(const std::map<std::string, std::string>& fields,
                 LineWriter& out) {
    const std::uint64_t id = session_of(fields);
    manager_.close(id);
    manager_.drain(id);
    emit_completed(id, out);
    const serve::Session::Stats stats = manager_.stats(id);
    manager_.erase(id);
    mine_.erase(id);
    obs::JsonWriter w;
    w.begin_object().key("ok").value(true).key("op").value("close");
    w.key("session").value(static_cast<std::uint64_t>(id));
    w.key("windows").value(static_cast<std::uint64_t>(stats.windows_delivered));
    w.end_object();
    out.write(w.str());
  }

  void cmd_stats(const std::map<std::string, std::string>& fields,
                 LineWriter& out) {
    const std::uint64_t id = session_of(fields);
    emit_completed(id, out);
    const serve::Session::Stats stats = manager_.stats(id);
    obs::JsonWriter w;
    w.begin_object().key("ok").value(true).key("op").value("stats");
    w.key("session").value(static_cast<std::uint64_t>(id));
    w.key("ticks").value(static_cast<std::uint64_t>(stats.ticks));
    w.key("windows_assembled")
        .value(static_cast<std::uint64_t>(stats.windows_assembled));
    w.key("windows_delivered")
        .value(static_cast<std::uint64_t>(stats.windows_delivered));
    w.key("pending").value(static_cast<std::uint64_t>(stats.pending));
    w.key("shed").value(static_cast<std::uint64_t>(stats.shed));
    w.key("kernels").value(
        tensor::kernels::backend_name(tensor::kernels::active_backend()));
    lifecycle_fields_json(w, manager_);
    w.key("uptime_s").value(manager_.uptime_s());
    w.key("version").value(util::desmine_version());
    stage_quantiles_json(w);
    w.end_object();
    out.write(w.str());
  }

  void cmd_reload(const std::map<std::string, std::string>& fields,
                  LineWriter& out) {
    const auto it = fields.find("model");
    const std::string path =
        it != fields.end() && !it->second.empty() ? it->second
                                                  : default_model_;
    const std::uint64_t generation = manager_.reload(path);
    obs::JsonWriter w;
    w.begin_object().key("ok").value(true).key("op").value("reload");
    w.key("generation").value(generation);
    w.end_object();
    out.write(w.str());
  }

  void cmd_shadow(const std::map<std::string, std::string>& fields,
                  LineWriter& out) {
    const auto it = fields.find("model");
    const std::string path =
        it != fields.end() && !it->second.empty() ? it->second
                                                  : default_model_;
    const std::uint64_t candidate = manager_.begin_shadow(path);
    obs::JsonWriter w;
    w.begin_object().key("ok").value(true).key("op").value("shadow");
    w.key("candidate").value(candidate);
    w.end_object();
    out.write(w.str());
  }

  void cmd_promote(LineWriter& out) {
    const std::uint64_t generation = manager_.promote();
    obs::JsonWriter w;
    w.begin_object().key("ok").value(true).key("op").value("promote");
    w.key("generation").value(generation);
    w.end_object();
    out.write(w.str());
  }

  void cmd_rollback(LineWriter& out) {
    const std::string path = manager_.rollback();
    obs::JsonWriter w;
    w.begin_object().key("ok").value(true).key("op").value("rollback");
    w.key("path").value(path);
    w.end_object();
    out.write(w.str());
  }

  void cmd_shutdown(LineWriter& out) {
    // Drain-then-exit: every in-flight window is scored before the ack, and
    // the hook then takes the same path SIGTERM does (exit code 130).
    manager_.drain();
    obs::JsonWriter w;
    w.begin_object().key("ok").value(true).key("op").value("shutdown");
    w.end_object();
    out.write(w.str());
    if (shutdown_hook_) shutdown_hook_();
  }

  serve::SessionManager& manager_;
  core::DegradedConfig degraded_;
  const std::string default_model_;
  const std::function<void()> shutdown_hook_;
  std::set<std::uint64_t> mine_;
};

/// The longest protocol line served. Not a knob: an ingest line for the
/// paper's 122 sensors is about 4 KB.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// The line reader both front ends share: hands `protocol` each line read
/// from `fd` (a trailing '\r' dropped) until EOF, a read error, or an
/// interrupt seen between lines. A line longer than kMaxLineBytes gets one
/// error line and is skipped up to its newline; reading goes on.
void serve_lines(int fd, Protocol& protocol, LineWriter& out) {
  std::string line;
  bool too_long = false;
  const auto end_line = [&] {
    if (!too_long) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      protocol.handle(line, out);
    }
    too_long = false;
    line.clear();
  };
  std::vector<char> chunk(64 * 1024);
  for (;;) {
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n <= 0) {
      if (n == 0 && !line.empty() && !robust::interrupted()) end_line();
      return;
    }
    std::string_view bytes(chunk.data(), static_cast<std::size_t>(n));
    for (;;) {
      const std::size_t nl = bytes.find('\n');
      const std::string_view part = bytes.substr(0, nl);
      if (too_long) {
        // still skipping an over-long line
      } else if (line.size() + part.size() > kMaxLineBytes) {
        too_long = true;
        line.clear();
        out.write(error_line("line longer than " +
                             std::to_string(kMaxLineBytes) + " bytes"));
      } else {
        line.append(part);
      }
      if (nl == std::string_view::npos) break;
      if (robust::interrupted()) return;
      end_line();
      if (robust::interrupted()) return;  // shutdown op, after its ack
      bytes.remove_prefix(nl + 1);
    }
  }
}

int run_stdin(serve::SessionManager& manager, core::DegradedConfig degraded,
              const std::string& model_path) {
  Protocol protocol(manager, degraded, model_path,
                    [] { robust::request_interrupt(); });
  StdoutWriter out;
  serve_lines(STDIN_FILENO, protocol, out);
  return robust::interrupted() ? 130 : 0;
}

int run_tcp(serve::SessionManager& manager, core::DegradedConfig degraded,
            const std::string& model_path, int port) {
  // std::signal installs SA_RESTART handlers, under which a blocking
  // accept()/read() silently resumes and SIGINT/SIGTERM never interrupt the
  // server. Re-install without SA_RESTART so they fail with EINTR instead.
  struct sigaction sa {};
  sa.sa_handler = [](int) { robust::request_interrupt(); };
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) throw RuntimeError("socket() failed");
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 16) < 0) {
    ::close(listener);
    throw RuntimeError("cannot listen on 127.0.0.1:" + std::to_string(port));
  }
  DESMINE_LOG_INFO("serving", {obs::kv("port", static_cast<std::int64_t>(port))});

  std::vector<std::thread> connections;
  std::mutex fds_mu;
  std::vector<int> open_fds;
  // The shutdown op's hook: flag the interrupt like SIGTERM would, then
  // poke the listener so the accept loop below observes it immediately.
  const auto shutdown_hook = [listener] {
    robust::request_interrupt();
    ::shutdown(listener, SHUT_RDWR);
  };
  while (!robust::interrupted()) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;  // interrupted or listener torn down
    {
      std::lock_guard lock(fds_mu);
      open_fds.push_back(fd);
    }
    connections.emplace_back([fd, &manager, degraded, &model_path,
                              &shutdown_hook] {
      Protocol protocol(manager, degraded, model_path, shutdown_hook);
      FdWriter out(fd);
      serve_lines(fd, protocol, out);
      ::close(fd);
    });
  }
  ::close(listener);
  {
    // Unblock connection threads parked in read() so join() cannot hang on
    // an idle client; their reads return 0/-1 and the threads exit.
    std::lock_guard lock(fds_mu);
    for (const int fd : open_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : connections) t.join();
  return robust::interrupted() ? 130 : 0;
}

void usage() {
  std::cerr
      << "usage: desmine_serve --model model.bin [options]\n"
         "  --listen PORT        serve JSON-lines over TCP (127.0.0.1);\n"
         "                       default reads stdin, writes stdout\n"
         "  --config FILE        JSON config baseline (desmine_cli\n"
         "                       --dump-config for the schema)\n"
         "  --dump-config        print the effective config as JSON and exit\n"
         "  --lo 80 --hi 90 --tolerance 0 --min-coverage 0.5\n"
         "  --workers 0 --max-batch 32 --decode-cache 4096\n"
         "  --max-pending 64 --reject-when-full\n"
         "  --max-global-pending 0   cap in-flight windows across sessions\n"
         "  --max-queue-delay-ms 0   shed windows queued longer than this\n"
         "  --max-consecutive-shed 8 --circuit-open-after 5\n"
         "  --circuit-probe-after 16\n"
         "  --telemetry-port P   expose /metrics /healthz /statusz on\n"
         "                       127.0.0.1:P (Prometheus text format)\n"
         "  --resident-bytes 0   mapped (v4) models: LRU byte budget for\n"
         "                       materialized edge decode state (0 = all)\n"
         "  --resident-edges 0   mapped models: cap on materialized edges\n"
         "  --force-heap-fallback  read v4 artifacts into heap memory\n"
         "                       instead of mmap (debug/portability)\n"
         "  --kernels auto|scalar|avx2   compute-kernel backend\n"
         "                       (default auto: DESMINE_KERNELS env, else\n"
         "                       best available for this CPU)\n"
         "  --slow-window-ms MS  log span trees of windows slower than MS\n"
         "  --sliding-window-s 60 --sliding-epochs 6\n"
         "  --health-drop-after 3 --health-stale-after 0 --health-unk-rate\n"
         "  0.5 --health-unk-window 64 --health-readmit-after 8\n"
         "  --log-level L --log-json FILE --metrics-out FILE\n"
         "protocol: one flat JSON object per line; see the tool header\n"
         "lifecycle ops: shadow (arm a candidate), promote (gate-checked\n"
         "hot swap), rollback (discard; serving untouched) — DESIGN.md §14\n"
         "signals: SIGHUP hot-reloads --model; SIGTERM/SIGINT drain and exit\n"
         "exit codes: 0 ok | 1 runtime error | 2 usage error (including an\n"
         "            unknown option) | 130 interrupted\n";
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot write " + path);
  out << content << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<Args> args;
  try {
    args = std::make_unique<Args>(argc, argv, 1, kOptions, kFlags);
    obs::logger().set_level(
        obs::parse_level(args->get_or("log-level", "info")));
    const std::string log_json = args->get_or("log-json", "");
    if (!log_json.empty()) {
      obs::logger().add_sink(std::make_shared<obs::JsonLinesSink>(log_json));
    }
  } catch (const std::exception& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    usage();
    return 2;
  }
  try {
    io::RunConfig run = effective_config(*args);
    const std::string listen = args->get_or("listen", "");
    const std::uint16_t port = args->count<std::uint16_t>("listen", 0);
    if (args->flag("dump-config")) {
      std::cout << io::run_config_to_json(run);
      return 0;
    }
    tensor::kernels::select_backend(run.tensor.kernels);
    DESMINE_LOG_INFO(
        "compute kernels selected",
        {obs::kv("backend", tensor::kernels::backend_name(
                                tensor::kernels::active_backend()))});

    const std::string model_path = args->get("model");
    if (args->flag("force-heap-fallback")) {
      // Honored by io::ArtifactMap::open for this process and any reload.
      ::setenv("DESMINE_FORCE_HEAP_FALLBACK", "1", 1);
    }
    // The v4 artifact is mmap()ed and served through zero-copy weight views
    // (restart-to-first-window is O(header + TOC)); a v1–v3 file is rejected
    // at its header.
    serve::SessionManager manager(model_path, run.serve);
    core::DegradedConfig degraded;
    degraded.enabled = true;
    degraded.health = run.health;

    // Telemetry plane: declared after the manager so the listener stops
    // before the sessions it reads from are torn down.
    obs::HttpExposition exposition;
    if (run.serve.telemetry_port != 0) {
      obs::mount_telemetry(exposition,
                           [&manager] { return statusz_json(manager); });
      exposition.start(static_cast<std::uint16_t>(run.serve.telemetry_port));
      DESMINE_LOG_INFO("telemetry up",
                       {obs::kv("port", exposition.port()),
                        obs::kv("endpoints", "/metrics /healthz /statusz")});
    }

    // SIGHUP watcher: a control thread polls the reload flag and hot-swaps
    // the --model artifact off the protocol/worker threads. Reload failures
    // are logged by the manager and leave the old generation serving.
    robust::install_reload_signal();
    std::atomic<bool> watcher_stop{false};
    std::thread reload_watcher([&manager, &watcher_stop, model_path] {
      while (!watcher_stop.load(std::memory_order_relaxed)) {
        if (robust::reload_requested()) {
          robust::clear_reload_request();
          try {
            manager.reload(model_path);
          } catch (const std::exception&) {
            // already counted (serve.reload.failures) and logged
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });

    robust::install_signal_flag();
    const int rc = listen.empty()
                       ? run_stdin(manager, degraded, model_path)
                       : run_tcp(manager, degraded, model_path, port);

    watcher_stop.store(true, std::memory_order_relaxed);
    reload_watcher.join();

    const std::string metrics_out = args->get_or("metrics-out", "");
    if (!metrics_out.empty()) {
      write_file(metrics_out, obs::metrics().to_json());
    }
    return rc;
  } catch (const PreconditionError& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
