#include "robust/interrupt.h"

#include <csignal>

namespace desmine::robust {

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
volatile std::sig_atomic_t g_reload = 0;

void handle_signal(int) { g_interrupted = 1; }

void handle_reload(int) { g_reload = 1; }

}  // namespace

void install_signal_flag() {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
}

bool interrupted() { return g_interrupted != 0; }

void request_interrupt() { g_interrupted = 1; }

void install_reload_signal() {
#ifdef SIGHUP
  std::signal(SIGHUP, handle_reload);
#endif
}

bool reload_requested() { return g_reload != 0; }

void clear_reload_request() { g_reload = 0; }

}  // namespace desmine::robust
