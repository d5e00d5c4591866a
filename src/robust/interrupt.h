// SIGINT/SIGTERM-to-flag bridge for graceful shutdown.
//
// Signal handlers can do almost nothing async-signal-safely, so the handler
// only sets an atomic flag. Long-running loops (the miner, between pairs)
// poll interrupted() through MinerConfig::should_abort and unwind normally —
// flushing the checkpoint journal and letting the CLI dump metrics — instead
// of dying mid-write.
#pragma once

namespace desmine::robust {

/// Install SIGINT/SIGTERM handlers that set the interrupted flag. Safe to
/// call more than once.
void install_signal_flag();

/// True once SIGINT/SIGTERM was received (or request_interrupt was called).
bool interrupted();

/// Set the flag programmatically (tests, or an embedding application's own
/// shutdown path).
void request_interrupt();

/// Install a SIGHUP handler that sets the reload-requested flag (the
/// conventional "re-read your config/model" signal; desmine_serve's watcher
/// thread polls it and triggers a hot reload). Safe to call more than once.
void install_reload_signal();

/// True once SIGHUP was received and the request has not been cleared yet.
bool reload_requested();

/// Acknowledge a reload request.
void clear_reload_request();

}  // namespace desmine::robust
