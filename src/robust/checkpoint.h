// Append-only JSON-lines checkpoint journal for relationship mining.
//
// Algorithm 1 trains N(N-1) independent pair models over hours; a crash must
// not lose finished pairs. The miner appends one flat JSON object per
// finished pair (success or permanent failure) and fsyncs after each record,
// so the journal is durable up to the last completed pair. Trained models
// are stored beside the journal in `<journal>.models/pair_<index>.bin`
// (crash-safe CRC-trailed artifacts, see io::serialize).
//
// On resume the reader is deliberately tolerant: a truncated trailing line
// (the record being written when the process died) is skipped, not fatal.
// BLEU scores are persisted both human-readably and as IEEE-754 bit
// patterns ("bleu_bits") so a resumed graph is bit-identical to an
// uninterrupted run.
//
// The journal header carries a fingerprint of the miner configuration and
// sensor set; resuming against a checkpoint written under a different
// configuration throws instead of mixing incomparable BLEU scores.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

namespace desmine::robust {

/// One journaled pair outcome.
struct PairRecord {
  std::size_t pair_index = 0;
  std::size_t src = 0;
  std::size_t dst = 0;
  bool ok = false;
  double bleu = 0.0;
  double runtime_s = 0.0;
  std::size_t steps = 0;
  std::size_t attempts = 1;   ///< training attempts made (1 = no retries)
  std::string error;          ///< failure reason when !ok
  std::string model_file;     ///< sidecar model artifact when ok
};

/// Parsed journal contents.
struct CheckpointState {
  bool exists = false;        ///< the journal file was present
  bool has_header = false;
  std::uint32_t fingerprint = 0;
  std::size_t pair_count = 0;  ///< total pairs declared by the header
  std::map<std::size_t, PairRecord> completed;  ///< ok records by pair index
  std::size_t failed_records = 0;  ///< permanent-failure records seen
  std::size_t skipped_lines = 0;   ///< malformed/truncated lines ignored
};

/// Read a journal; missing file yields {exists = false}. Never throws on
/// malformed content — bad lines are counted in skipped_lines.
CheckpointState load_checkpoint(const std::string& path);

/// Sidecar locations for per-pair model artifacts.
std::string checkpoint_model_dir(const std::string& journal_path);
std::string checkpoint_model_file(const std::string& journal_path,
                                  std::size_t pair_index);

/// Append-only journal writer. Thread-safe; every append is flushed and
/// fsynced before returning so completed pairs survive a crash.
class CheckpointJournal {
 public:
  /// Opens `path` for appending (resume) or truncates it (fresh run).
  /// Throws RuntimeError if the file cannot be opened.
  CheckpointJournal(const std::string& path, bool append);
  ~CheckpointJournal();

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  void write_header(std::uint32_t fingerprint, std::size_t pair_count);
  void append(const PairRecord& record);

  const std::string& path() const { return path_; }

 private:
  void write_line(const std::string& line);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

}  // namespace desmine::robust
