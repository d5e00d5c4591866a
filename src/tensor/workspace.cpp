#include "tensor/workspace.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "obs/metrics.h"
#include "util/error.h"

namespace desmine::tensor {

namespace {

// 256 KiB minimum chunk: big enough that toy configs never grow twice,
// small enough that a thread_local workspace per pool thread stays cheap.
constexpr std::size_t kMinChunkFloats = 64 * 1024;
// Allocations are rounded to 16 floats (64 bytes) so consecutive slices
// start on distinct cache lines.
constexpr std::size_t kAlignFloats = 16;

std::atomic<std::size_t>& global_peak_bytes() {
  static std::atomic<std::size_t> v{0};
  return v;
}

obs::Gauge& peak_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("tensor.workspace.bytes_peak");
  return g;
}

obs::Counter& rewind_counter() {
  static obs::Counter& c = obs::metrics().counter("tensor.workspace.rewinds");
  return c;
}

obs::Counter& grow_counter() {
  static obs::Counter& c = obs::metrics().counter("tensor.workspace.grows");
  return c;
}

void note_global_peak(std::size_t bytes) {
  std::atomic<std::size_t>& peak = global_peak_bytes();
  std::size_t cur = peak.load(std::memory_order_relaxed);
  while (bytes > cur &&
         !peak.compare_exchange_weak(cur, bytes, std::memory_order_relaxed)) {
  }
  peak_gauge().set(static_cast<double>(peak.load(std::memory_order_relaxed)));
}

}  // namespace

Workspace::~Workspace() = default;

float* Workspace::bump(std::size_t count) {
  count = (count + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  while (chunk_ < chunks_.size() &&
         used_ + count > chunks_[chunk_].capacity) {
    // Space left in the current chunk is parked until the next rewind.
    floats_before_ += chunks_[chunk_].capacity;
    ++chunk_;
    used_ = 0;
  }
  if (chunk_ == chunks_.size()) {
    std::size_t reserved_floats = 0;
    for (const Chunk& c : chunks_) reserved_floats += c.capacity;
    const std::size_t cap =
        std::max({count, kMinChunkFloats, reserved_floats});
    chunks_.push_back(Chunk{std::make_unique<float[]>(cap), cap});
    used_ = 0;
    ++stats_.grows;
    grow_counter().inc();
    stats_.bytes_reserved += cap * sizeof(float);
  }
  float* out = chunks_[chunk_].data.get() + used_;
  used_ += count;
  const std::size_t live = (floats_before_ + used_) * sizeof(float);
  if (live > stats_.bytes_peak) {
    stats_.bytes_peak = live;
    note_global_peak(live);
  }
  return out;
}

MatrixView Workspace::alloc(std::size_t rows, std::size_t cols) {
  float* data = alloc_floats(rows * cols);
  return MatrixView(data, rows, cols);
}

float* Workspace::alloc_floats(std::size_t count) {
  float* data = bump(count);
  std::fill(data, data + count, 0.0f);
  return data;
}

MatrixView Workspace::alloc_for_overwrite(std::size_t rows, std::size_t cols) {
  float* data = bump(rows * cols);
  if constexpr (kPoisonsOverwriteSlices) {
    std::fill(data, data + rows * cols,
              std::numeric_limits<float>::quiet_NaN());
  }
  return MatrixView(data, rows, cols);
}

void Workspace::rewind(Checkpoint cp) {
  DESMINE_EXPECTS(cp.chunk < chunks_.size() ||
                      (cp.chunk == 0 && cp.used == 0),
                  "rewind checkpoint from a different workspace");
  DESMINE_EXPECTS(cp.chunk < chunk_ ||
                      (cp.chunk == chunk_ && cp.used <= used_),
                  "workspace rewind must go backwards");
  chunk_ = cp.chunk;
  used_ = cp.used;
  floats_before_ = 0;
  for (std::size_t i = 0; i < chunk_; ++i) {
    floats_before_ += chunks_[i].capacity;
  }
  ++stats_.rewinds;
  rewind_counter().inc();
}

void Workspace::reserve(std::size_t bytes) {
  if (stats_.bytes_reserved >= bytes) return;
  const std::size_t missing_floats =
      (bytes - stats_.bytes_reserved + sizeof(float) - 1) / sizeof(float);
  const std::size_t cap = std::max(missing_floats, kMinChunkFloats);
  chunks_.push_back(Chunk{std::make_unique<float[]>(cap), cap});
  ++stats_.grows;
  grow_counter().inc();
  stats_.bytes_reserved += cap * sizeof(float);
}

Workspace::Stats Workspace::stats() const { return stats_; }

std::size_t Workspace::bytes_used() const {
  return (floats_before_ + used_) * sizeof(float);
}

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace desmine::tensor
