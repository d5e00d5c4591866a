// Bump-pointer arena for hot-path scratch and per-timestep caches.
//
// A Workspace hands out MatrixViews from a list of large chunks.
// Allocation is a pointer bump; alloc() also zero-fills the slice (the
// zero-init semantics owned Matrix buffers have), alloc_for_overwrite()
// does not, for slices the caller writes in full before any read (β = 0
// GEMM outputs, gate-fusion outputs, copies). Checking builds (no NDEBUG,
// or ASan) fill those slices with NaN instead, so a read before the write
// shows up in every test that runs the layer. Deallocation is wholesale via
// checkpoint/rewind, which never returns memory to the OS. After a warm-up
// pass has grown the arena to its high-water mark, training and inference
// allocate nothing.
//
// Lifetime rule: a view is valid until the first rewind()/reset() to a
// checkpoint at or before its allocation. Layers that interleave persistent
// caches with transient scratch allocate the caches first, checkpoint, then
// allocate scratch and rewind to the checkpoint when the step is done.
//
// Workspaces are single-threaded by design. Ownership: a model's own arena
// backs its training only; every greedy decode runs on the decoding
// thread's arena (thread_workspace()), shared by all models that thread
// decodes, so scratch scales with threads rather than with edge models. The
// miner trains its pairs on that same per-thread arena. Process-wide
// traffic is reported through obs::metrics() as the
// `tensor.workspace.bytes_peak` gauge (max over all workspaces ever) and the
// `tensor.workspace.rewinds` and `tensor.workspace.grows` counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace desmine::tensor {

/// Whether alloc_for_overwrite() fills its slices with NaN (checking builds).
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__)
inline constexpr bool kPoisonsOverwriteSlices = true;
#else
inline constexpr bool kPoisonsOverwriteSlices = false;
#endif

class Workspace {
 public:
  /// Position marker; only valid for rewinding the workspace it came from,
  /// and only backwards (to a state at or before the checkpoint).
  struct Checkpoint {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  struct Stats {
    std::size_t bytes_reserved = 0;  ///< total capacity across chunks
    std::size_t bytes_peak = 0;      ///< high-water mark of live bytes
    std::uint64_t rewinds = 0;
    std::uint64_t grows = 0;  ///< chunk allocations (0 after warm-up)
  };

  Workspace() = default;
  explicit Workspace(std::size_t initial_bytes) { reserve(initial_bytes); }
  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Zero-initialized rows x cols slice. Grows the arena if needed.
  MatrixView alloc(std::size_t rows, std::size_t cols);

  /// Zero-initialized flat slice of `count` floats.
  float* alloc_floats(std::size_t count);

  /// Uninitialized rows x cols slice (NaN-filled in checking builds, see
  /// kPoisonsOverwriteSlices): only for slices written in full before any
  /// element is read. Accumulators take alloc().
  MatrixView alloc_for_overwrite(std::size_t rows, std::size_t cols);

  Checkpoint checkpoint() const { return Checkpoint{chunk_, used_}; }

  /// Drop every allocation made after `cp`; capacity is retained.
  void rewind(Checkpoint cp);

  /// Drop everything; capacity is retained.
  void reset() { rewind(Checkpoint{}); }

  /// Ensure at least `bytes` of total capacity (one contiguous extra chunk
  /// if short). Call before a hot loop to avoid growth inside it.
  void reserve(std::size_t bytes);

  Stats stats() const;
  std::size_t bytes_used() const;

 private:
  struct Chunk {
    std::unique_ptr<float[]> data;
    std::size_t capacity = 0;  ///< in floats
  };

  float* bump(std::size_t count);

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;  ///< current chunk index
  std::size_t used_ = 0;   ///< floats used in current chunk
  std::size_t floats_before_ = 0;  ///< floats in chunks before chunk_
  Stats stats_;
};

/// The calling thread's scratch arena (created on first use, freed when the
/// thread exits). Each user resets it before use, so views into it die at
/// the next greedy decode or training batch on this thread.
Workspace& thread_workspace();

}  // namespace desmine::tensor
