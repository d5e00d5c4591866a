// Binary serialization for trained artifacts.
//
// A mined multivariate relationship graph holds hundreds of trained NMT
// models; persisting it lets the offline training phase (Algorithm 1) run
// once while detection, knowledge-discovery and benchmark tooling reload the
// artifact. Two layouts share the "DESM" magic + u32 version discipline:
//
//  * v4 — the framework artifact, the only model file: the mapped,
//    page-aligned layout (io/artifact_map.h) with a fixed 64-byte header,
//    per-edge meta blobs, 64-byte-aligned raw f32 weight regions on
//    4096-byte pages, and a fixed-offset TOC, so serving mmap()s the file
//    and scores through zero-copy weight views (DESIGN.md §15).
//  * v3 stream — a tagged little-endian stream kept for exactly two uses,
//    pair-model checkpoint sidecars and the v4 per-edge meta blobs:
//      magic "DESM" | u32 version=3 | payload | "CRC1" u32 crc
//    Matrices are dims + raw f32; vocabularies are token lists; models are
//    vocabularies + config + parameter tensors in registry order.
//
// Artifacts are written crash-safely: the full payload is staged to a temp
// file in the destination directory, flushed and fsynced, then atomically
// renamed over the target, so a crash can never leave a half-written
// artifact under the final name. Corruption never loads silently: a
// sidecar's whole-file CRC trailer is always verified eagerly, v4 verifies
// header + TOC CRCs at open and each edge's meta/weight CRCs on first touch.
// Every count or length read from a file is checked against the bytes left
// before anything is allocated from it (io/wire.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/encryption.h"
#include "core/framework.h"
#include "nmt/translation.h"
#include "tensor/matrix.h"
#include "text/vocabulary.h"

namespace desmine::io {

/// The stream layout's version tag: pair-model checkpoint sidecars carry it
/// in their header, and the v4 per-edge meta blobs use its encoding.
inline constexpr std::uint32_t kStreamArtifactVersion = 3;

// ---- primitive + component (de)serializers, exposed for tests -------------

void write_matrix(std::ostream& os, tensor::ConstMatrixView m);
tensor::Matrix read_matrix(std::istream& is);

void write_vocabulary(std::ostream& os, const text::Vocabulary& v);
text::Vocabulary read_vocabulary(std::istream& is);

void write_seq2seq_config(std::ostream& os, const nmt::Seq2SeqConfig& c);
nmt::Seq2SeqConfig read_seq2seq_config(std::istream& is);

/// Why a Seq2SeqConfig read from an artifact cannot build a model, naming
/// the field (a zero dimension, a dropout outside [0, 1), an attention
/// score other than general or dot); empty when it can. Readers check it,
/// then the weights nmt::parameter_footprint implies against the bytes that
/// must hold them, before they build anything.
std::string seq2seq_config_error(const nmt::Seq2SeqConfig& c);

void write_translation_model(std::ostream& os, nmt::TranslationModel& model,
                             const nmt::Seq2SeqConfig& config);
nmt::TranslationModel read_translation_model(std::istream& is);

void write_encrypter(std::ostream& os, const core::SensorEncrypter& enc);
core::SensorEncrypter read_encrypter(std::istream& is);

// ---- crash-safe file primitives -------------------------------------------

/// Write `payload` verbatim to `path` via temp file + flush + fsync + atomic
/// rename (+ directory fsync). Throws RuntimeError on any I/O failure; on
/// failure the previous contents of `path` (if any) are untouched. Used for
/// any file that must appear all-or-nothing (quarantine journals, traces).
void write_file_atomic(const std::string& path, std::string_view payload);

/// Write `payload` + CRC-32 trailer to `path` via write_file_atomic. Throws
/// RuntimeError on any I/O failure; on failure the previous contents of
/// `path` (if any) are untouched.
void write_artifact_file(const std::string& path, std::string_view payload);

/// Read a whole stream artifact file, verify its CRC trailer and return the
/// payload with the trailer stripped. Only kStreamArtifactVersion is a
/// stream: any other version (a v4 framework artifact included) raises
/// io::ArtifactError kHeader, and truncation or corruption RuntimeError.
std::string read_artifact_file(const std::string& path);

// ---- single pair-model artifacts (checkpoint sidecars) --------------------

/// Persist one trained pair model as a standalone crash-safe artifact
/// (used by the miner's checkpoint journal), in the v3 stream layout:
/// sidecars are single models, which gain nothing from pages.
void save_pair_model(const std::string& path, nmt::TranslationModel& model,
                     const nmt::Seq2SeqConfig& config);

/// Reload a pair-model artifact written by save_pair_model. Throws
/// RuntimeError if the file is missing, truncated, or corrupt.
nmt::TranslationModel load_pair_model(const std::string& path);

// ---- whole-framework snapshot ----------------------------------------------

/// Persist a fitted framework (window config, encrypter, graph + models) as
/// a v4 mapped artifact so detection can resume in another process.
/// Throws RuntimeError on I/O failure and PreconditionError if the framework
/// is not fitted.
void save_framework(const core::Framework& framework, const std::string& path);

/// Reload a v4 snapshot via io::ArtifactMap (header + TOC verified, weights
/// mapped and bound as zero-copy views). The returned framework is fitted,
/// ready to detect, and scores bit-identically to the one saved. Any other
/// version raises io::ArtifactError kHeader naming it. Detector/miner
/// settings not needed for inference are restored from `config_overlay`
/// (pass the same FrameworkConfig used at save time, or a default one and
/// adjust the detector band afterwards).
core::Framework load_framework(const std::string& path,
                               core::FrameworkConfig config_overlay = {});

}  // namespace desmine::io
