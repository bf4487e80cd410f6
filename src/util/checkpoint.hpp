// Crash-safe snapshot persistence: a versioned, checksummed binary envelope
// written atomically (write temp + fsync + rename) with keep-last-k rotation,
// plus the little-endian Encoder/Decoder the resumable pipeline state is
// serialized through.
//
// Invariants (DESIGN.md §12):
//   * A reader never observes a torn file: the payload becomes visible only
//     via rename(2), which is atomic on POSIX.
//   * A corrupted file (truncation, bit flip, wrong magic, unknown version)
//     is rejected by checksum/header validation, and load_file falls back to
//     the previous good generation (path.1, path.2, ...).
//   * Serialization is deterministic: unordered containers are written in
//     sorted-key order (lint R10 applies to this code like any other), so a
//     checkpoint of the same state is byte-identical across runs.
//
// atomic_write_file() is the sanctioned plain-file write helper behind lint
// rule R18 (raw-file-write): every file produced under src/ goes through the
// same write-temp + rename discipline, so a crash can leave behind at most a
// stale temp file, never a half-written artifact.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace metas::util::checkpoint {

/// Envelope format version; bump on any incompatible payload change.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Envelope checksum: FNV-1a 64-bit over little-endian 8-byte words (the
/// zero-padded tail word and the byte length are mixed in last).  Word
/// granularity keeps the per-checkpoint cost ~8x below byte-wise FNV on the
/// tens-of-kilobytes payloads the pipeline writes at every rank boundary
/// (the CI checkpoint-overhead gate bounds this).  Checkpoints are
/// host-local, so the little-endian word view needs no cross-endian story.
std::uint64_t checksum64(std::string_view data);

/// Thrown by Decoder on truncated or type-inconsistent payloads.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Little-endian append-only byte sink for checkpoint payloads.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }  // lint: allow(unchecked-narrowing) -- byte packing; uint8 -> char reinterpretation is the point
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void f64(double v);
  void str(std::string_view s);

  /// Length-prefixed vector of POD-encodable values via a member encoder.
  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& encode_one) {
    u64(v.size());
    for (const T& x : v) encode_one(*this, x);
  }

  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Matching reader; every accessor throws CheckpointError past the end.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  bool b() { return u8() != 0; }
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  double f64();
  std::string str();

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& decode_one) {
    std::uint64_t n = u64();
    std::vector<T> out;
    out.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) out.push_back(decode_one(*this));
    return out;
  }

  /// True once every payload byte has been consumed.
  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  const char* take(std::size_t n);
  std::string_view data_;  // lint: allow(view-member) -- caller-owned payload bytes; a Decoder is a transient cursor inside the caller's scope
  std::size_t pos_ = 0;
};

struct WriteOptions {
  /// Checkpoint generations retained: `path` plus `path.1` .. `path.(k-1)`.
  int keep_last = 3;
  /// fsync the temp file (and its directory) before/after the rename.  The
  /// crash-injection tests and the overhead bench turn this off; production
  /// checkpoints keep it on.
  bool fsync = true;
};

/// Atomically writes `payload` wrapped in the versioned, checksummed
/// envelope to `path`, rotating previous generations down by one first.
/// Returns false (leaving any previous generation untouched) when the
/// destination cannot be written.
bool write_file(const std::string& path, std::string_view payload,
                const WriteOptions& opts = {});

/// Loads and validates the newest good checkpoint generation: `path` first,
/// then `path.1`, `path.2`, ... up to `max_generations`.  Returns the
/// payload of the first generation that passes magic/version/length/checksum
/// validation, or nullopt when none does.  When `error` is non-null it
/// receives a per-generation diagnostic trail.
std::optional<std::string> load_file(const std::string& path,
                                     std::string* error = nullptr,
                                     int max_generations = 8);

/// Sanctioned atomic plain-file write (lint R18): writes `contents` verbatim
/// (no envelope) to a same-directory temp file and renames it over `path`.
/// Returns false -- with no partial file left behind -- when the directory
/// is unwritable or any write fails.
bool atomic_write_file(const std::string& path, std::string_view contents,
                       bool fsync_file = true);

}  // namespace metas::util::checkpoint
