// Minimal binary serialization for checkpoint snapshots.
//
// The format is deliberately dumb: fixed-width little-endian integers,
// doubles as exact IEEE-754 bit patterns (byte identity of a restored run
// depends on bit-exact state), length-prefixed strings. No varints, no
// schema evolution inside a payload — the checkpoint header carries a
// version number and incompatible formats are rejected wholesale (see
// docs/CHECKPOINT.md).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hdtn {

/// Thrown by Deserializer on a truncated or malformed payload. Checkpoint
/// payloads are checksummed before parsing, so in practice this indicates a
/// writer/reader mismatch, not file corruption.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends values to a growing byte buffer.
class Serializer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) { littleEndian(v); }

  void u64(std::uint64_t v) { littleEndian(v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view v) {
    u64(v.size());
    bytes_.append(v.data(), v.size());
  }

  /// Raw bytes without a length prefix (fixed-size digests).
  void raw(const void* data, std::size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }

  /// Pre-sizes the buffer for `n` bytes in total.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  [[nodiscard]] const std::string& bytes() const { return bytes_; }
  [[nodiscard]] std::string takeBytes() { return std::move(bytes_); }

 private:
  // One append of the value's bytes, least significant first.
  template <typename T>
  void littleEndian(T v) {
    char le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<char>(v >> (8 * i));
    }
    bytes_.append(le, sizeof(T));
  }

  std::string bytes_;
};

/// Reads values back in the exact order they were written. Every read is
/// bounds-checked and throws SerializeError instead of reading garbage.
class Deserializer {
 public:
  explicit Deserializer(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint32_t u32() { return littleEndian<std::uint32_t>(); }

  std::uint64_t u64() { return littleEndian<std::uint64_t>(); }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() { return std::bit_cast<double>(u64()); }

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw SerializeError("corrupt payload: bool out of range");
    return v == 1;
  }

  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string out(bytes_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  void raw(void* out, std::size_t n) {
    need(n);
    std::copy(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
              bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n),
              static_cast<char*>(out));
    pos_ += n;
  }

  /// Reads a length prefix for a sequence whose elements occupy at least
  /// `minElementBytes` each; rejects lengths the remaining payload cannot
  /// possibly hold (guards vector reserves against absurd corrupt counts).
  std::size_t length(std::size_t minElementBytes = 1) {
    const std::uint64_t n = u64();
    if (minElementBytes > 0 && n > remaining() / minElementBytes) {
      throw SerializeError("corrupt payload: sequence length exceeds data");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  void need(std::uint64_t n) {
    if (n > remaining()) {
      throw SerializeError("corrupt payload: truncated read");
    }
  }

  // One bounds check, then the value's bytes, least significant first.
  template <typename T>
  T littleEndian() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= T{static_cast<std::uint8_t>(bytes_[pos_ + i])} << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Reads a whole regular file into `out` with one sized read. Returns false
/// (with `*error` set) when the file cannot be opened, is not a regular
/// file, or the read fails.
bool readFileBytes(const std::string& path, std::string* out,
                   std::string* error);

/// Durably replaces `path` with `bytes` via a temp file and rename, so a
/// crash mid-write never leaves a torn file behind.
bool writeFileAtomic(const std::string& path, std::string_view bytes,
                     std::string* error);

}  // namespace hdtn
