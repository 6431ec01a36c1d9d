// SHA-1 message digest (FIPS 180-1).
//
// Metadata records carry SHA-1 checksums of each 256 KB file piece, exactly
// as BitTorrent metadata does (paper Sections II-B and III-B). SHA-1 is used
// for integrity in this protocol context, not for collision-resistant
// security guarantees.
//
// Two compression kernels produce identical digests: a portable one, and an
// x86 SHA-NI one that is picked once per process from CPUID when the CPU has
// the SHA, SSSE3 and SSE4.1 extensions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace hdtn {

/// A 160-bit SHA-1 digest.
struct Sha1Digest {
  std::array<std::uint8_t, 20> bytes{};

  friend bool operator==(const Sha1Digest&, const Sha1Digest&) = default;

  /// Lowercase hex encoding, 40 characters.
  [[nodiscard]] std::string hex() const;
};

/// Incremental SHA-1 hasher.
class Sha1 {
 public:
  Sha1();

  /// Absorbs more input. May be called any number of times.
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);

  /// Finishes the hash. The hasher must not be reused afterwards without
  /// calling reset().
  [[nodiscard]] Sha1Digest finish();

  /// Restores the initial state.
  void reset();

  /// One-shot convenience.
  [[nodiscard]] static Sha1Digest hash(std::string_view data);
  [[nodiscard]] static Sha1Digest hash(std::span<const std::uint8_t> data);

 private:
  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t bufferLen_ = 0;
  std::uint64_t totalLen_ = 0;
};

namespace detail {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`
/// with the portable kernel, the reference for the hardware one.
void sha1BlocksPortable(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks);

/// The same with the SHA-NI kernel. Returns false, leaving `state`
/// untouched, when this CPU cannot run it (see sha1HardwareMissing).
bool sha1BlocksHardware(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks);

/// The CPUID feature the SHA-NI kernel needs and this CPU lacks, e.g.
/// "SHA (CPUID leaf 7 EBX bit 29)"; empty when the kernel runs here.
[[nodiscard]] std::string_view sha1HardwareMissing();

}  // namespace detail
}  // namespace hdtn
