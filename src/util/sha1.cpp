#include "src/util/sha1.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define HDTN_SHA1_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace hdtn {
namespace {

constexpr std::array<std::uint32_t, 5> kInit = {0x67452301u, 0xefcdab89u,
                                                0x98badcfeu, 0x10325476u,
                                                0xc3d2e1f0u};

std::uint32_t loadBigEndian32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

// Round I of 80 over the working variables v (a..e at round 0). Instead of
// shifting a..e down every round, the roles rotate through the five slots:
// at round I, a is v[(80 - I) % 5], b the slot after it, and so on, so all
// five are back in place after round 79. The message schedule is a 16-word
// ring: from round 16 on, w[I % 16] is overwritten with W[I].
template <int I>
[[gnu::always_inline]] inline void portableRound(std::uint32_t* v,
                                                 std::uint32_t* w,
                                                 const std::uint8_t* block) {
  constexpr int a = (80 - I) % 5, b = (81 - I) % 5, c = (82 - I) % 5,
                d = (83 - I) % 5, e = (84 - I) % 5;
  if constexpr (I < 16) {
    w[I] = loadBigEndian32(block + 4 * I);
  } else {
    w[I % 16] = std::rotl(w[(I + 13) % 16] ^ w[(I + 8) % 16] ^
                              w[(I + 2) % 16] ^ w[I % 16],
                          1);
  }
  std::uint32_t f;
  std::uint32_t k;
  if constexpr (I < 20) {
    f = v[d] ^ (v[b] & (v[c] ^ v[d]));
    k = 0x5a827999u;
  } else if constexpr (I < 40) {
    f = v[b] ^ v[c] ^ v[d];
    k = 0x6ed9eba1u;
  } else if constexpr (I < 60) {
    f = (v[b] & v[c]) | (v[d] & (v[b] | v[c]));
    k = 0x8f1bbcdcu;
  } else {
    f = v[b] ^ v[c] ^ v[d];
    k = 0xca62c1d6u;
  }
  v[e] += std::rotl(v[a], 5) + f + k + w[I % 16];
  v[b] = std::rotl(v[b], 30);
}

template <std::size_t... I>
[[gnu::always_inline]] inline void portableRounds(
    std::uint32_t* v, std::uint32_t* w, const std::uint8_t* block,
    std::index_sequence<I...>) {
  (portableRound<I>(v, w, block), ...);
}

#ifdef HDTN_SHA1_X86

// Rounds 4J..4J+3 of one block with the Intel SHA extensions. msg[J % 4]
// holds this group's schedule words; on the way, sha1msg1, xor and
// sha1msg2 finish the words of the next three groups. e[J % 2] carries E
// into this group; e[(J + 1) % 2] saves abcd to become the next group's E.
template <int J>
[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void shaNiGroup(
    __m128i& abcd, __m128i* e, __m128i* msg) {
  const __m128i m = msg[J % 4];
  if constexpr (J == 0) {
    e[0] = _mm_add_epi32(e[0], m);
  } else {
    e[J % 2] = _mm_sha1nexte_epu32(e[J % 2], m);
  }
  e[(J + 1) % 2] = abcd;
  if constexpr (J >= 3 && J <= 18) {
    msg[(J + 1) % 4] = _mm_sha1msg2_epu32(msg[(J + 1) % 4], m);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, e[J % 2], J / 5);
  if constexpr (J >= 1 && J <= 16) {
    msg[(J + 3) % 4] = _mm_sha1msg1_epu32(msg[(J + 3) % 4], m);
  }
  if constexpr (J >= 2 && J <= 17) {
    msg[(J + 2) % 4] = _mm_xor_si128(msg[(J + 2) % 4], m);
  }
}

template <std::size_t... J>
[[gnu::always_inline, gnu::target("sha,sse4.1")]] inline void shaNiGroups(
    __m128i& abcd, __m128i* e, __m128i* msg, std::index_sequence<J...>) {
  (shaNiGroup<J>(abcd, e, msg), ...);
}

[[gnu::target("sha,sse4.1")]] void shaNiBlocks(std::uint32_t* state,
                                               const std::uint8_t* data,
                                               std::size_t blocks) {
  // Reverses the 16 bytes: big-endian words, and W0 in the top lane to
  // match abcd's lane order (a on top).
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1b);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abcdSave = abcd;
    const __m128i eSave = e0;
    __m128i e[2] = {e0, e0};
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    }
    shaNiGroups(abcd, e, msg, std::make_index_sequence<20>());
    e0 = _mm_sha1nexte_epu32(e[0], eSave);
    abcd = _mm_add_epi32(abcd, abcdSave);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1b));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

std::string_view missingCpuFeature() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return "CPUID leaf 1";
  }
  if ((ecx & (1u << 9)) == 0) return "SSSE3 (CPUID leaf 1 ECX bit 9)";
  if ((ecx & (1u << 19)) == 0) return "SSE4.1 (CPUID leaf 1 ECX bit 19)";
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0 ||
      (ebx & (1u << 29)) == 0) {
    return "SHA (CPUID leaf 7 EBX bit 29)";
  }
  return {};
}

#else

std::string_view missingCpuFeature() { return "SHA-NI (not an x86 build)"; }

#endif  // HDTN_SHA1_X86

using BlockKernel = void (*)(std::uint32_t*, const std::uint8_t*,
                             std::size_t);

// Chosen once per process, on the first hash.
BlockKernel blockKernel() {
#ifdef HDTN_SHA1_X86
  static const BlockKernel kernel = detail::sha1HardwareMissing().empty()
                                        ? shaNiBlocks
                                        : detail::sha1BlocksPortable;
  return kernel;
#else
  return detail::sha1BlocksPortable;
#endif
}

}  // namespace

namespace detail {

void sha1BlocksPortable(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t v[5] = {state[0], state[1], state[2], state[3], state[4]};
    std::uint32_t w[16];
    portableRounds(v, w, data, std::make_index_sequence<80>());
    for (int i = 0; i < 5; ++i) state[i] += v[i];
  }
}

bool sha1BlocksHardware(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks) {
#ifdef HDTN_SHA1_X86
  if (!sha1HardwareMissing().empty()) return false;
  shaNiBlocks(state, data, blocks);
  return true;
#else
  (void)state;
  (void)data;
  (void)blocks;
  return false;
#endif
}

std::string_view sha1HardwareMissing() {
  static const std::string_view missing = missingCpuFeature();
  return missing;
}

}  // namespace detail

std::string Sha1Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Sha1::Sha1() { reset(); }

void Sha1::reset() {
  h_ = kInit;
  bufferLen_ = 0;
  totalLen_ = 0;
}

void Sha1::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

void Sha1::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  const BlockKernel compress = blockKernel();
  totalLen_ += data.size();
  std::size_t offset = 0;
  if (bufferLen_ > 0) {
    const std::size_t take = std::min(64 - bufferLen_, data.size());
    std::memcpy(buffer_.data() + bufferLen_, data.data(), take);
    bufferLen_ += take;
    offset = take;
    if (bufferLen_ < 64) return;
    compress(h_.data(), buffer_.data(), 1);
    bufferLen_ = 0;
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(h_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    bufferLen_ = data.size() - offset;
  }
}

Sha1Digest Sha1::finish() {
  const std::uint64_t bitLen = totalLen_ * 8;
  // Append the 0x80 terminator and zero padding up to 56 mod 64.
  std::uint8_t pad[72] = {0x80};
  const std::size_t padLen =
      (bufferLen_ < 56) ? (56 - bufferLen_) : (120 - bufferLen_);
  update(std::span<const std::uint8_t>(pad, padLen));
  // Append the 64-bit big-endian length.
  std::uint8_t lenBytes[8];
  for (int i = 0; i < 8; ++i) {
    lenBytes[i] = static_cast<std::uint8_t>(bitLen >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(lenBytes, 8));

  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest.bytes[4 * i + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    digest.bytes[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    digest.bytes[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    digest.bytes[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return digest;
}

Sha1Digest Sha1::hash(std::string_view data) {
  Sha1 hasher;
  hasher.update(data);
  return hasher.finish();
}

Sha1Digest Sha1::hash(std::span<const std::uint8_t> data) {
  Sha1 hasher;
  hasher.update(data);
  return hasher.finish();
}

}  // namespace hdtn
