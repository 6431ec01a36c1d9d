#include "src/util/sha1.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/random.hpp"

namespace hdtn {
namespace {

// FIPS 180-1 / RFC 3174 reference vectors.
TEST(Sha1, EmptyString) {
  EXPECT_EQ(Sha1::hash("").hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(Sha1::hash("abc").hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(
      Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .hex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(hasher.finish().hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(Sha1::hash("The quick brown fox jumps over the lazy dog").hex(),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string data =
      "delay tolerant networks distribute files via store-carry-forward";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha1 hasher;
    hasher.update(std::string_view(data).substr(0, split));
    hasher.update(std::string_view(data).substr(split));
    EXPECT_EQ(hasher.finish(), Sha1::hash(data)) << "split at " << split;
  }
}

TEST(Sha1, ResetRestoresInitialState) {
  Sha1 hasher;
  hasher.update("garbage");
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(hasher.finish().hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, BinaryInput) {
  std::vector<std::uint8_t> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  // Stability check against self (incremental vs one-shot over bytes).
  Sha1 hasher;
  hasher.update(std::span<const std::uint8_t>(data.data(), 100));
  hasher.update(std::span<const std::uint8_t>(data.data() + 100, 156));
  EXPECT_EQ(hasher.finish(), Sha1::hash(data));
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1::hash("piece-0"), Sha1::hash("piece-1"));
  // An embedded NUL is part of the message (string literals would truncate).
  const std::string withNul("a\0", 2);
  EXPECT_NE(Sha1::hash("a"), Sha1::hash(withNul));
}

TEST(Sha1Digest, HexIs40LowercaseChars) {
  const std::string hex = Sha1::hash("x").hex();
  ASSERT_EQ(hex.size(), 40u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

// Boundary lengths around the 64-byte block and 56-byte padding threshold.
class Sha1LengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(Sha1LengthSweep, IncrementalByteAtATimeMatchesOneShot) {
  const int length = GetParam();
  std::string data(static_cast<std::size_t>(length), 'q');
  for (int i = 0; i < length; ++i) {
    data[static_cast<std::size_t>(i)] = static_cast<char>('a' + i % 26);
  }
  Sha1 hasher;
  for (char c : data) hasher.update(std::string_view(&c, 1));
  EXPECT_EQ(hasher.finish(), Sha1::hash(data));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha1LengthSweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 121, 127, 128, 129, 1000));

// Sha1::hash runs whichever block kernel this CPU supports, so the kernels
// are also driven directly: FIPS 180-1 padding, then every block in one
// kernel call.
using BlockKernel = void (*)(std::uint32_t*, const std::uint8_t*,
                             std::size_t);

void hardwareKernel(std::uint32_t* state, const std::uint8_t* data,
                    std::size_t blocks) {
  ASSERT_TRUE(detail::sha1BlocksHardware(state, data, blocks));
}

std::string paddedMessage(std::string_view message) {
  std::string padded(message);
  padded.push_back('\x80');
  while (padded.size() % 64 != 56) padded.push_back('\0');
  const std::uint64_t bits = std::uint64_t{message.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<char>(bits >> (8 * i)));
  }
  return padded;
}

// Digest of the padded message stored at `offset` bytes into a buffer, so
// the kernel also sees unaligned input.
Sha1Digest kernelDigest(BlockKernel kernel, std::string_view message,
                        std::size_t offset = 0) {
  const std::string buffer =
      std::string(offset, '\0') + paddedMessage(message);
  std::uint32_t state[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                            0x10325476u, 0xc3d2e1f0u};
  kernel(state, reinterpret_cast<const std::uint8_t*>(buffer.data()) + offset,
         (buffer.size() - offset) / 64);
  Sha1Digest digest;
  for (int i = 0; i < 20; ++i) {
    digest.bytes[i] =
        static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

std::string randomBytes(Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& b : bytes) b = static_cast<char>(rng());
  return bytes;
}

void skipWithoutShaNi() {
  if (!detail::sha1HardwareMissing().empty()) {
    GTEST_SKIP() << "the SHA-NI kernel needs "
                 << detail::sha1HardwareMissing()
                 << ", which this CPU lacks";
  }
}

TEST(Sha1Kernels, PortableMatchesFipsVectors) {
  const BlockKernel portable = detail::sha1BlocksPortable;
  EXPECT_EQ(kernelDigest(portable, "").hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(kernelDigest(portable, "abc").hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(
      kernelDigest(portable,
                   "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .hex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(kernelDigest(portable, std::string(1000000, 'a')).hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
  EXPECT_EQ(
      kernelDigest(portable, "The quick brown fox jumps over the lazy dog")
          .hex(),
      "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Kernels, HardwareMatchesPortableAtEveryLengthAndOffset) {
  skipWithoutShaNi();
  Rng rng(17);
  for (std::size_t length = 0; length <= 1100; ++length) {
    const std::string message = randomBytes(rng, length);
    for (std::size_t offset = 0; offset < 16; ++offset) {
      ASSERT_EQ(kernelDigest(hardwareKernel, message, offset),
                kernelDigest(detail::sha1BlocksPortable, message, offset))
          << "length " << length << ", offset " << offset;
    }
  }
}

TEST(Sha1Kernels, HardwareMatchesPortableOnFourMiB) {
  skipWithoutShaNi();
  Rng rng(18);
  const std::string message = randomBytes(rng, 4u << 20);
  const Sha1Digest portable =
      kernelDigest(detail::sha1BlocksPortable, message);
  EXPECT_EQ(kernelDigest(hardwareKernel, message), portable);
  EXPECT_EQ(Sha1::hash(message), portable);
}

TEST(Sha1Kernels, HardwareLeavesStateAloneOrMatchesPortable) {
  // Without SHA-NI the hardware entry point must refuse and not touch the
  // state; with it, one call over several blocks equals the portable one.
  Rng rng(19);
  const std::string blocks = randomBytes(rng, 64 * 3);
  const auto* data = reinterpret_cast<const std::uint8_t*>(blocks.data());
  std::uint32_t portable[5] = {1, 2, 3, 4, 5};
  std::uint32_t hardware[5] = {1, 2, 3, 4, 5};
  detail::sha1BlocksPortable(portable, data, 3);
  if (detail::sha1BlocksHardware(hardware, data, 3)) {
    EXPECT_TRUE(detail::sha1HardwareMissing().empty());
    EXPECT_TRUE(std::equal(hardware, hardware + 5, portable));
  } else {
    EXPECT_FALSE(detail::sha1HardwareMissing().empty());
    const std::uint32_t untouched[5] = {1, 2, 3, 4, 5};
    EXPECT_TRUE(std::equal(hardware, hardware + 5, untouched));
  }
}

TEST(Sha1Kernels, IncrementalUpdatesAtRandomSplitsMatchPortable) {
  // Sha1 runs the CPU's kernel over whole blocks and buffers the rest; any
  // split of the input must give the portable kernel's one-shot digest.
  Rng rng(20);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string message =
        randomBytes(rng, static_cast<std::size_t>(rng.uniformInt(0, 1100)));
    const std::string_view view(message);
    std::size_t first = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(message.size())));
    std::size_t second = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(message.size())));
    if (first > second) std::swap(first, second);
    Sha1 hasher;
    hasher.update(view.substr(0, first));
    hasher.update(view.substr(first, second - first));
    hasher.update(view.substr(second));
    ASSERT_EQ(hasher.finish(),
              kernelDigest(detail::sha1BlocksPortable, message))
        << "length " << message.size() << ", splits " << first << ", "
        << second;
  }
}

}  // namespace
}  // namespace hdtn
