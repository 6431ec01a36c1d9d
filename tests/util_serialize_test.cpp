// Binary (de)serialization primitives behind the checkpoint format:
// round-trips for every scalar kind, little-endian byte layout, and the
// bounds checks that make the deserializer safe on corrupt input.
#include "src/util/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>

namespace hdtn {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  Serializer out;
  out.u8(0xab);
  out.u32(0xdeadbeefu);
  out.u64(0x0123456789abcdefull);
  out.i64(-12345678901234ll);
  out.f64(3.14159);
  out.f64(-0.0);
  out.boolean(true);
  out.boolean(false);
  out.str("hello checkpoint");
  out.str("");

  Deserializer in(out.bytes());
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(in.i64(), -12345678901234ll);
  EXPECT_EQ(in.f64(), 3.14159);
  const double negZero = in.f64();
  EXPECT_EQ(negZero, 0.0);
  EXPECT_TRUE(std::signbit(negZero));
  EXPECT_TRUE(in.boolean());
  EXPECT_FALSE(in.boolean());
  EXPECT_EQ(in.str(), "hello checkpoint");
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.done());
}

TEST(Serialize, LittleEndianLayout) {
  Serializer out;
  out.u32(0x01020304u);
  const std::string& bytes = out.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(Serialize, DoubleBitPatternExact) {
  // NaN payloads and denormals must survive: the round-trip is bitwise.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denormal = std::numeric_limits<double>::denorm_min();
  Serializer out;
  out.f64(nan);
  out.f64(denormal);
  Deserializer in(out.bytes());
  EXPECT_TRUE(std::isnan(in.f64()));
  EXPECT_EQ(in.f64(), denormal);
}

TEST(Serialize, TruncatedReadThrows) {
  Serializer out;
  out.u64(7);
  Deserializer in(std::string_view(out.bytes()).substr(0, 5));
  EXPECT_THROW(in.u64(), SerializeError);
}

TEST(Serialize, StringLengthBeyondBufferThrows) {
  Serializer out;
  out.u64(1u << 30);  // promises a gigabyte that is not there
  Deserializer in(out.bytes());
  EXPECT_THROW(in.str(), SerializeError);
}

TEST(Serialize, BooleanRejectsNonCanonicalByte) {
  Serializer out;
  out.u8(2);
  Deserializer in(out.bytes());
  EXPECT_THROW(in.boolean(), SerializeError);
}

TEST(Serialize, LengthGuardRejectsAbsurdCounts) {
  Serializer out;
  out.u64(std::numeric_limits<std::uint64_t>::max());
  Deserializer in(out.bytes());
  EXPECT_THROW(in.length(8), SerializeError);
}

TEST(Serialize, RemainingAndDoneTrackConsumption) {
  Serializer out;
  out.u32(1);
  out.u32(2);
  Deserializer in(out.bytes());
  EXPECT_EQ(in.remaining(), 8u);
  in.u32();
  EXPECT_EQ(in.remaining(), 4u);
  EXPECT_FALSE(in.done());
  in.u32();
  EXPECT_TRUE(in.done());
}

TEST(Serialize, FileRoundTripAtomicWrite) {
  const std::string path = testing::TempDir() + "/serialize_roundtrip.bin";
  std::string large(std::size_t{3} << 19, '\0');  // 1.5 MiB
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<char>(i * 131 + i / 4096);
  }
  for (const std::string& payload :
       {std::string("binary\0payload", 14), std::string(), large}) {
    SCOPED_TRACE("payload of " + std::to_string(payload.size()) + " bytes");
    std::string writeError;
    ASSERT_TRUE(writeFileAtomic(path, payload, &writeError)) << writeError;
    std::string readBack = "stale", readError;
    ASSERT_TRUE(readFileBytes(path, &readBack, &readError)) << readError;
    EXPECT_EQ(readBack, payload);
    // No temp file left behind.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
  }
}

TEST(Serialize, ReadMissingFileReportsError) {
  std::string out, error;
  EXPECT_FALSE(readFileBytes(testing::TempDir() + "/missing.bin", &out,
                             &error));
  EXPECT_FALSE(error.empty());
}

TEST(Serialize, ReadDirectoryReportsError) {
  // A directory opens like a file but has no meaningful size to read.
  std::string out, error;
  EXPECT_FALSE(readFileBytes(testing::TempDir(), &out, &error));
  EXPECT_NE(error.find("read error"), std::string::npos) << error;
}

}  // namespace
}  // namespace hdtn
