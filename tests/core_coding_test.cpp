// GF(2^8) field arithmetic and RLNC encoder/decoder tests: exhaustive
// field laws, table-vs-bitwise cross-check, the row kernel against the
// bitwise product, decoder round-trips under random erasures, rank
// monotonicity, recoding, checkpoint state, and the flat-row decoder
// against the row-vector reference.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <new>
#include <vector>

#include "src/core/coding.hpp"
#include "src/util/random.hpp"
#include "src/util/serialize.hpp"
#include "src/util/sha1.hpp"
#include "tests/reference_oracles.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define HDTN_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HDTN_TEST_ASAN 1
#endif
#endif

namespace hdtn::core::coding {
namespace {

TEST(GfArithmetic, MulMatchesBitwiseForAllPairs) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(gfMul(static_cast<std::uint8_t>(a),
                      static_cast<std::uint8_t>(b)),
                gfMulSlow(static_cast<std::uint8_t>(a),
                          static_cast<std::uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

TEST(GfArithmetic, EveryNonZeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = gfInv(static_cast<std::uint8_t>(a));
    ASSERT_EQ(gfMul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
}

TEST(GfArithmetic, IdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto v = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gfMul(v, 1), v);
    EXPECT_EQ(gfMul(v, 0), 0);
    EXPECT_EQ(gfAdd(v, v), 0);  // characteristic 2
  }
}

TEST(GfArithmetic, DistributivityOnSampledTriples) {
  // a*(b+c) == a*b + a*c, sampled densely (full 256^3 is needlessly slow).
  for (int a = 0; a < 256; a += 3) {
    for (int b = 0; b < 256; b += 5) {
      for (int c = 0; c < 256; c += 7) {
        const auto aa = static_cast<std::uint8_t>(a);
        const auto bb = static_cast<std::uint8_t>(b);
        const auto cc = static_cast<std::uint8_t>(c);
        ASSERT_EQ(gfMul(aa, gfAdd(bb, cc)),
                  gfAdd(gfMul(aa, bb), gfMul(aa, cc)))
            << a << " " << b << " " << c;
      }
    }
  }
}

TEST(GfArithmetic, MulIsAssociativeAndCommutativeOnSamples) {
  for (int a = 1; a < 256; a += 11) {
    for (int b = 1; b < 256; b += 13) {
      const auto aa = static_cast<std::uint8_t>(a);
      const auto bb = static_cast<std::uint8_t>(b);
      ASSERT_EQ(gfMul(aa, bb), gfMul(bb, aa));
      for (int c = 1; c < 256; c += 17) {
        const auto cc = static_cast<std::uint8_t>(c);
        ASSERT_EQ(gfMul(gfMul(aa, bb), cc), gfMul(aa, gfMul(bb, cc)));
      }
    }
  }
}

// Every factor at every row length 0-67. `src` is allocated at exactly n
// bytes, so a kernel reading past the row trips ASan; `dst` carries guard
// bytes behind the row that must survive.
TEST(RowKernel, MatchesBitwiseForEveryFactorAndLength) {
  Rng rng(0x6F8u);
  constexpr std::size_t kGuard = 16;
  for (int c = 0; c < 256; ++c) {
    const auto factor = static_cast<std::uint8_t>(c);
    for (std::size_t n = 0; n <= 67; ++n) {
      std::vector<std::uint8_t> src(n);
      std::vector<std::uint8_t> dst(n + kGuard);
      for (auto& b : src) b = static_cast<std::uint8_t>(rng());
      for (auto& b : dst) b = static_cast<std::uint8_t>(rng());
      std::vector<std::uint8_t> expected = dst;
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] ^= gfMulSlow(factor, src[i]);
      }
      detail::mulAddRow(dst.data(), src.data(), factor, n);
      ASSERT_EQ(dst, expected) << "factor " << c << ", length " << n;
    }
  }
}

TEST(SparseCoefficients, DeterministicAndNeverAllZero) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto a = sparseCoefficients(8, seed, 0.3);
    const auto b = sparseCoefficients(8, seed, 0.3);
    EXPECT_EQ(a, b);
    bool any = false;
    for (std::uint8_t c : a) any |= (c != 0);
    EXPECT_TRUE(any) << "seed " << seed;
  }
  // Degenerate sparsity values clamp to dense rather than throwing.
  const auto dense = sparseCoefficients(4, 7, 0.0);
  EXPECT_EQ(dense.size(), 4u);
}

TEST(SparseCoefficients, SparsityControlsDensity) {
  std::size_t sparseNonZero = 0;
  std::size_t denseNonZero = 0;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    for (std::uint8_t c : sparseCoefficients(16, seed, 0.2)) {
      sparseNonZero += (c != 0);
    }
    for (std::uint8_t c : sparseCoefficients(16, seed, 0.9)) {
      denseNonZero += (c != 0);
    }
  }
  EXPECT_LT(sparseNonZero * 2, denseNonZero);
}

std::vector<std::vector<std::uint8_t>> randomPieces(Rng& rng,
                                                    std::uint32_t k,
                                                    std::uint32_t bytes) {
  std::vector<std::vector<std::uint8_t>> pieces(k);
  for (auto& piece : pieces) {
    piece.resize(bytes);
    for (auto& byte : piece) {
      byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
  }
  return pieces;
}

TEST(GenerationDecoder, RoundTripsUnderRandomErasures) {
  Rng rng(0xC0DE01u);
  for (int trial = 0; trial < 40; ++trial) {
    const auto k = static_cast<std::uint32_t>(rng.uniformInt(1, 12));
    const auto bytes = static_cast<std::uint32_t>(rng.uniformInt(1, 64));
    const double sparsity = rng.uniform(0.2, 1.0);
    const double lossRate = rng.uniform(0.0, 0.6);
    const auto pieces = randomPieces(rng, k, bytes);
    CodedEncoder encoder(pieces);
    GenerationDecoder decoder(k, bytes);
    std::uint64_t seed = rng();
    int sent = 0;
    // Any k innovative frames decode, no matter which frames the channel
    // erased; the cap only guards against a broken decoder looping.
    while (!decoder.complete() && sent < 4000) {
      const auto frame = encoder.frame(seed++, sparsity);
      ++sent;
      if (rng.chance(lossRate)) continue;  // erased on the channel
      decoder.addFrame(frame.coefficients, frame.payload);
    }
    ASSERT_TRUE(decoder.complete())
        << "trial " << trial << " k=" << k << " loss=" << lossRate;
    EXPECT_EQ(decoder.decode(), pieces) << "trial " << trial;
  }
}

TEST(GenerationDecoder, RankIsMonotoneAndCapped) {
  Rng rng(0xC0DE02u);
  const std::uint32_t k = 6;
  const auto pieces = randomPieces(rng, k, 8);
  CodedEncoder encoder(pieces);
  GenerationDecoder decoder(k, 8);
  std::uint32_t lastRank = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto frame = encoder.frame(seed, 0.5);
    const bool innovative = decoder.addFrame(frame.coefficients,
                                             frame.payload);
    if (innovative) {
      EXPECT_EQ(decoder.rank(), lastRank + 1);
    } else {
      EXPECT_EQ(decoder.rank(), lastRank);
    }
    lastRank = decoder.rank();
    ASSERT_LE(decoder.rank(), k);
  }
  EXPECT_TRUE(decoder.complete());
  // Further frames are all redundant at full rank.
  const auto extra = encoder.frame(999, 0.5);
  EXPECT_FALSE(decoder.addFrame(extra.coefficients, extra.payload));
  EXPECT_GT(decoder.rowOps(), 0u);
}

TEST(GenerationDecoder, SourcePiecesCountTowardRank) {
  Rng rng(0xC0DE03u);
  const std::uint32_t k = 5;
  const auto pieces = randomPieces(rng, k, 16);
  CodedEncoder encoder(pieces);
  GenerationDecoder decoder(k, 16);
  EXPECT_TRUE(decoder.addSourcePiece(2, pieces[2]));
  EXPECT_FALSE(decoder.addSourcePiece(2, pieces[2]));  // duplicate
  std::uint64_t seed = 10;
  while (!decoder.complete()) {
    const auto frame = encoder.frame(seed++, 0.7);
    decoder.addFrame(frame.coefficients, frame.payload);
  }
  EXPECT_EQ(decoder.decode(), pieces);
}

TEST(GenerationDecoder, RecodedFramesFromPartialHoldersAreUseful) {
  // Relay topology: source -> relay (partial) -> sink. The relay never
  // holds a named piece, only rank, yet its recoded frames decode at the
  // sink — the property that lets partial holders contribute in coded mode.
  Rng rng(0xC0DE04u);
  const std::uint32_t k = 6;
  const auto pieces = randomPieces(rng, k, 24);
  CodedEncoder encoder(pieces);
  GenerationDecoder relay(k, 24);
  std::uint64_t seed = 1;
  while (relay.rank() < 4) {
    const auto frame = encoder.frame(seed++, 0.6);
    relay.addFrame(frame.coefficients, frame.payload);
  }
  GenerationDecoder sink(k, 24);
  std::uint32_t innovativeFromRelay = 0;
  for (std::uint64_t s = 100; s < 140; ++s) {
    std::vector<std::uint8_t> payload;
    const auto coeffs = relay.recodeCoefficients(s, 0.6, &payload);
    if (sink.addFrame(coeffs, payload)) ++innovativeFromRelay;
  }
  // The relay spans a 4-dimensional subspace; the sink extracts all of it.
  EXPECT_EQ(innovativeFromRelay, 4u);
  EXPECT_EQ(sink.rank(), 4u);
  while (!sink.complete()) {
    const auto frame = encoder.frame(seed++, 0.6);
    sink.addFrame(frame.coefficients, frame.payload);
  }
  EXPECT_EQ(sink.decode(), pieces);
}

TEST(GenerationDecoder, SaveLoadResumesByteIdentically) {
  Rng rng(0xC0DE05u);
  const std::uint32_t k = 7;
  const auto pieces = randomPieces(rng, k, 12);
  CodedEncoder encoder(pieces);
  GenerationDecoder decoder(k, 12);
  std::uint64_t seed = 1;
  while (decoder.rank() < 4) {
    const auto frame = encoder.frame(seed++, 0.5);
    decoder.addFrame(frame.coefficients, frame.payload);
  }
  Serializer out;
  decoder.saveState(out);

  GenerationDecoder restored;
  Deserializer in(out.bytes());
  restored.loadState(in);
  EXPECT_TRUE(in.done());
  EXPECT_EQ(restored.rank(), decoder.rank());
  EXPECT_EQ(restored.rowOps(), decoder.rowOps());

  // Both copies must evolve identically from here on.
  for (std::uint64_t s = seed; s < seed + 32; ++s) {
    const auto frame = encoder.frame(s, 0.5);
    EXPECT_EQ(decoder.addFrame(frame.coefficients, frame.payload),
              restored.addFrame(frame.coefficients, frame.payload));
    EXPECT_EQ(decoder.rank(), restored.rank());
    std::vector<std::uint8_t> pa;
    std::vector<std::uint8_t> pb;
    EXPECT_EQ(decoder.recodeCoefficients(s, 0.5, &pa),
              restored.recodeCoefficients(s, 0.5, &pb));
    EXPECT_EQ(pa, pb);
  }
  EXPECT_EQ(decoder.decode(), restored.decode());
  EXPECT_EQ(restored.decode(), pieces);
}

TEST(GenerationDecoder, CoefficientOnlyModeTracksRank) {
  GenerationDecoder decoder(4);  // payloadBytes == 0: rank bookkeeping only
  EXPECT_TRUE(decoder.addFrame(sparseCoefficients(4, 1, 0.8)));
  EXPECT_TRUE(decoder.addSourcePiece(0));
  EXPECT_LE(decoder.rank(), 4u);
  EXPECT_THROW(decoder.decode(), std::logic_error);
}

TEST(GenerationDecoder, RejectsMalformedInput) {
  EXPECT_THROW(GenerationDecoder(0), std::invalid_argument);
  GenerationDecoder decoder(4, 8);
  std::vector<std::uint8_t> shortCoeffs(3, 1);
  std::vector<std::uint8_t> payload(8, 0);
  EXPECT_THROW(decoder.addFrame(shortCoeffs, payload),
               std::invalid_argument);
  std::vector<std::uint8_t> coeffs(4, 1);
  std::vector<std::uint8_t> shortPayload(5, 0);
  EXPECT_THROW(decoder.addFrame(coeffs, shortPayload),
               std::invalid_argument);
  EXPECT_THROW(decoder.addSourcePiece(4, payload), std::invalid_argument);
  EXPECT_THROW(CodedEncoder({}), std::invalid_argument);
  EXPECT_THROW(CodedEncoder({{1, 2}, {1}}), std::invalid_argument);
}

TEST(GenerationDecoder, DegenerateFramesAreRejectedAndCounted) {
  GenerationDecoder decoder(4, 8);
  const std::vector<std::uint8_t> payload(8, 0);
  // All-zero coefficient vectors can never raise the rank: rejected before
  // any row operation, counted, never stored.
  const std::vector<std::uint8_t> zeros(4, 0);
  EXPECT_FALSE(decoder.addFrame(zeros, payload));
  EXPECT_EQ(decoder.degenerateFrames(), 1u);
  // Over-length rows are degenerate input from a malformed or hostile
  // encoder, not a caller bug.
  const std::vector<std::uint8_t> overLength(5, 1);
  EXPECT_FALSE(decoder.addFrame(overLength, payload));
  EXPECT_EQ(decoder.degenerateFrames(), 2u);
  EXPECT_EQ(decoder.rank(), 0u);
  EXPECT_EQ(decoder.rowOps(), 0u);
  // A valid frame after the junk still works.
  const std::vector<std::uint8_t> unit = {1, 0, 0, 0};
  EXPECT_TRUE(decoder.addFrame(unit, payload));
  EXPECT_EQ(decoder.degenerateFrames(), 2u);
}

TEST(GenerationDecoder, HonestFullRankIsNeverTainted) {
  Rng rng(0xC0DE07u);
  const std::uint32_t k = 5;
  const auto pieces = randomPieces(rng, k, 12);
  CodedEncoder encoder(pieces);
  GenerationDecoder decoder(k, 12);
  std::uint64_t seed = 1;
  while (!decoder.complete()) {
    const auto frame = encoder.frame(seed++, 0.6);
    decoder.addFrame(frame.coefficients, frame.payload);
  }
  EXPECT_FALSE(decoder.tainted());
  EXPECT_EQ(decoder.pollutedRows(), 0u);
  EXPECT_TRUE(decoder.pollutedOrigins().empty());
}

TEST(GenerationDecoder, PollutedFramesTaintTheGeneration) {
  Rng rng(0xC0DE08u);
  const std::uint32_t k = 4;
  const auto pieces = randomPieces(rng, k, 8);
  CodedEncoder encoder(pieces);
  GenerationDecoder decoder(k, 8);
  // One polluted frame from attacker 7, then honest frames to full rank.
  const auto bad = encoder.frame(100, 1.0);
  std::vector<std::uint8_t> junk(8, 0xAB);
  ASSERT_TRUE(decoder.addFrame(bad.coefficients, junk, true, 7));
  EXPECT_TRUE(decoder.tainted());
  EXPECT_EQ(decoder.pollutedRows(), 1u);
  std::uint64_t seed = 1;
  while (!decoder.complete()) {
    const auto frame = encoder.frame(seed++, 0.7);
    decoder.addFrame(frame.coefficients, frame.payload);
  }
  // Full rank does not launder the poison: the generation stays tainted
  // and blame points at the polluting origin.
  EXPECT_TRUE(decoder.tainted());
  EXPECT_EQ(decoder.pollutedRows(), 1u);
  EXPECT_EQ(decoder.pollutedOrigins(), std::vector<std::uint32_t>{7u});
}

TEST(GenerationDecoder, PollutedOriginsAreSortedUniqueAndSkipNoOrigin) {
  Rng rng(0xC0DE09u);
  const std::uint32_t k = 6;
  const auto pieces = randomPieces(rng, k, 8);
  CodedEncoder encoder(pieces);
  GenerationDecoder decoder(k, 8);
  const std::vector<std::uint8_t> junk(8, 0xEE);
  std::uint64_t seed = 50;
  auto addPolluted = [&](std::uint32_t origin) {
    for (;;) {
      const auto frame = encoder.frame(seed++, 1.0);
      if (decoder.addFrame(frame.coefficients, junk, true, origin)) return;
    }
  };
  addPolluted(9);
  addPolluted(3);
  addPolluted(9);  // duplicate attacker
  // A relayed recode of tainted rows arrives polluted without a known
  // attacker: counted as a polluted row, excluded from blame.
  addPolluted(GenerationDecoder::kNoOrigin);
  EXPECT_EQ(decoder.pollutedRows(), 4u);
  EXPECT_EQ(decoder.pollutedOrigins(), (std::vector<std::uint32_t>{3u, 9u}));
}

TEST(GenerationDecoder, RecodeReportsTaintedMixes) {
  Rng rng(0xC0DE0Au);
  const std::uint32_t k = 4;
  const auto pieces = randomPieces(rng, k, 8);
  CodedEncoder encoder(pieces);

  GenerationDecoder honest(k, 8);
  honest.addFrame(encoder.frame(1, 0.8).coefficients,
                  encoder.frame(1, 0.8).payload);
  std::vector<std::uint8_t> payload;
  bool tainted = true;
  (void)honest.recodeCoefficients(11, 1.0, &payload, &tainted);
  EXPECT_FALSE(tainted);

  GenerationDecoder poisoned(k, 8);
  const auto bad = encoder.frame(2, 1.0);
  const std::vector<std::uint8_t> junk(8, 0x5A);
  ASSERT_TRUE(poisoned.addFrame(bad.coefficients, junk, true, 4));
  tainted = false;
  // A dense recode over a poisoned row space must flag the output frame.
  (void)poisoned.recodeCoefficients(12, 1.0, &payload, &tainted);
  EXPECT_TRUE(tainted);
}

TEST(GenerationDecoder, SaveLoadPreservesTaintAndDegenerateCounts) {
  Rng rng(0xC0DE0Bu);
  const std::uint32_t k = 4;
  const auto pieces = randomPieces(rng, k, 8);
  CodedEncoder encoder(pieces);
  GenerationDecoder decoder(k, 8);
  const std::vector<std::uint8_t> junk(8, 0x11);
  const auto bad = encoder.frame(5, 1.0);
  ASSERT_TRUE(decoder.addFrame(bad.coefficients, junk, true, 2));
  const std::vector<std::uint8_t> zeros(4, 0);
  EXPECT_FALSE(decoder.addFrame(zeros, junk));

  Serializer out;
  decoder.saveState(out);
  GenerationDecoder restored(k, 8);
  Deserializer in(out.bytes());
  restored.loadState(in);
  EXPECT_EQ(restored.tainted(), decoder.tainted());
  EXPECT_EQ(restored.pollutedRows(), decoder.pollutedRows());
  EXPECT_EQ(restored.pollutedOrigins(), decoder.pollutedOrigins());
  EXPECT_EQ(restored.degenerateFrames(), decoder.degenerateFrames());
}

TEST(GenerationDecoder, DecodedBytesHashMatchSource) {
  // The chaos-arm invariant at codec level: whatever subset of frames
  // survives, the decoded generation hashes to the source digest.
  Rng rng(0xC0DE06u);
  for (int trial = 0; trial < 10; ++trial) {
    const auto k = static_cast<std::uint32_t>(rng.uniformInt(2, 10));
    const auto pieces = randomPieces(rng, k, 100);
    Sha1 source;
    for (const auto& piece : pieces) source.update(piece);
    CodedEncoder encoder(pieces);
    GenerationDecoder decoder(k, 100);
    std::uint64_t seed = rng();
    while (!decoder.complete()) {
      const auto frame = encoder.frame(seed++, 0.4);
      if (rng.chance(0.5)) continue;
      decoder.addFrame(frame.coefficients, frame.payload);
    }
    Sha1 decoded;
    for (const auto& piece : decoder.decode()) decoded.update(piece);
    EXPECT_EQ(decoded.finish(), source.finish()) << "trial " << trial;
  }
}

// One random frame stream into the flat-row decoder and the row-vector
// reference: coded frames at random sparsity, polluted frames with and
// without an origin, source pieces, recodes of the decoder's own row space
// (always redundant), all-zero and over-length frames. After every frame
// the two must agree on every observable and on the saved bytes; every
// seventh frame the decoder is replaced by a copy restored from its save.
void expectDecodersAgree(std::uint32_t k, std::uint32_t payloadBytes,
                         std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "k=" << k << " payloadBytes="
                                  << payloadBytes << " seed=" << seed);
  Rng rng(seed);
  GenerationDecoder decoder(k, payloadBytes);
  GenerationDecoderReference reference(k, payloadBytes);
  const auto randomBytes = [&rng](std::size_t n) {
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    return bytes;
  };
  const auto saved = [](const auto& d) {
    Serializer out;
    d.saveState(out);
    return out.takeBytes();
  };
  const int frames = static_cast<int>(3 * k) + 12;
  for (int f = 0; f < frames; ++f) {
    SCOPED_TRACE(testing::Message() << "frame " << f);
    const int kind = static_cast<int>(rng.uniformInt(0, 19));
    std::vector<std::uint8_t> coeffs;
    std::vector<std::uint8_t> payload = randomBytes(payloadBytes);
    bool polluted = false;
    std::uint32_t origin = GenerationDecoder::kNoOrigin;
    bool innovative = false;
    bool expected = false;
    if (kind < 3) {
      const auto piece = static_cast<std::uint32_t>(rng.uniformInt(0, k - 1));
      innovative = decoder.addSourcePiece(piece, payload);
      expected = reference.addSourcePiece(piece, payload);
    } else {
      if (kind == 3) {
        coeffs.assign(k, 0);  // all zero
      } else if (kind == 4) {
        coeffs = randomBytes(k + 1 + rng.uniformInt(0, 2));  // over-length
      } else if (kind == 5) {
        coeffs = decoder.recodeCoefficients(rng(), rng.uniform(0.1, 1.0),
                                            &payload, nullptr);
      } else {
        coeffs = sparseCoefficients(k, rng(), rng.uniform(0.05, 1.0));
      }
      if (rng.chance(0.3)) {
        polluted = true;
        if (rng.chance(0.7)) {
          origin = static_cast<std::uint32_t>(rng.uniformInt(0, 5));
        }
      }
      innovative = decoder.addFrame(coeffs, payload, polluted, origin);
      expected = reference.addFrame(coeffs, payload, polluted, origin);
    }
    ASSERT_EQ(innovative, expected);
    ASSERT_EQ(decoder.rank(), reference.rank());
    ASSERT_EQ(decoder.rowOps(), reference.rowOps());
    ASSERT_EQ(decoder.degenerateFrames(), reference.degenerateFrames());
    ASSERT_EQ(decoder.tainted(), reference.tainted());
    ASSERT_EQ(decoder.pollutedRows(), reference.pollutedRows());
    ASSERT_EQ(decoder.pollutedOrigins(), reference.pollutedOrigins());
    const std::uint64_t mixSeed = rng();
    const double sparsity = rng.uniform(0.1, 1.0);
    std::vector<std::uint8_t> mixed;
    std::vector<std::uint8_t> mixedExpected;
    bool mixTainted = false;
    bool mixTaintedExpected = true;
    ASSERT_EQ(decoder.recodeCoefficients(mixSeed, sparsity, &mixed,
                                         &mixTainted),
              reference.recodeCoefficients(mixSeed, sparsity, &mixedExpected,
                                           &mixTaintedExpected));
    ASSERT_EQ(mixed, mixedExpected);
    ASSERT_EQ(mixTainted, mixTaintedExpected);
    ASSERT_EQ(decoder.complete(), reference.complete());
    if (decoder.complete() && payloadBytes > 0) {
      ASSERT_EQ(decoder.decode(), reference.decode());
    }
    const std::string bytes = saved(decoder);
    ASSERT_EQ(bytes, saved(reference));
    if (f % 7 == 6) {
      GenerationDecoder restored;
      Deserializer in(bytes);
      restored.loadState(in);
      ASSERT_TRUE(in.done());
      decoder = std::move(restored);
    }
  }
  EXPECT_TRUE(reference.complete()) << "the stream never reached full rank";
}

TEST(GenerationDecoder, MatchesRowVectorReferenceOnRandomStreams) {
  for (const std::uint32_t k : {1u, 4u, 16u, 33u}) {
    for (const std::uint32_t payloadBytes : {0u, 12u, 1024u}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        expectDecodersAgree(k, payloadBytes, seed * 1000 + k + payloadBytes);
      }
    }
  }
}

// A rank-0 decoder record with no rows, followed by `pivots` empty pivots.
std::string rankZeroRecord(std::uint32_t k, std::uint32_t payloadBytes,
                           std::uint32_t pivots) {
  Serializer out;
  out.u32(k);
  out.u32(payloadBytes);
  out.u32(0);  // rank
  out.u64(0);  // rowOps
  out.u64(0);  // degenerateFrames
  out.u64(0);  // rows
  for (std::uint32_t i = 0; i < pivots; ++i) out.u32(0xffffffffu);
  return out.takeBytes();
}

void loadRecord(const std::string& bytes) {
  Deserializer in(bytes);
  GenerationDecoder decoder;
  decoder.loadState(in);
}

#ifndef HDTN_TEST_ASAN
// Loads `bytes` in a child whose address space may grow by 1 GiB at most,
// where an allocation sized by a forged count throws std::bad_alloc
// instead of taking the host's memory. Returns the child's exit code.
enum : int {
  kSerializeError = 0,
  kNoThrow = 1,
  kBadAlloc = 2,
  kOtherThrow = 3,
  kNoCap = 4,
};

int loadInCappedChild(const std::string& bytes) {
  const pid_t child = fork();
  if (child < 0) return -1;
  if (child == 0) {
    long pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    const rlim_t cap = static_cast<rlim_t>(pages) *
                           static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                       (rlim_t{1} << 30);
    const rlimit limit{cap, cap};
    if (pages <= 0 || setrlimit(RLIMIT_AS, &limit) != 0) _exit(kNoCap);
    try {
      loadRecord(bytes);
      _exit(kNoThrow);
    } catch (const SerializeError&) {
      _exit(kSerializeError);
    } catch (const std::bad_alloc&) {
      _exit(kBadAlloc);
    } catch (...) {
      _exit(kOtherThrow);
    }
  }
  int status = 0;
  if (waitpid(child, &status, 0) != child || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}
#endif

TEST(GenerationDecoder, LoadStateRejectsGenerationSizeBeyondThePayload) {
  // k = 2^32 - 1 with no rows and no pivots is corrupt: loadState must
  // reject it before sizing 16 GiB of pivots by k.
  const std::string hugeGeneration = rankZeroRecord(0xffffffffu, 0, 0);
  ASSERT_EQ(hugeGeneration.size(), 36u);
  // k = 1, payloadBytes = 2^32 - 1, rank 0 and one pivot is well formed:
  // it loads, and nothing may size a 4 GiB row by its payloadBytes.
  const std::string hugePayload = rankZeroRecord(1, 0xffffffffu, 1);
  ASSERT_EQ(hugePayload.size(), 40u);
#ifdef HDTN_TEST_ASAN
  // ASan reserves its shadow memory as address space, so the cap cannot
  // work under it. Unbounded, the check must still come first; the
  // payload record is left to the capped run, since a regression would
  // zero-fill 4 GiB here.
  EXPECT_THROW(loadRecord(hugeGeneration), SerializeError);
#else
  EXPECT_EQ(loadInCappedChild(hugeGeneration), kSerializeError)
      << "1: no throw; 2: std::bad_alloc; 3: another exception; "
         "4: could not cap the address space";
  EXPECT_EQ(loadInCappedChild(hugePayload), kNoThrow)
      << "0: SerializeError; 2: std::bad_alloc; 3: another exception; "
         "4: could not cap the address space";
#endif
}

}  // namespace
}  // namespace hdtn::core::coding
