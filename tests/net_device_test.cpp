#include "src/net/device.hpp"

#include <gtest/gtest.h>

#include "src/core/internet.hpp"

namespace hdtn::net {
namespace {

core::FileCatalog::PublishRequest request(const std::string& name) {
  core::FileCatalog::PublishRequest req;
  req.name = name;
  req.publisher = "fox";
  req.description = "about " + name;
  req.sizeBytes = 8 * 1024;
  req.pieceSizeBytes = 1024;  // 8 pieces
  req.popularity = 0.5;
  req.publishedAt = 0;
  req.ttl = 10 * kDay;
  return req;
}

struct Fixture {
  core::InternetServices internet;
  FileId file;

  Fixture() { file = internet.publish(request("fox news daily ep0")); }

  [[nodiscard]] const core::Metadata& metadata() const {
    return internet.catalog().metadataFor(file);
  }
};

core::Query makeQuery(std::uint32_t owner, const std::string& text) {
  core::Query q;
  q.id = QueryId(0);
  q.owner = NodeId(owner);
  q.text = text;
  q.target = FileId(0);
  q.issuedAt = 0;
  q.ttl = 10 * kDay;
  return q;
}

TEST(Device, HelloFrameCarriesStateAndTracksNeighbors) {
  Fixture fx;
  Device alice(NodeId(1), {});
  Device bob(NodeId(2), {});
  alice.node().addQuery(makeQuery(1, "news ep0"));
  // Bob hears Alice's hello: her query should be visible (bob proxies only
  // frequent contacts, so mark Alice as one).
  bob.node().setFrequentContacts({NodeId(1)});
  const Bytes hello = alice.makeHelloFrame(100);
  EXPECT_EQ(bob.receive(hello, 100), RxOutcome::kHello);
  EXPECT_EQ(bob.node().proxiedQueryTexts(100),
            (std::vector<std::string>{"news ep0"}));
  // Bob's next hello lists Alice as heard.
  const auto decoded = decodeHello(bob.makeHelloFrame(101));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->heardNeighbors, (std::vector<NodeId>{NodeId(1)}));
}

TEST(Device, MetadataFrameStoredOnce) {
  Fixture fx;
  Device alice(NodeId(1), {});
  alice.node().acceptMetadata(fx.metadata(), 0);
  Device bob(NodeId(2), {});
  const auto frame = alice.makeMetadataFrame(fx.file);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(bob.receive(*frame, 10), RxOutcome::kMetadataStored);
  EXPECT_EQ(bob.receive(*frame, 11), RxOutcome::kMetadataDuplicate);
  EXPECT_TRUE(bob.node().metadata().has(fx.file));
}

TEST(Device, ForgedMetadataRejectedWithRegistry) {
  Fixture fx;
  Device bob(NodeId(2), {}, &fx.internet.registry());
  core::Metadata forged = fx.metadata();
  forged.name = "fox news daily ep0 remastered";  // invalidates the tag
  forged.rebuildKeywords();
  EXPECT_EQ(bob.receive(encodeMetadata(forged), 10),
            RxOutcome::kMetadataRejected);
  EXPECT_FALSE(bob.node().metadata().has(fx.file));
  // The genuine record still passes.
  EXPECT_EQ(bob.receive(encodeMetadata(fx.metadata()), 10),
            RxOutcome::kMetadataStored);
}

TEST(Device, PieceWithoutMetadataDropped) {
  Fixture fx;
  Device alice(NodeId(1), {});
  alice.node().acceptMetadata(fx.metadata(), 0);
  alice.node().acceptPiece(fx.file, 0, fx.metadata().pieceCount(), 0);
  Device bob(NodeId(2), {});
  const auto frame = alice.makePieceFrame(fx.internet.catalog(), fx.file, 0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(bob.receive(*frame, 10), RxOutcome::kPieceUnknown);
  EXPECT_EQ(bob.node().pieces().piecesHeld(fx.file), 0u);
}

TEST(Device, CorruptPieceRejectedByChecksum) {
  Fixture fx;
  Device alice(NodeId(1), {});
  alice.node().acceptMetadata(fx.metadata(), 0);
  alice.node().acceptPiece(fx.file, 0, fx.metadata().pieceCount(), 0);
  Device bob(NodeId(2), {});
  bob.receive(encodeMetadata(fx.metadata()), 5);
  auto frame = *alice.makePieceFrame(fx.internet.catalog(), fx.file, 0);
  frame.back() ^= 0xff;  // corrupt the payload tail
  EXPECT_EQ(bob.receive(frame, 10), RxOutcome::kPieceCorrupt);
  // The pristine frame goes through, once.
  const auto clean = alice.makePieceFrame(fx.internet.catalog(), fx.file, 0);
  EXPECT_EQ(bob.receive(*clean, 11), RxOutcome::kPieceStored);
  EXPECT_EQ(bob.receive(*clean, 12), RxOutcome::kPieceDuplicate);
}

TEST(Device, MalformedFrameCounted) {
  Device bob(NodeId(2), {});
  const Bytes junk = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(bob.receive(junk, 0), RxOutcome::kMalformed);
  EXPECT_EQ(bob.outcomeCount(RxOutcome::kMalformed), 1u);
}

TEST(Device, LastDecodeErrorNamesTheRejectionCause) {
  Device bob(NodeId(2), {});
  EXPECT_EQ(bob.lastDecodeError(), DecodeError::kNone);
  Bytes frame = encodeHello([] {
    HelloMessage h;
    h.sender = NodeId(1);
    return h;
  }());
  frame[0] = kCodecVersion + 1;
  EXPECT_EQ(bob.receive(frame, 0), RxOutcome::kMalformed);
  EXPECT_EQ(bob.lastDecodeError(), DecodeError::kBadVersion);
  frame[0] = kCodecVersion;
  frame.pop_back();
  EXPECT_EQ(bob.receive(frame, 1), RxOutcome::kMalformed);
  EXPECT_EQ(bob.lastDecodeError(), DecodeError::kTruncated);
}

TEST(Device, SenderCannotFrameUnheldContent) {
  Fixture fx;
  Device alice(NodeId(1), {});
  EXPECT_FALSE(alice.makeMetadataFrame(fx.file).has_value());
  EXPECT_FALSE(
      alice.makePieceFrame(fx.internet.catalog(), fx.file, 0).has_value());
}

TEST(LossyLink, DropAndCorruptRates) {
  LossyLink link(0.3, 0.2, Rng(5));
  const Bytes frame(100, 0x42);
  int delivered = 0;
  for (int i = 0; i < 5000; ++i) {
    if (link.transfer(frame)) ++delivered;
  }
  EXPECT_NEAR(delivered / 5000.0, 0.7, 0.03);
  EXPECT_NEAR(static_cast<double>(link.corrupted()) / delivered, 0.2, 0.03);
}

TEST(LossyLink, PerfectLinkIsTransparent) {
  LossyLink link(0.0, 0.0, Rng(1));
  const Bytes frame = {1, 2, 3};
  const auto out = link.transfer(frame);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
  EXPECT_EQ(link.dropped(), 0u);
}

TEST(LossyLink, BuildsFromFaultParams) {
  // The radio view of a fault configuration behaves like the explicit-rate
  // constructor: same rates, same Rng, same decisions.
  faults::FaultParams faults;
  faults.messageLossRate = 0.3;
  faults.pieceCorruptionRate = 0.2;
  LossyLink fromFaults(faults, Rng(5));
  LossyLink explicitRates(0.3, 0.2, Rng(5));
  const Bytes frame(64, 0x17);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(fromFaults.transfer(frame).has_value(),
              explicitRates.transfer(frame).has_value());
  }
  EXPECT_EQ(fromFaults.dropped(), explicitRates.dropped());
  EXPECT_EQ(fromFaults.corrupted(), explicitRates.corrupted());
}

// End-to-end: a whole 8-piece file crosses a lossy radio; checksums weed
// out corruption and retransmission drives the transfer to completion.
TEST(Device, FileTransferAcrossLossyRadio) {
  Fixture fx;
  Device seeder(NodeId(1), {});
  seeder.node().acceptMetadata(fx.metadata(), 0);
  for (std::uint32_t p = 0; p < fx.metadata().pieceCount(); ++p) {
    seeder.node().acceptPiece(fx.file, p, fx.metadata().pieceCount(), 0);
  }
  Device leecher(NodeId(2), {});
  leecher.node().addQuery(makeQuery(2, "news ep0"));

  LossyLink link(0.25, 0.25, Rng(42));
  SimTime now = 10;

  // Metadata first (retransmit until it lands).
  while (!leecher.node().metadata().has(fx.file)) {
    if (const auto frame = link.transfer(*seeder.makeMetadataFrame(fx.file))) {
      leecher.receive(*frame, now);
    }
    ++now;
    ASSERT_LT(now, 1000);
  }
  EXPECT_EQ(leecher.node().wantedFilesView(now),
            (std::vector<FileId>{fx.file}));

  // Pieces: naive ARQ — send every missing piece each round.
  while (!leecher.node().pieces().isComplete(fx.file)) {
    for (std::uint32_t p : leecher.node().pieces().missingPieces(fx.file)) {
      const auto frame =
          seeder.makePieceFrame(fx.internet.catalog(), fx.file, p);
      ASSERT_TRUE(frame.has_value());
      if (const auto rx = link.transfer(*frame)) {
        leecher.receive(*rx, now);
      }
    }
    ++now;
    ASSERT_LT(now, 2000);
  }
  EXPECT_TRUE(leecher.node().pieces().isComplete(fx.file));
  // The lossy radio really did interfere, and every corruption was caught.
  EXPECT_GT(link.dropped() + link.corrupted(), 0u);
  EXPECT_EQ(leecher.outcomeCount(RxOutcome::kPieceStored),
            fx.metadata().pieceCount());
  // Corrupted piece payloads were rejected, not stored (malformed covers
  // frames whose corruption hit the header instead).
  EXPECT_GE(leecher.outcomeCount(RxOutcome::kPieceCorrupt) +
                leecher.outcomeCount(RxOutcome::kMalformed),
            link.corrupted() > 0 ? 1u : 0u);
}

}  // namespace
}  // namespace hdtn::net
