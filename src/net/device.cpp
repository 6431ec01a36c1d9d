#include "src/net/device.hpp"

#include <algorithm>

namespace hdtn::net {
namespace {

std::size_t outcomeIndex(RxOutcome outcome) {
  return static_cast<std::size_t>(outcome);
}

}  // namespace

Device::Device(NodeId id, core::NodeOptions options,
               const core::PublisherRegistry* registry)
    : node_(id, options), registry_(registry) {}

Bytes Device::makeHelloFrame(SimTime now) {
  HelloMessage hello;
  hello.sender = id();
  for (const auto& [peer, when] : heard_) {
    if (now - when <= kHelloNeighborWindow) {
      hello.heardNeighbors.push_back(peer);
    }
  }
  std::sort(hello.heardNeighbors.begin(), hello.heardNeighbors.end());
  hello.queries = node_.activeQueryTexts(now);
  // Wanted URIs come from the held metadata of selected files.
  for (FileId file : node_.wantedFilesView(now)) {
    const core::Metadata* md = node_.metadata().get(file);
    if (md != nullptr) hello.wantedUris.push_back(md->uri);
  }
  return encodeHello(hello);
}

std::optional<Bytes> Device::makeMetadataFrame(FileId file) const {
  const core::Metadata* md = node_.metadata().get(file);
  if (md == nullptr) return std::nullopt;
  return encodeMetadata(*md);
}

std::optional<Bytes> Device::makePieceFrame(const core::FileCatalog& catalog,
                                            FileId file,
                                            std::uint32_t piece) const {
  if (!node_.pieces().hasPiece(file, piece)) return std::nullopt;
  const core::FileInfo* info = catalog.find(file);
  if (info == nullptr) return std::nullopt;
  PieceMessage header;
  header.sender = id();
  header.file = file;
  header.pieceIndex = piece;
  return encodePiece(header, core::makePieceBytes(*info, piece));
}

RxOutcome Device::receive(std::span<const std::uint8_t> frame, SimTime now) {
  const auto record = [this](RxOutcome outcome) {
    ++counts_[outcomeIndex(outcome)];
    return outcome;
  };
  const auto malformed = [this, &record](DecodeError error) {
    lastDecodeError_ = error;
    return record(RxOutcome::kMalformed);
  };
  const auto kind = peekKind(frame);
  if (!kind) return malformed(kind.error);
  switch (*kind) {
    case WireKind::kHello: {
      const auto hello = decodeHello(frame);
      if (!hello) return malformed(hello.error);
      heard_[hello->sender] = now;
      node_.storePeerQueries(hello->sender, hello->queries, now);
      node_.storePeerWants(hello->wantedUris, now);
      return record(RxOutcome::kHello);
    }
    case WireKind::kMetadata: {
      const auto md = decodeMetadata(frame);
      if (!md) return malformed(md.error);
      if (node_.metadata().has(md->file)) {
        return record(RxOutcome::kMetadataDuplicate);
      }
      if (registry_ != nullptr && !md->expired(now) &&
          !registry_->verify(*md)) {
        node_.rejectMetadata(md->file);
        return record(RxOutcome::kMetadataRejected);
      }
      node_.acceptMetadata(*md, now);
      if (!node_.metadata().has(md->file)) {
        // It was expired (or a bounded store refused it).
        return record(RxOutcome::kMetadataRejected);
      }
      return record(RxOutcome::kMetadataStored);
    }
    case WireKind::kPiece: {
      const auto piece = decodePiece(frame);
      if (!piece) return malformed(piece.error);
      const core::Metadata* md = node_.metadata().get(piece->header.file);
      if (md == nullptr) {
        // Without metadata there is no checksum to verify against; a
        // device never stores unverifiable payload.
        return record(RxOutcome::kPieceUnknown);
      }
      if (piece->header.pieceIndex >= md->pieceCount()) {
        return record(RxOutcome::kPieceCorrupt);
      }
      if (node_.pieces().hasPiece(piece->header.file,
                                  piece->header.pieceIndex)) {
        return record(RxOutcome::kPieceDuplicate);
      }
      const Sha1Digest digest = Sha1::hash(std::span<const std::uint8_t>(
          piece->payload.data(), piece->payload.size()));
      if (digest != md->pieceChecksums[piece->header.pieceIndex]) {
        return record(RxOutcome::kPieceCorrupt);
      }
      node_.acceptPiece(piece->header.file, piece->header.pieceIndex,
                        md->pieceCount(), now);
      return record(RxOutcome::kPieceStored);
    }
  }
  return record(RxOutcome::kMalformed);
}

std::uint64_t Device::outcomeCount(RxOutcome outcome) const {
  return counts_[outcomeIndex(outcome)];
}

std::optional<Bytes> LossyLink::transfer(const Bytes& frame) {
  if (rng_.chance(dropRate_)) {
    ++dropped_;
    return std::nullopt;
  }
  Bytes out = frame;
  if (!out.empty() && rng_.chance(corruptRate_)) {
    const std::size_t pos = rng_.pickIndex(out.size());
    out[pos] ^= static_cast<std::uint8_t>(1 + rng_.pickIndex(255));
    ++corrupted_;
  }
  return out;
}

}  // namespace hdtn::net
