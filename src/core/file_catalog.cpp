#include "src/core/file_catalog.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace hdtn::core {

std::uint32_t FileInfo::pieceCount() const {
  assert(pieceSizeBytes > 0);
  if (sizeBytes == 0) return 0;
  return static_cast<std::uint32_t>((sizeBytes + pieceSizeBytes - 1) /
                                    pieceSizeBytes);
}

std::uint32_t FileInfo::pieceLength(std::uint32_t pieceIndex) const {
  assert(pieceIndex < pieceCount());
  const std::uint64_t offset =
      static_cast<std::uint64_t>(pieceIndex) * pieceSizeBytes;
  const std::uint64_t remaining = sizeBytes - offset;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(remaining, pieceSizeBytes));
}

std::vector<std::uint8_t> makePieceBytes(const FileInfo& info,
                                         std::uint32_t piece) {
  // Key the stream on (uri, piece) so every piece is independently
  // generatable; Sha1 of that key seeds a PRNG that expands to the payload.
  Sha1 keyHasher;
  keyHasher.update(info.uri);
  keyHasher.update(std::string_view("#piece#"));
  keyHasher.update(std::to_string(piece));
  const Sha1Digest key = keyHasher.finish();
  std::uint64_t seed = 0;
  for (int i = 0; i < 8; ++i) {
    seed = (seed << 8) | key.bytes[static_cast<std::size_t>(i)];
  }
  Rng rng(seed);
  const std::uint32_t length = info.pieceLength(piece);
  std::vector<std::uint8_t> out(length);
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    const std::uint64_t word = rng();
    for (int b = 0; b < 8; ++b) {
      out[i++] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  if (i < out.size()) {
    std::uint64_t word = rng();
    while (i < out.size()) {
      out[i++] = static_cast<std::uint8_t>(word);
      word >>= 8;
    }
  }
  return out;
}

std::uint64_t FileCatalog::Identity::next() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

FileId FileCatalog::publish(const PublishRequest& request) {
  assert(request.sizeBytes > 0);
  assert(request.pieceSizeBytes > 0);
  assert(request.ttl > 0);

  FileInfo info;
  info.id = FileId(static_cast<std::uint32_t>(files_.size()));
  info.name = request.name;
  info.publisher = request.publisher;
  info.description = request.description;
  info.sizeBytes = request.sizeBytes;
  info.pieceSizeBytes = request.pieceSizeBytes;
  info.popularity = request.popularity;
  info.publishedAt = request.publishedAt;
  info.ttl = request.ttl;
  info.uri = "dtn://" + request.publisher + "/f" +
             std::to_string(info.id.value);

  Metadata md;
  md.file = info.id;
  md.name = info.name;
  md.publisher = info.publisher;
  md.description = info.description;
  md.uri = info.uri;
  md.sizeBytes = info.sizeBytes;
  md.pieceSizeBytes = info.pieceSizeBytes;
  md.popularity = info.popularity;
  md.publishedAt = info.publishedAt;
  md.ttl = info.ttl;
  md.pieceChecksums.reserve(info.pieceCount());
  for (std::uint32_t p = 0; p < info.pieceCount(); ++p) {
    md.pieceChecksums.push_back(Sha1::hash(makePieceBytes(info, p)));
  }
  md.rebuildKeywords();
  if (registry_ != nullptr) {
    if (const auto tag = registry_->sign(md)) md.authTag = *tag;
  }

  byUri_.emplace(info.uri, info.id);
  const auto slot = std::lower_bound(
      uriOrder_.begin(), uriOrder_.end(), info.uri,
      [this](FileId id, const Uri& uri) { return files_[id.value].uri < uri; });
  const auto rank = static_cast<std::size_t>(slot - uriOrder_.begin());
  uriOrder_.insert(slot, info.id);
  uriRanks_.push_back(0);
  for (std::size_t r = rank; r < uriOrder_.size(); ++r) {
    uriRanks_[uriOrder_[r].value] = static_cast<std::uint32_t>(r);
  }
  expiryPrefixMax_.push_back(
      expiryPrefixMax_.empty()
          ? info.expiresAt()
          : std::max(expiryPrefixMax_.back(), info.expiresAt()));
  files_.push_back(std::move(info));
  metadata_.push_back(std::make_shared<const Metadata>(std::move(md)));
  return metadata_.back()->file;
}

const FileInfo* FileCatalog::find(FileId id) const {
  if (!id.valid() || id.value >= files_.size()) return nullptr;
  return &files_[id.value];
}

const FileInfo* FileCatalog::findByUri(const Uri& uri) const {
  auto it = byUri_.find(uri);
  return it == byUri_.end() ? nullptr : find(it->second);
}

const SharedMetadata& FileCatalog::sharedMetadataFor(FileId id) const {
  assert(id.valid() && id.value < metadata_.size());
  return metadata_[id.value];
}

void FileCatalog::setPopularity(FileId id, Popularity popularity) {
  assert(id.valid() && id.value < files_.size());
  files_[id.value].popularity = popularity;
  auto next = std::make_shared<Metadata>(*metadata_[id.value]);
  next->popularity = popularity;
  metadata_[id.value] = std::move(next);
}

std::vector<FileId> FileCatalog::aliveFiles(SimTime now) const {
  std::vector<FileId> out;
  for (std::size_t i = firstUnexpired(now); i < files_.size(); ++i) {
    if (files_[i].alive(now)) out.push_back(files_[i].id);
  }
  return out;
}

std::uint32_t FileCatalog::firstUnexpired(SimTime now) const {
  // The running maximum rises with the id, so the files below the first
  // entry past `now` all expired by then, and that entry's file did not.
  return static_cast<std::uint32_t>(
      std::upper_bound(expiryPrefixMax_.begin(), expiryPrefixMax_.end(),
                       now) -
      expiryPrefixMax_.begin());
}

std::vector<FileId> FileCatalog::allFiles() const {
  std::vector<FileId> out;
  out.reserve(files_.size());
  for (const FileInfo& f : files_) out.push_back(f.id);
  return out;
}

}  // namespace hdtn::core
