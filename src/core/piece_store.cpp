#include "src/core/piece_store.hpp"

#include <algorithm>
#include <cassert>

namespace hdtn::core {

std::uint32_t PieceStore::allocWords(std::uint32_t words) {
  auto freeIt = freeBlocks_.find(words);
  if (freeIt != freeBlocks_.end() && !freeIt->second.empty()) {
    const std::uint32_t offset = freeIt->second.back();
    freeIt->second.pop_back();
    std::fill_n(arena_.begin() + offset, words, 0);
    return offset;
  }
  const auto offset = static_cast<std::uint32_t>(arena_.size());
  arena_.resize(arena_.size() + words, 0);
  return offset;
}

bool PieceStore::registerFile(FileId file, std::uint32_t pieceCount) {
  assert(file.valid());
  assert(pieceCount > 0);
  auto [it, inserted] = entries_.try_emplace(file);
  if (inserted) {
    it->second.word = allocWords(wordsFor(pieceCount));
    it->second.pieces = pieceCount;
    it->second.seq = nextSeq_++;
    filesViewStale_ = true;
    return true;
  }
  return it->second.pieces == pieceCount;
}

bool PieceStore::addPiece(FileId file, std::uint32_t piece) {
  auto it = entries_.find(file);
  assert(it != entries_.end() && "file must be registered before addPiece");
  Entry& e = it->second;
  assert(piece < e.pieces);
  if (bit(e, piece)) return false;
  if (capacity_ && totalHeld_ >= *capacity_) evictOnePiece();
  setBit(e, piece);
  ++e.held;
  ++totalHeld_;
  return true;
}

std::uint32_t PieceStore::addWholeFile(FileId file) {
  auto it = entries_.find(file);
  assert(it != entries_.end());
  std::uint32_t added = 0;
  for (std::uint32_t p = 0; p < it->second.pieces; ++p) {
    if (addPiece(file, p)) ++added;
  }
  return added;
}

void PieceStore::removeFile(FileId file) {
  auto it = entries_.find(file);
  if (it == entries_.end()) return;
  totalHeld_ -= it->second.held;
  freeBlocks_[wordsFor(it->second.pieces)].push_back(it->second.word);
  entries_.erase(it);
  filesViewStale_ = true;
}

bool PieceStore::isRegistered(FileId file) const {
  return entries_.contains(file);
}

bool PieceStore::hasPiece(FileId file, std::uint32_t piece) const {
  auto it = entries_.find(file);
  if (it == entries_.end()) return false;
  return piece < it->second.pieces && bit(it->second, piece);
}

bool PieceStore::isComplete(FileId file) const {
  auto it = entries_.find(file);
  if (it == entries_.end()) return false;
  return it->second.held == it->second.pieces;
}

std::uint32_t PieceStore::piecesHeld(FileId file) const {
  auto it = entries_.find(file);
  return it == entries_.end() ? 0 : it->second.held;
}

std::uint32_t PieceStore::pieceCount(FileId file) const {
  auto it = entries_.find(file);
  return it == entries_.end() ? 0 : it->second.pieces;
}

std::vector<std::uint32_t> PieceStore::missingPieces(FileId file) const {
  std::vector<std::uint32_t> out;
  auto it = entries_.find(file);
  if (it == entries_.end()) return out;
  for (std::uint32_t p = 0; p < it->second.pieces; ++p) {
    if (!bit(it->second, p)) out.push_back(p);
  }
  return out;
}

const std::vector<FileId>& PieceStore::files() const {
  if (filesViewStale_) {
    filesView_.clear();
    for (const auto& [file, _] : entries_) filesView_.push_back(file);
    std::sort(filesView_.begin(), filesView_.end());
    filesViewStale_ = false;
  }
  return filesView_;
}

std::vector<FileId> PieceStore::completeFiles() const {
  std::vector<FileId> out;
  for (const auto& [file, e] : entries_) {
    if (e.held == e.pieces) out.push_back(file);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PieceStore::setPriority(FileId file, double priority) {
  auto it = entries_.find(file);
  if (it != entries_.end()) it->second.priority = priority;
}

void PieceStore::evictOnePiece() {
  // Victim: lowest-priority *incomplete* file holding at least one piece;
  // complete files are preferred survivors since they are servable. Falls
  // back to the lowest-priority complete file when everything is complete.
  const Entry* victimEntry = nullptr;
  FileId victim;
  auto better = [](const Entry& candidate, const Entry* incumbent) {
    if (incumbent == nullptr) return true;
    if (candidate.priority != incumbent->priority) {
      return candidate.priority < incumbent->priority;
    }
    // Equal priority: evict the oldest registration. The seq tie-break is
    // total (seqs are unique), so victim choice is independent of hash-map
    // iteration order — checkpoint determinism depends on this.
    return candidate.seq < incumbent->seq;
  };
  for (const auto& [file, e] : entries_) {
    if (e.held == 0 || e.held == e.pieces) continue;
    if (better(e, victimEntry)) {
      victimEntry = &e;
      victim = file;
    }
  }
  if (victimEntry == nullptr) {
    for (const auto& [file, e] : entries_) {
      if (e.held == 0) continue;
      if (better(e, victimEntry)) {
        victimEntry = &e;
        victim = file;
      }
    }
  }
  if (victimEntry == nullptr) return;
  Entry& e = entries_[victim];
  for (std::uint32_t p = e.pieces; p > 0; --p) {
    if (bit(e, p - 1)) {
      clearBit(e, p - 1);
      --e.held;
      --totalHeld_;
      return;
    }
  }
}

void PieceStore::saveState(Serializer& out) const {
  out.u64(files().size());
  for (const FileId file : files()) {
    const Entry& e = entries_.at(file);
    out.u32(file.value);
    out.u64(e.pieces);
    for (std::uint32_t p = 0; p < e.pieces; ++p) {
      out.boolean(bit(e, p));
    }
    out.f64(e.priority);
    out.u64(e.seq);
  }
  out.u64(nextSeq_);
}

void PieceStore::loadState(Deserializer& in) {
  entries_.clear();
  arena_.clear();
  freeBlocks_.clear();
  totalHeld_ = 0;
  filesViewStale_ = true;
  const std::size_t count = in.length();
  for (std::size_t i = 0; i < count; ++i) {
    const FileId file{in.u32()};
    Entry e;
    e.pieces = static_cast<std::uint32_t>(in.length());
    e.word = allocWords(wordsFor(e.pieces));
    for (std::uint32_t p = 0; p < e.pieces; ++p) {
      if (in.boolean()) {
        setBit(e, p);
        ++e.held;
      }
    }
    e.priority = in.f64();
    e.seq = in.u64();
    totalHeld_ += e.held;
    entries_.emplace(file, e);
  }
  nextSeq_ = in.u64();
}

}  // namespace hdtn::core
