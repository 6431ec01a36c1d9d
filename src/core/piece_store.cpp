#include "src/core/piece_store.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

namespace hdtn::core {

std::uint32_t PieceStore::allocWords(std::uint32_t words) {
  // The last freed span of this size (LIFO, as per-size lists would be).
  const auto freed = std::find_if(
      freeBlocks_.rbegin(), freeBlocks_.rend(),
      [words](const FreeBlock& block) { return block.words == words; });
  if (freed != freeBlocks_.rend()) {
    const std::uint32_t offset = freed->offset;
    freeBlocks_.erase(std::next(freed).base());
    std::fill_n(arena_.begin() + offset, words, 0);
    return offset;
  }
  const auto offset = static_cast<std::uint32_t>(arena_.size());
  arena_.resize(arena_.size() + words, 0);
  return offset;
}

std::vector<PieceStore::Entry>::const_iterator PieceStore::slot(
    FileId file) const {
  // Branch-free lower bound: a store holds tens of files, so mispredicted
  // branches, not memory, bound a lookup. The answer always lies in
  // [base, base + n].
  const Entry* base = entries_.data();
  std::size_t n = entries_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half].file < file ? base + half : base;
    n -= half;
  }
  if (n == 1 && base->file < file) ++base;
  return entries_.begin() + (base - entries_.data());
}

const PieceStore::Entry* PieceStore::find(FileId file) const {
  const auto it = slot(file);
  return it != entries_.end() && it->file == file ? &*it : nullptr;
}

bool PieceStore::registerFile(FileId file, std::uint32_t pieceCount) {
  assert(file.valid());
  if (pieceCount == 0) return false;
  const auto it = slot(file);
  if (it != entries_.end() && it->file == file) {
    return it->pieces == pieceCount;
  }
  Entry e;
  e.file = file;
  e.word = allocWords(wordsFor(pieceCount));
  e.pieces = pieceCount;
  e.seq = nextSeq_++;
  entries_.insert(it, e);
  return true;
}

bool PieceStore::addPiece(FileId file, std::uint32_t piece) {
  Entry* e = find(file);
  assert(e != nullptr && "file must be registered before addPiece");
  assert(piece < e->pieces);
  if (bit(*e, piece)) return false;
  if (capacity_ && totalHeld_ >= *capacity_) {
    // Eviction never moves entries, so `e` stays valid.
    evictOnePiece();
  }
  setBit(*e, piece);
  ++e->held;
  ++totalHeld_;
  return true;
}

std::uint32_t PieceStore::addWholeFile(FileId file) {
  const Entry* e = find(file);
  assert(e != nullptr);
  const std::uint32_t pieces = e->pieces;
  std::uint32_t added = 0;
  for (std::uint32_t p = 0; p < pieces; ++p) {
    if (addPiece(file, p)) ++added;
  }
  return added;
}

void PieceStore::removeFile(FileId file) {
  const Entry* e = find(file);
  if (e == nullptr) return;
  totalHeld_ -= e->held;
  freeBlocks_.push_back({wordsFor(e->pieces), e->word});
  entries_.erase(entries_.begin() + (e - entries_.data()));
}

bool PieceStore::isRegistered(FileId file) const {
  return find(file) != nullptr;
}

bool PieceStore::hasPiece(FileId file, std::uint32_t piece) const {
  const Entry* e = find(file);
  return e != nullptr && piece < e->pieces && bit(*e, piece);
}

bool PieceStore::isComplete(FileId file) const {
  const Entry* e = find(file);
  return e != nullptr && e->held == e->pieces;
}

std::uint32_t PieceStore::piecesHeld(FileId file) const {
  const Entry* e = find(file);
  return e == nullptr ? 0 : e->held;
}

std::uint32_t PieceStore::pieceCount(FileId file) const {
  const Entry* e = find(file);
  return e == nullptr ? 0 : e->pieces;
}

std::vector<FileId> PieceStore::completeFiles() const {
  std::vector<FileId> out;
  for (const Entry& e : entries_) {
    if (e.held == e.pieces) out.push_back(e.file);
  }
  return out;
}

void PieceStore::setPriority(FileId file, double priority) {
  if (Entry* e = find(file)) e->priority = priority;
}

void PieceStore::evictOnePiece() {
  // Victim: lowest-priority *incomplete* file holding at least one piece;
  // complete files are preferred survivors since they are servable. Falls
  // back to the lowest-priority complete file when everything is complete.
  Entry* victim = nullptr;
  auto better = [](const Entry& candidate, const Entry* incumbent) {
    if (incumbent == nullptr) return true;
    if (candidate.priority != incumbent->priority) {
      return candidate.priority < incumbent->priority;
    }
    // Equal priority: evict the oldest registration. The seq tie-break is
    // total (seqs are unique), so victim choice is independent of the
    // order entries are scanned in — checkpoint determinism depends on
    // this.
    return candidate.seq < incumbent->seq;
  };
  for (Entry& e : entries_) {
    if (e.held == 0 || e.held == e.pieces) continue;
    if (better(e, victim)) victim = &e;
  }
  if (victim == nullptr) {
    for (Entry& e : entries_) {
      if (e.held == 0) continue;
      if (better(e, victim)) victim = &e;
    }
  }
  if (victim == nullptr) return;
  // Drop the victim's highest held piece.
  for (std::uint32_t w = wordsFor(victim->pieces); w > 0; --w) {
    std::uint64_t& word = arena_[victim->word + w - 1];
    if (word == 0) continue;
    word &= ~(std::uint64_t{1} << (63 - std::countl_zero(word)));
    --victim->held;
    --totalHeld_;
    return;
  }
}

void PieceStore::saveState(Serializer& out) const {
  out.u64(entries_.size());
  for (const Entry& e : entries_) {
    out.u32(e.file.value);
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
  const std::size_t count = in.length();
  for (std::size_t i = 0; i < count; ++i) {
    Entry e;
    e.file = FileId{in.u32()};
    // A repeated or out-of-order id would load as one file while its pieces
    // counted twice; saveState never writes one.
    if (!entries_.empty() && !(entries_.back().file < e.file)) {
      throw SerializeError("PieceStore: file ids not strictly ascending");
    }
    const std::size_t pieces = in.length();
    // wordsFor rounds up in 32 bits.
    if (pieces == 0 ||
        pieces > std::numeric_limits<std::uint32_t>::max() - 63) {
      throw SerializeError("PieceStore: piece count out of range");
    }
    e.pieces = static_cast<std::uint32_t>(pieces);
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
    entries_.push_back(e);
  }
  nextSeq_ = in.u64();
}

}  // namespace hdtn::core
