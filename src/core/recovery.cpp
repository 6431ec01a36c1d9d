#include "src/core/recovery.hpp"

#include <algorithm>

namespace hdtn::core {

namespace {

// SplitMix64 finalizer: distinct salts keep metadata keys and piece keys
// from colliding structurally inside one summary vector.
constexpr std::uint64_t kMetadataKeySalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kPieceKeySalt = 0xbf58476d1ce4e5b9ull;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

void saveFrame(Serializer& out, const LostFrame& frame) {
  out.u32(frame.sender.value);
  out.u32(frame.receiver.value);
  out.u32(frame.file.value);
  out.u32(frame.piece);
  out.boolean(frame.requested);
  out.i64(frame.attempts);
}

LostFrame loadFrame(Deserializer& in) {
  LostFrame frame;
  frame.sender = NodeId{in.u32()};
  frame.receiver = NodeId{in.u32()};
  frame.file = FileId{in.u32()};
  frame.piece = in.u32();
  frame.requested = in.boolean();
  frame.attempts = static_cast<int>(in.i64());
  return frame;
}

}  // namespace

bool RecoveryParams::enabled() const {
  return maxRetries > 0 || repairPerContact > 0 || coordinatorFailover;
}

int RecoverySession::attemptCost(int attempts) {
  return 1 << std::min(attempts, 3);
}

std::optional<LostFrame> RecoverySession::nextRetry() {
  if (queue_.empty()) return std::nullopt;
  const int cost = attemptCost(queue_.front().attempts);
  if (cost > budgetLeft_) return std::nullopt;
  budgetLeft_ -= cost;
  LostFrame frame = queue_.front();
  queue_.pop_front();
  return frame;
}

std::vector<LostFrame> RecoverySession::drainRemaining() {
  std::vector<LostFrame> out(queue_.begin(), queue_.end());
  queue_.clear();
  return out;
}

void RecoveryState::addPending(LostFrame frame) {
  frame.attempts = 0;
  std::vector<LostFrame>& queue = pending_[frame.sender];
  if (queue.size() >= queueLimit_) queue.erase(queue.begin());
  queue.push_back(frame);
}

std::vector<LostFrame> RecoveryState::takePending(NodeId sender,
                                                  NodeId receiver) {
  auto it = pending_.find(sender);
  if (it == pending_.end()) return {};
  std::vector<LostFrame> taken;
  std::vector<LostFrame>& queue = it->second;
  auto keep = queue.begin();
  for (LostFrame& frame : queue) {
    if (frame.receiver == receiver) {
      taken.push_back(frame);
    } else {
      *keep++ = frame;
    }
  }
  queue.erase(keep, queue.end());
  if (queue.empty()) pending_.erase(it);
  return taken;
}

std::size_t RecoveryState::pendingCount() const {
  std::size_t n = 0;
  for (const auto& [sender, queue] : pending_) n += queue.size();
  return n;
}

void RecoveryState::saveState(Serializer& out) const {
  out.u64(pending_.size());
  for (const auto& [sender, queue] : pending_) {
    out.u32(sender.value);
    out.u64(queue.size());
    for (const LostFrame& frame : queue) saveFrame(out, frame);
  }
}

void RecoveryState::loadState(Deserializer& in) {
  pending_.clear();
  const std::size_t senders = in.length(4);
  for (std::size_t i = 0; i < senders; ++i) {
    const NodeId sender{in.u32()};
    const std::size_t count = in.length(4 * 4 + 1 + 8);
    std::vector<LostFrame>& queue = pending_[sender];
    queue.reserve(count);
    for (std::size_t j = 0; j < count; ++j) queue.push_back(loadFrame(in));
  }
}

std::uint64_t SummaryVector::metadataKey(FileId file) {
  return mix(kMetadataKeySalt ^ file.value);
}

std::uint64_t SummaryVector::pieceKey(FileId file, std::uint32_t piece) {
  return mix(kPieceKeySalt ^ (std::uint64_t{file.value} << 32 | piece));
}

}  // namespace hdtn::core
