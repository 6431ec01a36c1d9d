// Self-healing protocol layer: the data structures behind in-protocol
// recovery from injected faults.
//
// PR 3's fault subsystem makes transmissions fail; this layer makes the
// protocols fight back, in three mechanisms the engine wires into contact
// processing (see docs/RECOVERY.md):
//
//   * contact-level reliable transfer — every deliverable frame a contact
//     loses (metadata record or piece, per receiver) is remembered in a
//     per-contact RecoverySession. At the end of the contact the session
//     replays the losses in FIFO order under a deterministic
//     backoff-charged slot budget; frames whose retries are exhausted or
//     unaffordable spill into the cross-contact RecoveryState and are
//     served at the next re-contact of the same (sender, receiver) pair.
//   * coordinator failover — handled entirely in the engine (the clique
//     coordinator is positional); RecoveryParams only carries the knob.
//   * anti-entropy repair — on contact, a receiver summarises its held
//     metadata and pieces in a SummaryVector (a Bloom filter over stable
//     per-record keys; no false negatives, so "not mayContain" proves the
//     record is absent) and peers push query-matching records the summary
//     proves missing, under a per-contact budget.
//
// Determinism: none of these structures draw randomness. Queues are FIFO,
// maps are ordered, and the retransmission fault re-draws happen in the
// engine in simulation order. With RecoveryParams::enabled() false the
// engine constructs no RecoveryState at all (the same zero-cost null path
// FaultPlan uses), keeping clean runs byte-identical.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/util/bloom.hpp"
#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// Piece index standing in for "the metadata frame" in a LostFrame.
inline constexpr std::uint32_t kMetadataFrameIndex = 0xffffffffu;

/// Piece index standing in for "one coded frame of the file's generation"
/// in a LostFrame (coded download mode). Redelivery sends a *fresh* random
/// combination rather than replaying the lost frame — any independent
/// combination is equally useful to the receiver's decoder.
inline constexpr std::uint32_t kCodedFrameIndex = 0xfffffffeu;

struct RecoveryParams {
  /// In-contact retransmission attempts per lost frame; 0 disables
  /// reliable transfer entirely (no sessions, no loss bookkeeping).
  int maxRetries = 0;
  /// Backoff-slot budget per contact for retransmissions. Attempt k of a
  /// frame costs 2^min(k, 3) slots, so repeat offenders back off and one
  /// hot frame cannot starve the rest of the queue.
  int retransmitBudget = 16;
  /// Anti-entropy transfers allowed per contact; 0 disables repair.
  int repairPerContact = 0;
  /// Per-sender cap on cross-contact pending retransmissions; the oldest
  /// entry is shed when a new loss would exceed it.
  std::size_t repairQueueLimit = 64;
  /// When a clique coordinator churns down mid-round, surviving members
  /// elect the first live node of the hello-derived member order instead
  /// of abandoning the broadcast round.
  bool coordinatorFailover = false;

  /// True when any recovery mechanism can act. The engine only constructs
  /// a RecoveryState for enabled params, so an all-zero configuration is
  /// byte-identical to a run without recovery support.
  [[nodiscard]] bool enabled() const;

  /// One descriptive message per violation (empty when valid); the rules
  /// are in src/core/params.cpp.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One deliverable frame a contact failed to deliver: a metadata record
/// (piece == kMetadataFrameIndex) or one piece, for one receiver.
struct LostFrame {
  NodeId sender;
  NodeId receiver;
  FileId file;
  std::uint32_t piece = kMetadataFrameIndex;
  /// Whether the receiver had requested the frame when it was lost (drives
  /// the credit split on redelivery; metadata recomputes it at delivery).
  bool requested = false;
  /// Retransmission attempts already charged for this frame.
  int attempts = 0;

  [[nodiscard]] bool isMetadata() const { return piece == kMetadataFrameIndex; }
};

/// Per-contact reliable-transfer session. The engine notes every lost
/// deliverable frame during the discovery/download phases, then replays
/// them FIFO at the end of the contact: nextRetry() charges each attempt's
/// backoff cost against the slot budget and stops deterministically when
/// the budget cannot afford the frame at the head of the queue.
class RecoverySession {
 public:
  RecoverySession(int maxRetries, int budgetSlots)
      : maxRetries_(maxRetries), budgetLeft_(budgetSlots) {}

  /// Records a frame lost in the current contact. No-op when retries are
  /// disabled.
  void noteLoss(LostFrame frame) {
    if (maxRetries_ <= 0) return;
    queue_.push_back(frame);
  }

  /// Pops the next frame to retransmit, charging its backoff cost; nullopt
  /// when the queue is empty or the head frame is unaffordable.
  [[nodiscard]] std::optional<LostFrame> nextRetry();

  /// Puts a frame whose retransmission failed back at the queue tail (the
  /// caller increments attempts first); dropped when retries are spent.
  void requeue(LostFrame frame) {
    if (frame.attempts >= maxRetries_) return;
    queue_.push_back(frame);
  }

  /// Frames still queued when the contact ended (budget exhausted); they
  /// move to the cross-contact RecoveryState.
  [[nodiscard]] std::vector<LostFrame> drainRemaining();

  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] int budgetLeft() const { return budgetLeft_; }

  /// Slot cost of one retransmission attempt: 2^min(attempts, 3).
  [[nodiscard]] static int attemptCost(int attempts);

 private:
  int maxRetries_;
  int budgetLeft_;
  std::deque<LostFrame> queue_;
};

/// Cross-contact recovery state: frames that exhausted a contact's budget,
/// kept per sender (bounded, oldest-shed) until the sender and receiver
/// meet again. Checkpointed with the engine (insertion order is part of
/// the deterministic state).
class RecoveryState {
 public:
  explicit RecoveryState(std::size_t queueLimit) : queueLimit_(queueLimit) {}

  /// Queues a frame for retransmission at the next (sender, receiver)
  /// re-contact; attempts restart from zero. Sheds the sender's oldest
  /// pending frame when the per-sender cap is hit.
  void addPending(LostFrame frame);

  /// Removes and returns (insertion-ordered) every pending frame from
  /// `sender` to `receiver`.
  [[nodiscard]] std::vector<LostFrame> takePending(NodeId sender,
                                                  NodeId receiver);

  /// True when `sender` has any pending frame (cheap pre-check).
  [[nodiscard]] bool hasPending(NodeId sender) const {
    return pending_.find(sender) != pending_.end();
  }

  [[nodiscard]] std::size_t pendingCount() const;

  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

 private:
  std::size_t queueLimit_;
  /// Ordered by sender so serialization is canonical.
  std::map<NodeId, std::vector<LostFrame>> pending_;
};

/// Compact summary of "what I already hold" exchanged during anti-entropy
/// repair: a Bloom filter over stable keys for metadata records and
/// (file, piece) pairs. No false negatives, so a negative membership test
/// proves the peer lacks the record and the repair push is never wasted on
/// something already held; false positives (~1%) only make repair skip an
/// occasional genuinely-missing record, costing delivery, never safety.
class SummaryVector {
 public:
  explicit SummaryVector(std::size_t expectedElements)
      : filter_(BloomFilter::forCapacity(std::max<std::size_t>(16, expectedElements),
                                         0.01)) {}

  [[nodiscard]] static std::uint64_t metadataKey(FileId file);
  [[nodiscard]] static std::uint64_t pieceKey(FileId file, std::uint32_t piece);

  void insert(std::uint64_t key) { filter_.insert(key); }
  [[nodiscard]] bool mayContain(std::uint64_t key) const {
    return filter_.mayContain(key);
  }

 private:
  BloomFilter filter_;
};

}  // namespace hdtn::core
