// ReputationTracker: evidence weights, deterministic linear decay,
// quarantine threshold with hysteresis (enter at the threshold, release
// only under half of it, no per-contact flapping), and state serialization.
#include "src/core/reputation.hpp"

#include <gtest/gtest.h>

#include <string>

#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {
namespace {

ReputationParams defenseParams() {
  ReputationParams params;
  params.defense = true;
  return params;
}

TEST(ReputationParams, DefaultsAreDisabledAndValid) {
  ReputationParams params;
  EXPECT_FALSE(params.enabled());
  EXPECT_TRUE(params.validate().empty());
  EXPECT_TRUE(defenseParams().enabled());
}

TEST(ReputationParams, ValidateRejectsBadThresholdWeightsAndDecay) {
  auto expectSingle = [](const ReputationParams& params, const char* field) {
    const auto errors = params.validate();
    ASSERT_EQ(errors.size(), 1u) << field;
    EXPECT_NE(errors.front().find(field), std::string::npos)
        << "actual: " << errors.front();
  };
  ReputationParams params = defenseParams();
  params.quarantineThreshold = 0.0;
  expectSingle(params, "quarantineThreshold");
}

TEST(ReputationTracker, EvidenceAccumulatesByKindWeight) {
  ReputationTracker tracker(defenseParams());
  const NodeId node{4};
  EXPECT_EQ(tracker.suspicion(node, 0), 0.0);
  EXPECT_FALSE(tracker.addEvidence(node, EvidenceKind::kFailedVerification, 0));
  EXPECT_DOUBLE_EQ(tracker.suspicion(node, 0), 1.0);
  EXPECT_FALSE(tracker.addEvidence(node, EvidenceKind::kSummaryMismatch, 0));
  EXPECT_DOUBLE_EQ(tracker.suspicion(node, 0), 1.5);
  EXPECT_FALSE(tracker.addEvidence(node, EvidenceKind::kAckAnomaly, 0));
  EXPECT_DOUBLE_EQ(tracker.suspicion(node, 0), 1.65);
  EXPECT_FALSE(
      tracker.addEvidence(node, EvidenceKind::kBroadcastSuppressed, 0));
  EXPECT_DOUBLE_EQ(tracker.suspicion(node, 0), 2.15);
  // Other nodes are untouched.
  EXPECT_EQ(tracker.suspicion(NodeId{5}, 0), 0.0);
}

TEST(ReputationTracker, SuspicionDecaysLinearlyAndClampsAtZero) {
  ReputationTracker tracker(defenseParams());  // kSuspicionDecayPerDay = 1
  const NodeId node{1};
  (void)tracker.addEvidence(node, EvidenceKind::kFailedVerification, 0);
  (void)tracker.addEvidence(node, EvidenceKind::kFailedVerification, 0);
  EXPECT_DOUBLE_EQ(tracker.suspicion(node, 0), 2.0);
  EXPECT_DOUBLE_EQ(tracker.suspicion(node, kDay / 2), 1.5);
  EXPECT_DOUBLE_EQ(tracker.suspicion(node, kDay), 1.0);
  EXPECT_DOUBLE_EQ(tracker.suspicion(node, 3 * kDay), 0.0);
  // suspicion() is const: querying the future must not advance the entry.
  EXPECT_DOUBLE_EQ(tracker.suspicion(node, kDay), 1.0);
}

TEST(ReputationTracker, QuarantineTriggersExactlyAtThreshold) {
  ReputationTracker tracker(defenseParams());  // threshold 3.0, weight 1.0
  const NodeId node{9};
  EXPECT_FALSE(tracker.addEvidence(node, EvidenceKind::kFailedVerification, 0));
  EXPECT_FALSE(tracker.addEvidence(node, EvidenceKind::kFailedVerification, 0));
  EXPECT_FALSE(tracker.isQuarantined(node, 0));
  // The crossing evidence reports the quarantine exactly once.
  EXPECT_TRUE(tracker.addEvidence(node, EvidenceKind::kFailedVerification, 0));
  EXPECT_TRUE(tracker.isQuarantined(node, 0));
  EXPECT_EQ(tracker.quarantinedCount(), 1u);
  // Further evidence while quarantined never re-reports.
  EXPECT_FALSE(tracker.addEvidence(node, EvidenceKind::kFailedVerification, 0));
  EXPECT_TRUE(tracker.isQuarantined(node, 0));
}

TEST(ReputationTracker, HysteresisReleasesOnlyUnderHalfThreshold) {
  ReputationTracker tracker(defenseParams());
  const NodeId node{2};
  for (int i = 0; i < 3; ++i) {
    (void)tracker.addEvidence(node, EvidenceKind::kFailedVerification, 0);
  }
  ASSERT_TRUE(tracker.isQuarantined(node, 0));
  // One day of decay brings suspicion to 2.0 — under the entry threshold
  // but above the release level (1.5): still quarantined, no flapping.
  bool released = false;
  EXPECT_TRUE(tracker.isQuarantined(node, kDay, &released));
  EXPECT_FALSE(released);
  // At 1.4 days suspicion is 1.6: still held.
  EXPECT_TRUE(tracker.isQuarantined(node, kDay + 2 * kDay / 5, &released));
  EXPECT_FALSE(released);
  // At 1.6 days suspicion is 1.4 < 1.5: released, reported exactly once.
  EXPECT_FALSE(tracker.isQuarantined(node, kDay + 3 * kDay / 5, &released));
  EXPECT_TRUE(released);
  released = false;
  EXPECT_FALSE(tracker.isQuarantined(node, 2 * kDay, &released));
  EXPECT_FALSE(released);
  EXPECT_EQ(tracker.quarantinedCount(), 0u);
}

TEST(ReputationTracker, ReleasedNodeNeedsFullThresholdToReenter) {
  ReputationTracker tracker(defenseParams());
  const NodeId node{3};
  for (int i = 0; i < 3; ++i) {
    (void)tracker.addEvidence(node, EvidenceKind::kFailedVerification, 0);
  }
  ASSERT_TRUE(tracker.isQuarantined(node, 0));
  ASSERT_FALSE(tracker.isQuarantined(node, 2 * kDay));  // decayed to 1.0
  // A weak anomaly after release must not flip the node straight back.
  EXPECT_FALSE(tracker.addEvidence(node, EvidenceKind::kAckAnomaly, 2 * kDay));
  EXPECT_FALSE(tracker.isQuarantined(node, 2 * kDay));
  // Only a fresh climb to the full threshold re-quarantines.
  EXPECT_FALSE(
      tracker.addEvidence(node, EvidenceKind::kFailedVerification, 2 * kDay));
  EXPECT_TRUE(
      tracker.addEvidence(node, EvidenceKind::kFailedVerification, 2 * kDay));
  EXPECT_TRUE(tracker.isQuarantined(node, 2 * kDay));
}

TEST(ReputationTracker, UnknownNodesAreCleanAndFree) {
  ReputationTracker tracker(defenseParams());
  EXPECT_EQ(tracker.suspicion(NodeId{123}, kDay), 0.0);
  EXPECT_FALSE(tracker.isQuarantined(NodeId{123}, kDay));
  EXPECT_EQ(tracker.quarantinedCount(), 0u);
}

TEST(ReputationTracker, SaveLoadRoundTripsEntriesExactly) {
  ReputationTracker original(defenseParams());
  (void)original.addEvidence(NodeId{1}, EvidenceKind::kSummaryMismatch, kDay);
  for (int i = 0; i < 3; ++i) {
    (void)original.addEvidence(NodeId{6}, EvidenceKind::kFailedVerification,
                               kDay);
  }
  (void)original.addEvidence(NodeId{8}, EvidenceKind::kAckAnomaly, 2 * kDay);
  ASSERT_TRUE(original.isQuarantined(NodeId{6}, kDay));

  Serializer out;
  original.saveState(out);
  ReputationTracker restored(defenseParams());
  Deserializer in(out.bytes());
  restored.loadState(in);
  EXPECT_TRUE(in.done());

  for (std::uint32_t id : {1u, 6u, 8u, 99u}) {
    const NodeId node{id};
    EXPECT_DOUBLE_EQ(restored.suspicion(node, 2 * kDay),
                     original.suspicion(node, 2 * kDay))
        << "node " << id;
    EXPECT_EQ(restored.isQuarantined(node, 2 * kDay),
              original.isQuarantined(node, 2 * kDay))
        << "node " << id;
  }
  EXPECT_EQ(restored.quarantinedCount(), original.quarantinedCount());
  // Decay continues identically after restore.
  EXPECT_EQ(restored.isQuarantined(NodeId{6}, 4 * kDay),
            original.isQuarantined(NodeId{6}, 4 * kDay));
}

}  // namespace
}  // namespace hdtn::core
