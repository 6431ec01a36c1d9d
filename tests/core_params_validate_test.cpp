// EngineParams::validate(): one test per rejected configuration, plus the
// constructor contract (throws std::invalid_argument listing every problem).
#include "src/core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/trace/nus.hpp"

namespace hdtn::core {
namespace {

EngineParams validParams() {
  EngineParams params;
  params.frequentContactPeriod = kDay;
  return params;
}

// True when exactly one message mentions `field`.
bool singleErrorMentioning(const EngineParams& params, const char* field) {
  const auto errors = params.validate();
  return errors.size() == 1 &&
         errors.front().find(field) != std::string::npos;
}

TEST(EngineParamsValidate, AcceptsDefaults) {
  EXPECT_TRUE(validParams().validate().empty());
}

TEST(EngineParamsValidate, RejectsAccessFractionOutOfRange) {
  auto params = validParams();
  params.internetAccessFraction = 1.5;
  EXPECT_TRUE(singleErrorMentioning(params, "internetAccessFraction"));
  params.internetAccessFraction = -0.1;
  EXPECT_TRUE(singleErrorMentioning(params, "internetAccessFraction"));
  params.internetAccessFraction = std::nan("");
  EXPECT_TRUE(singleErrorMentioning(params, "internetAccessFraction"));
}

TEST(EngineParamsValidate, RejectsFreeRiderFractionOutOfRange) {
  auto params = validParams();
  params.freeRiderFraction = 2.0;
  EXPECT_TRUE(singleErrorMentioning(params, "freeRiderFraction"));
}

TEST(EngineParamsValidate, RejectsForgerFractionOutOfRange) {
  auto params = validParams();
  params.forgerFraction = -1.0;
  EXPECT_TRUE(singleErrorMentioning(params, "forgerFraction"));
}

TEST(EngineParamsValidate, RejectsNonPositiveFilesPerDay) {
  auto params = validParams();
  params.newFilesPerDay = 0;
  EXPECT_TRUE(singleErrorMentioning(params, "newFilesPerDay"));
}

TEST(EngineParamsValidate, RejectsNonPositiveTtl) {
  auto params = validParams();
  params.fileTtlDays = 0;
  EXPECT_TRUE(singleErrorMentioning(params, "fileTtlDays"));
}

TEST(EngineParamsValidate, RejectsNonPositiveMetadataBudget) {
  auto params = validParams();
  params.metadataPerContact = 0;
  EXPECT_TRUE(singleErrorMentioning(params, "metadataPerContact"));
}

TEST(EngineParamsValidate, RejectsNonPositiveFileBudget) {
  auto params = validParams();
  params.filesPerContact = -2;
  EXPECT_TRUE(singleErrorMentioning(params, "filesPerContact"));
}

TEST(EngineParamsValidate, RejectsZeroPiecesPerFile) {
  auto params = validParams();
  params.piecesPerFile = 0;
  EXPECT_TRUE(singleErrorMentioning(params, "piecesPerFile"));
}

TEST(EngineParamsValidate, RejectsNonPositiveFrequentContactPeriod) {
  auto params = validParams();
  params.frequentContactPeriod = 0;
  EXPECT_TRUE(singleErrorMentioning(params, "frequentContactPeriod"));
}

TEST(EngineParamsValidate, RejectsMisbehaverFractionsExceedingOne) {
  // Each fraction is valid alone, but both partition the *same* non-access
  // population: together they cannot exceed it.
  auto params = validParams();
  params.freeRiderFraction = 0.6;
  params.forgerFraction = 0.6;
  const auto errors = params.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("freeRiderFraction + forgerFraction"),
            std::string::npos);
}

TEST(EngineParamsValidate, AcceptsMisbehaverFractionsSummingToOne) {
  auto params = validParams();
  params.freeRiderFraction = 0.5;
  params.forgerFraction = 0.5;
  EXPECT_TRUE(params.validate().empty());
}

TEST(EngineParamsValidate, JointMisbehaverCheckSkippedWhenEitherInvalid) {
  // An out-of-range fraction already gets its own message; the joint check
  // must not pile a second (spurious) error on top.
  auto params = validParams();
  params.freeRiderFraction = 1.5;
  params.forgerFraction = 0.9;
  EXPECT_TRUE(singleErrorMentioning(params, "freeRiderFraction"));
}

TEST(EngineParamsValidate, RejectsBadFaultRates) {
  auto params = validParams();
  params.faults.messageLossRate = 1.5;
  EXPECT_TRUE(singleErrorMentioning(params, "faults.messageLossRate"));
  params = validParams();
  params.faults.pieceCorruptionRate = -0.1;
  EXPECT_TRUE(singleErrorMentioning(params, "faults.pieceCorruptionRate"));
  params = validParams();
  params.faults.churnDownFraction = 1.0;  // 1.0 would never be up
  EXPECT_TRUE(singleErrorMentioning(params, "faults.churnDownFraction"));
}

TEST(EngineParamsValidate, RejectsBadTruncationKeepBounds) {
  auto params = validParams();
  params.faults.contactTruncationRate = 0.5;
  params.faults.truncationKeepMin = 0.9;
  params.faults.truncationKeepMax = 0.1;
  EXPECT_TRUE(singleErrorMentioning(params, "truncationKeep"));
}

TEST(EngineParamsValidate, RejectsBadCodedKnobs) {
  auto params = validParams();
  params.coded.redundancy = 5.0;
  EXPECT_TRUE(singleErrorMentioning(params, "coded.redundancy"));
  params = validParams();
  params.coded.redundancy = -0.5;
  EXPECT_TRUE(singleErrorMentioning(params, "coded.redundancy"));
  params = validParams();
  params.coded.sparsity = 0.0;
  EXPECT_TRUE(singleErrorMentioning(params, "coded.sparsity"));
  params = validParams();
  params.coded.sparsity = 1.5;
  EXPECT_TRUE(singleErrorMentioning(params, "coded.sparsity"));
}

TEST(EngineParamsValidate, RejectsBadAdversaryKnobs) {
  auto params = validParams();
  params.adversary.byzantineFraction = 1.1;
  EXPECT_TRUE(singleErrorMentioning(params, "adversary.byzantineFraction"));
  params = validParams();
  params.adversary.byzantineFraction = -0.2;
  EXPECT_TRUE(singleErrorMentioning(params, "adversary.byzantineFraction"));
  params = validParams();
  params.adversary.attacks = 1u << 9;
  EXPECT_TRUE(singleErrorMentioning(params, "adversary.attacks"));
}

TEST(EngineParamsValidate, RejectsBadReputationKnobs) {
  auto params = validParams();
  params.reputation.quarantineThreshold = 0.0;
  EXPECT_TRUE(
      singleErrorMentioning(params, "reputation.quarantineThreshold"));
}

TEST(EngineParamsValidate, CollectsEveryViolationAtOnce) {
  auto params = validParams();
  params.internetAccessFraction = 7.0;
  params.newFilesPerDay = 0;
  params.fileTtlDays = -1;
  params.piecesPerFile = 0;
  EXPECT_EQ(params.validate().size(), 4u);
}

TEST(EngineParamsValidate, ConstructorThrowsWithEveryMessage) {
  trace::NusParams tp;
  tp.students = 10;
  tp.courses = 2;
  tp.coursesPerStudent = 1;
  tp.days = 1;
  tp.seed = 1;
  const auto trace = trace::generateNus(tp);
  auto params = validParams();
  params.internetAccessFraction = -0.5;
  params.metadataPerContact = 0;
  try {
    Engine engine(trace, params);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid EngineParams"), std::string::npos);
    EXPECT_NE(what.find("internetAccessFraction"), std::string::npos);
    EXPECT_NE(what.find("metadataPerContact"), std::string::npos);
  }
}

}  // namespace
}  // namespace hdtn::core
