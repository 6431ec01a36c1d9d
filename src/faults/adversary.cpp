#include "src/faults/adversary.hpp"

#include <array>

namespace hdtn::faults {

namespace {

// Distinct fork salts so every attack class owns an independent stream:
// enabling ack spoofing can never change which coded frames get polluted.
constexpr std::uint64_t kPollutionSalt = 1;
constexpr std::uint64_t kPieceLieSalt = 2;
constexpr std::uint64_t kSummarySalt = 3;
constexpr std::uint64_t kAckSpoofSalt = 4;
constexpr std::uint64_t kCoordinatorSalt = 5;

// Per-opportunity attack probabilities. Byzantine nodes are aggressive but
// not perfectly so — an attacker that defects on every opportunity is
// trivially fingerprinted; these rates are high enough to collapse an
// undefended run while leaving honest-looking gaps.
constexpr double kPollutionRate = 0.75;
constexpr double kPieceLieRate = 0.75;
constexpr double kFalseSummaryRate = 0.8;
constexpr double kBroadcastDropRate = 0.5;
constexpr std::uint32_t kMaxSpoofedClaims = 3;

struct AttackName {
  AttackKind kind;
  const char* name;
};

constexpr AttackName kAttackNames[] = {
    {AttackKind::kPollution, "pollution"},
    {AttackKind::kPieceLie, "piece-lie"},
    {AttackKind::kFalseSummary, "false-summary"},
    {AttackKind::kAckSpoof, "ack-spoof"},
    {AttackKind::kCoordinator, "coordinator"},
};

}  // namespace

bool parseAttackMask(const std::string& text, std::uint32_t* mask,
                     std::string* error) {
  std::uint32_t out = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    // Trim surrounding spaces so "pollution, ack-spoof" parses.
    std::size_t begin = pos, end = comma;
    while (begin < end && text[begin] == ' ') ++begin;
    while (end > begin && text[end - 1] == ' ') --end;
    const std::string token = text.substr(begin, end - begin);
    pos = comma + 1;
    if (token.empty()) {
      if (comma == text.size()) break;
      continue;
    }
    if (token == "all") {
      out |= kAllAttacks;
      continue;
    }
    if (token == "none") continue;
    bool found = false;
    for (const AttackName& entry : kAttackNames) {
      if (token == entry.name) {
        out |= static_cast<std::uint32_t>(entry.kind);
        found = true;
        break;
      }
    }
    if (!found) {
      if (error) *error = token;
      return false;
    }
  }
  *mask = out;
  return true;
}

std::string attackMaskName(std::uint32_t mask) {
  if (mask == 0) return "none";
  if ((mask & kAllAttacks) == kAllAttacks) return "all";
  std::string out;
  for (const AttackName& entry : kAttackNames) {
    if ((mask & static_cast<std::uint32_t>(entry.kind)) == 0) continue;
    if (!out.empty()) out += ',';
    out += entry.name;
  }
  return out;
}

AdversaryPlan::AdversaryPlan(const AdversaryParams& params, Rng rng)
    : params_(params),
      pollutionRng_(rng.fork(kPollutionSalt)),
      pieceLieRng_(rng.fork(kPieceLieSalt)),
      summaryRng_(rng.fork(kSummarySalt)),
      ackSpoofRng_(rng.fork(kAckSpoofSalt)),
      coordinatorRng_(rng.fork(kCoordinatorSalt)) {}

void AdversaryPlan::setByzantine(const std::vector<NodeId>& nodes,
                                 std::size_t nodeCount) {
  byzantine_.assign(nodeCount, 0);
  byzantineCount_ = 0;
  for (NodeId node : nodes) {
    if (node.value >= byzantine_.size()) continue;
    if (byzantine_[node.value] == 0) ++byzantineCount_;
    byzantine_[node.value] = 1;
  }
}

bool AdversaryPlan::pollutesFrame() {
  return pollutionRng_.chance(kPollutionRate);
}

bool AdversaryPlan::liesAboutPiece() {
  return pieceLieRng_.chance(kPieceLieRate);
}

bool AdversaryPlan::forgesSummary() {
  return summaryRng_.chance(kFalseSummaryRate);
}

std::uint32_t AdversaryPlan::spoofedAckClaims() {
  return static_cast<std::uint32_t>(
      ackSpoofRng_.pickIndex(kMaxSpoofedClaims + 1));
}

bool AdversaryPlan::dropsPlannedBroadcast() {
  return coordinatorRng_.chance(kBroadcastDropRate);
}

namespace {

void saveRng(Serializer& out, const Rng& rng) {
  for (std::uint64_t word : rng.state()) out.u64(word);
}

void loadRng(Deserializer& in, Rng& rng) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = in.u64();
  rng.setState(state);
}

}  // namespace

void AdversaryPlan::saveState(Serializer& out) const {
  saveRng(out, pollutionRng_);
  saveRng(out, pieceLieRng_);
  saveRng(out, summaryRng_);
  saveRng(out, ackSpoofRng_);
  saveRng(out, coordinatorRng_);
}

void AdversaryPlan::loadState(Deserializer& in) {
  loadRng(in, pollutionRng_);
  loadRng(in, pieceLieRng_);
  loadRng(in, summaryRng_);
  loadRng(in, ackSpoofRng_);
  loadRng(in, coordinatorRng_);
}

}  // namespace hdtn::faults
