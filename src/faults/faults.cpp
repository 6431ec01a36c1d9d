#include "src/faults/faults.hpp"

#include <algorithm>
#include <cmath>

namespace hdtn::faults {

namespace {

// Distinct fork salts so every fault class owns an independent stream:
// enabling corruption can never change which messages drop or when a node
// churns off.
constexpr std::uint64_t kTruncationSalt = 1;
constexpr std::uint64_t kLossSalt = 2;
constexpr std::uint64_t kCorruptionSalt = 3;
constexpr std::uint64_t kChurnSalt = 4;

}  // namespace

bool FaultParams::enabled() const {
  return messageLossRate > 0.0 || contactTruncationRate > 0.0 ||
         pieceCorruptionRate > 0.0 || churnDownFraction > 0.0;
}

FaultPlan::FaultPlan(const FaultParams& params, Rng rng,
                     std::size_t nodeCount, SimTime horizon)
    : params_(params),
      truncationRng_(rng.fork(kTruncationSalt)),
      lossRng_(rng.fork(kLossSalt)),
      corruptionRng_(rng.fork(kCorruptionSalt)) {
  const double f = params_.churnDownFraction;
  if (f <= 0.0 || nodeCount == 0 || horizon <= 0) return;
  // Alternating renewal process per node: up ~ Exp(meanUp),
  // down ~ Exp(meanDown), with meanUp chosen so the long-run down fraction
  // is churnDownFraction.
  Rng churnRng = rng.fork(kChurnSalt);
  const double meanDown = static_cast<double>(params_.churnMeanDowntime);
  const double meanUp = meanDown * (1.0 - f) / f;
  down_.resize(nodeCount);
  for (auto& intervals : down_) {
    double t = churnRng.exponential(meanUp);
    while (t < static_cast<double>(horizon)) {
      const double len = std::max(1.0, churnRng.exponential(meanDown));
      const SimTime start = static_cast<SimTime>(t);
      const SimTime end =
          std::min<SimTime>(horizon, start + static_cast<SimTime>(len));
      if (end > start) {
        intervals.push_back({start, end});
        ++totalDownIntervals_;
      }
      t = static_cast<double>(end) + churnRng.exponential(meanUp);
    }
  }
}

double FaultPlan::contactKeepFactor() {
  if (params_.contactTruncationRate <= 0.0) return 1.0;
  if (!truncationRng_.chance(params_.contactTruncationRate)) return 1.0;
  return truncationRng_.uniform(params_.truncationKeepMin,
                                params_.truncationKeepMax);
}

bool FaultPlan::dropMessage() {
  if (params_.messageLossRate <= 0.0) return false;
  return lossRng_.chance(params_.messageLossRate);
}

bool FaultPlan::corruptPiece() {
  if (params_.pieceCorruptionRate <= 0.0) return false;
  return corruptionRng_.chance(params_.pieceCorruptionRate);
}

bool FaultPlan::isDown(NodeId node, SimTime now) const {
  if (node.value >= down_.size()) return false;
  const auto& intervals = down_[node.value];
  // Last interval starting at or before `now`.
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), now,
      [](SimTime t, const DownInterval& iv) { return t < iv.start; });
  if (it == intervals.begin()) return false;
  --it;
  return now < it->end;
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

void FaultPlan::saveState(Serializer& out) const {
  saveRng(out, truncationRng_);
  saveRng(out, lossRng_);
  saveRng(out, corruptionRng_);
}

void FaultPlan::loadState(Deserializer& in) {
  loadRng(in, truncationRng_);
  loadRng(in, lossRng_);
  loadRng(in, corruptionRng_);
}

const std::vector<FaultPlan::DownInterval>& FaultPlan::downIntervals(
    NodeId node) const {
  static const std::vector<DownInterval> kEmpty;
  if (node.value >= down_.size()) return kEmpty;
  return down_[node.value];
}

}  // namespace hdtn::faults
