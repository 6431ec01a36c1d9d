#include "src/sim/simulator.hpp"

namespace hdtn::sim {

bool Simulator::runOne() {
  if (!queue_.runNext()) return false;
  ++executed_;
  return true;
}

bool Simulator::skipOne() {
  if (!queue_.discardNext()) return false;
  ++executed_;
  return true;
}

void Simulator::runUntil(SimTime horizon) {
  while (!queue_.empty() && queue_.nextTime() < horizon) {
    queue_.runNext();
    ++executed_;
  }
}

}  // namespace hdtn::sim
