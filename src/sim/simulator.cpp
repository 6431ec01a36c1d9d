#include "src/sim/simulator.hpp"

#include <memory>

namespace hdtn::sim {

void Simulator::after(Duration delay, EventFn fn) {
  queue_.schedule(now() + delay, std::move(fn));
}

void Simulator::every(SimTime first, Duration period,
                      std::function<void(SimTime)> fn) {
  // The recurring closure reschedules itself while within the run horizon.
  auto task = std::make_shared<std::function<void(SimTime)>>(std::move(fn));
  struct Recur {
    Simulator* sim;
    std::shared_ptr<std::function<void(SimTime)>> task;
    Duration period;
    void operator()() const {
      (*task)(sim->now());
      const SimTime next = sim->now() + period;
      if (next < sim->horizon_) {
        sim->queue_.schedule(next, Recur{sim, task, period});
      }
    }
  };
  queue_.schedule(first, Recur{this, task, period});
}

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
  horizon_ = horizon;
  while (!queue_.empty() && queue_.nextTime() < horizon) {
    queue_.runNext();
    ++executed_;
  }
  horizon_ = kTimeInfinity;
}

}  // namespace hdtn::sim
