#include "src/trace/trace_stats.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <unordered_map>

namespace hdtn::trace {

NodePair makePair(NodeId a, NodeId b) {
  return a < b ? NodePair{a, b} : NodePair{b, a};
}

TraceSummary summarize(const ContactTrace& trace) {
  TraceSummary s;
  s.nodeCount = trace.nodeCount();
  s.contactCount = trace.contactCount();
  s.span = trace.endTime();
  if (trace.empty()) return s;

  RunningStats duration, cliqueSize;
  std::vector<std::size_t> perNodeContacts(trace.nodeCount(), 0);
  for (const Contact& c : trace.contacts()) {
    duration.add(static_cast<double>(c.duration()));
    cliqueSize.add(static_cast<double>(c.members.size()));
    for (NodeId m : c.members) ++perNodeContacts[m.value];
  }
  s.meanContactDuration = duration.mean();
  s.meanCliqueSize = cliqueSize.mean();

  const double days =
      std::max(1.0, static_cast<double>(s.span) / static_cast<double>(kDay));
  RunningStats perDay;
  for (std::size_t n : perNodeContacts) {
    perDay.add(static_cast<double>(n) / days);
  }
  s.meanContactsPerNodePerDay = perDay.mean();

  SampleSet gaps = interContactTimes(trace);
  s.meanInterContactTime = gaps.count() ? gaps.mean() : 0.0;
  return s;
}

SampleSet interContactTimes(const ContactTrace& trace) {
  std::map<NodePair, std::vector<SimTime>> starts;
  for (const Contact& c : trace.contacts()) {
    for (std::size_t i = 0; i < c.members.size(); ++i) {
      for (std::size_t j = i + 1; j < c.members.size(); ++j) {
        starts[makePair(c.members[i], c.members[j])].push_back(c.start);
      }
    }
  }
  SampleSet gaps;
  for (auto& [pair, times] : starts) {
    std::sort(times.begin(), times.end());
    for (std::size_t i = 1; i < times.size(); ++i) {
      gaps.add(static_cast<double>(times[i] - times[i - 1]));
    }
  }
  return gaps;
}

std::vector<NodePair> frequentContactPairs(const ContactTrace& trace,
                                           Duration period) {
  const SimTime span = trace.endTime();
  if (span <= 0 || period <= 0) return {};
  // Number of full windows; a trailing partial window shorter than half the
  // period is ignored so that a trace of 3.2 days with a 1-day period needs
  // contacts in 3 windows, not 4.
  std::size_t windows = static_cast<std::size_t>(span / period);
  if (span % period >= period / 2 || windows == 0) ++windows;

  // One bit per window for every pair that met in some window: `slotOf`
  // maps the pair to its slot, and slot s owns covered[s * words, +words).
  const std::size_t words = (windows + 63) / 64;
  std::unordered_map<std::uint64_t, std::uint32_t> slotOf;
  std::vector<NodePair> pairs;
  std::vector<std::uint64_t> covered;
  std::vector<std::uint64_t> mask;  // the contact's window bits, by word
  for (const Contact& c : trace.contacts()) {
    const auto firstWindow = static_cast<std::size_t>(c.start / period);
    // A contact can straddle a window boundary; credit every overlapped one.
    const auto lastWindow = std::min(
        static_cast<std::size_t>((c.end - 1) / period), windows - 1);
    if (firstWindow > lastWindow) continue;
    const std::size_t firstWord = firstWindow / 64;
    mask.assign(lastWindow / 64 - firstWord + 1, ~std::uint64_t{0});
    mask.front() &= ~std::uint64_t{0} << (firstWindow % 64);
    mask.back() &= ~std::uint64_t{0} >> (63 - lastWindow % 64);
    for (std::size_t i = 0; i < c.members.size(); ++i) {
      for (std::size_t j = i + 1; j < c.members.size(); ++j) {
        const NodePair pair = makePair(c.members[i], c.members[j]);
        const std::uint64_t key =
            (std::uint64_t{pair.first.value} << 32) | pair.second.value;
        const auto [it, added] =
            slotOf.try_emplace(key, static_cast<std::uint32_t>(pairs.size()));
        if (added) {
          pairs.push_back(pair);
          covered.resize(covered.size() + words);
        }
        std::uint64_t* bits = covered.data() + it->second * words + firstWord;
        for (std::size_t w = 0; w < mask.size(); ++w) bits[w] |= mask[w];
      }
    }
  }
  std::vector<NodePair> out;
  for (std::size_t slot = 0; slot < pairs.size(); ++slot) {
    const std::uint64_t* bits = covered.data() + slot * words;
    std::size_t count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      count += static_cast<std::size_t>(std::popcount(bits[w]));
    }
    if (count == windows) out.push_back(pairs[slot]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<NodeId>> frequentContactLists(
    const ContactTrace& trace, Duration period) {
  std::vector<std::vector<NodeId>> lists(trace.nodeCount());
  for (const auto& [a, b] : frequentContactPairs(trace, period)) {
    lists[a.value].push_back(b);
    lists[b.value].push_back(a);
  }
  for (auto& l : lists) std::sort(l.begin(), l.end());
  return lists;
}

}  // namespace hdtn::trace
