#include "src/trace/contact_trace.hpp"

#include <algorithm>

namespace hdtn::trace {

ContactTrace::ContactTrace(std::string name, std::size_t nodeCount)
    : name_(std::move(name)), nodeCount_(nodeCount) {}

bool ContactTrace::addContact(Contact contact) {
  std::sort(contact.members.begin(), contact.members.end());
  contact.members.erase(
      std::unique(contact.members.begin(), contact.members.end()),
      contact.members.end());
  if (contact.members.size() < 2) return false;
  if (contact.end <= contact.start) return false;
  for (NodeId m : contact.members) {
    if (m.value >= nodeCount_) nodeCount_ = m.value + 1;
  }
  contacts_.push_back(std::move(contact));
  return true;
}

void ContactTrace::sortByStart() {
  std::sort(contacts_.begin(), contacts_.end(),
            [](const Contact& a, const Contact& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.end != b.end) return a.end < b.end;
              return a.members < b.members;
            });
}

SimTime ContactTrace::endTime() const {
  SimTime latest = 0;
  for (const Contact& c : contacts_) latest = std::max(latest, c.end);
  return latest;
}

bool ContactTrace::isPairwiseOnly() const {
  return std::all_of(contacts_.begin(), contacts_.end(),
                     [](const Contact& c) { return c.isPairwise(); });
}

std::vector<NodeId> ContactTrace::allNodes() const {
  std::vector<NodeId> out;
  out.reserve(nodeCount_);
  for (std::uint32_t i = 0; i < nodeCount_; ++i) out.emplace_back(i);
  return out;
}

}  // namespace hdtn::trace
