// Contact traces.
//
// A DTN is described by its contacts: windows of time during which a set of
// nodes can communicate (the space-time-graph view of a DTN, paper Section
// II-A). We represent both trace families the paper evaluates on with one
// type:
//   * pairwise traces (UMassDieselNet): every contact has exactly 2 members;
//   * clique traces (NUS student trace): a contact is a classroom session
//     and all attendees form one clique.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/util/types.hpp"

namespace hdtn::trace {

/// One contact: all `members` can hear each other during [start, end).
struct Contact {
  SimTime start = 0;
  SimTime end = 0;
  std::vector<NodeId> members;

  [[nodiscard]] Duration duration() const { return end - start; }
  [[nodiscard]] bool isPairwise() const { return members.size() == 2; }

  friend bool operator==(const Contact&, const Contact&) = default;
};

/// An ordered collection of contacts plus the node universe.
class ContactTrace {
 public:
  ContactTrace() = default;
  ContactTrace(std::string name, std::size_t nodeCount);

  /// Appends a contact. Members are sorted and deduplicated; contacts with
  /// fewer than two distinct members or non-positive duration are rejected.
  /// Returns false when rejected.
  bool addContact(Contact contact);

  /// Sorts contacts by (start, end, members); call once after building.
  void sortByStart();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t nodeCount() const { return nodeCount_; }
  void setNodeCount(std::size_t n) { nodeCount_ = n; }
  [[nodiscard]] std::span<const Contact> contacts() const { return contacts_; }
  [[nodiscard]] std::size_t contactCount() const { return contacts_.size(); }
  [[nodiscard]] bool empty() const { return contacts_.empty(); }

  /// Time of the last contact end (0 for an empty trace).
  [[nodiscard]] SimTime endTime() const;

  /// True if every contact is pairwise.
  [[nodiscard]] bool isPairwiseOnly() const;

  /// All node ids, ascending. Derived from nodeCount: ids are [0, n).
  [[nodiscard]] std::vector<NodeId> allNodes() const;

 private:
  std::string name_ = "trace";
  std::size_t nodeCount_ = 0;
  std::vector<Contact> contacts_;
};

}  // namespace hdtn::trace
