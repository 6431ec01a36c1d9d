#include "src/trace/streaming.hpp"

namespace hdtn::trace {

const std::vector<std::uint32_t>& ContactStream::partitionHint() const {
  static const std::vector<std::uint32_t> kNone;
  return kNone;
}

std::optional<Contact> MaterializedStream::next() {
  const auto contacts = trace_->contacts();
  if (pos_ >= contacts.size()) return std::nullopt;
  return contacts[pos_++];
}

ContactTrace materialize(ContactStream& stream) {
  stream.reset();
  ContactTrace out(stream.name(), stream.nodeCount());
  while (auto contact = stream.next()) {
    out.addContact(*std::move(contact));
  }
  // Streams are already sorted; kept for the class invariant.
  out.sortByStart();
  return out;
}

}  // namespace hdtn::trace
