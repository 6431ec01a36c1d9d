// Flat-array helpers shared by the contact planners: merging sorted runs
// (each member's store is a sorted run, so the union of a clique's stores is
// a k-way merge, not a sort) and bitmask rows over a contact's members.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hdtn::core {

inline void setBit(std::uint64_t* row, std::size_t i) {
  row[i / 64] |= std::uint64_t{1} << (i % 64);
}

inline bool testBit(const std::uint64_t* row, std::size_t i) {
  return (row[i / 64] >> (i % 64)) & 1;
}

/// Calls fn(i) for every set bit i of a `words`-word row, ascending.
template <typename Fn>
void forEachBit(const std::uint64_t* row, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

/// Sorts `items`, whose runs [bounds[r], bounds[r+1]) are each sorted by
/// `less`, by merging adjacent runs pairwise until one is left:
/// O(n log runs) moves. `bounds` starts at 0 and ends at items.size();
/// `buffer` is working storage. Both come back clobbered.
template <typename T, typename Less>
void mergeSortedRuns(std::vector<T>& items, std::vector<std::size_t>& bounds,
                     std::vector<T>& buffer, Less less) {
  while (bounds.size() > 2) {
    buffer.resize(items.size());
    std::size_t kept = 0;
    std::size_t r = 0;
    for (; r + 2 < bounds.size(); r += 2) {
      std::merge(items.begin() + static_cast<std::ptrdiff_t>(bounds[r]),
                 items.begin() + static_cast<std::ptrdiff_t>(bounds[r + 1]),
                 items.begin() + static_cast<std::ptrdiff_t>(bounds[r + 1]),
                 items.begin() + static_cast<std::ptrdiff_t>(bounds[r + 2]),
                 buffer.begin() + static_cast<std::ptrdiff_t>(bounds[r]),
                 less);
      bounds[kept++] = bounds[r];
    }
    if (r + 2 == bounds.size()) {
      // An odd run out: carried over as it is.
      std::copy(items.begin() + static_cast<std::ptrdiff_t>(bounds[r]),
                items.begin() + static_cast<std::ptrdiff_t>(bounds[r + 1]),
                buffer.begin() + static_cast<std::ptrdiff_t>(bounds[r]));
      bounds[kept++] = bounds[r];
    }
    bounds[kept++] = items.size();
    bounds.resize(kept);
    items.swap(buffer);
  }
}

}  // namespace hdtn::core
