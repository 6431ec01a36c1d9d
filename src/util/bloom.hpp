// Bloom filter.
//
// Epidemic DTN routing exchanges *summary vectors* — compact encodings of
// "which messages I carry" — before transferring anything (Vahdat &
// Becker). A Bloom filter is the classic realization: set membership with
// no false negatives and a tunable false-positive rate; a false positive
// makes a peer skip a message the other side actually lacks. The routing
// substrate exposes this as an optional fidelity knob.
#pragma once

#include <cstdint>
#include <vector>

namespace hdtn {

class BloomFilter {
 public:
  /// `bits` cells and `hashes` probes per element. bits is rounded up to a
  /// multiple of 64.
  BloomFilter(std::size_t bits, int hashes);

  /// Sizes the filter for `expectedElements` at the target false-positive
  /// rate using the standard optimum (m = -n ln p / ln^2 2, k = m/n ln 2).
  static BloomFilter forCapacity(std::size_t expectedElements,
                                 double falsePositiveRate);

  void insert(std::uint64_t key);
  /// No false negatives; false positives at roughly the design rate.
  [[nodiscard]] bool mayContain(std::uint64_t key) const;

  [[nodiscard]] std::size_t bitCount() const { return words_.size() * 64; }
  [[nodiscard]] int hashCount() const { return hashes_; }

 private:
  [[nodiscard]] std::uint64_t probe(std::uint64_t key, int i) const;

  std::vector<std::uint64_t> words_;
  int hashes_;
};

}  // namespace hdtn
