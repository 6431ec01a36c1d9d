// Streaming statistics accumulators used by trace analysis, metrics, and
// benchmark reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hdtn {

/// Online mean (Welford's update) and sum. O(1) space.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
};

/// Retains all samples; supports exact quantiles. Use for modest sample
/// counts (trace statistics, per-run metrics).
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  /// Linear-interpolated quantile, q in [0, 1]. Requires non-empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void ensureSorted() const;

  std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-width histogram over [lo, hi) with overflow/underflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  [[nodiscard]] std::size_t bucketCount() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double bucketLow(std::size_t i) const;
  [[nodiscard]] double bucketHigh(std::size_t i) const;

  /// Multi-line ASCII rendering, widest bucket = `width` characters.
  [[nodiscard]] std::string render(int width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace hdtn
