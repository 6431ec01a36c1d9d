#include "src/util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

namespace hdtn {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double RunningStats::mean() const { return n_ ? mean_ : 0.0; }

void SampleSet::add(double x) {
  if (!samples_.empty() && x < samples_.back()) sorted_ = false;
  samples_.push_back(x);
}

void SampleSet::ensureSorted() const {
  if (sorted_) return;
  auto& mutableSamples = const_cast<std::vector<double>&>(samples_);
  std::sort(mutableSamples.begin(), mutableSamples.end());
  sorted_ = true;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::quantile(double q) const {
  assert(!samples_.empty());
  ensureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  assert(hi > lo);
  assert(buckets > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::size_t>((x - lo_) / width);
  idx = std::min(idx, counts_.size() - 1);
  ++counts_[idx];
}

double Histogram::bucketLow(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bucketHigh(std::size_t i) const { return bucketLow(i + 1); }

std::string Histogram::render(int width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const int bar = static_cast<int>(static_cast<double>(counts_[i]) /
                                     static_cast<double>(peak) * width);
    char label[64];
    std::snprintf(label, sizeof(label), "[%10.3f, %10.3f) %8llu ",
                  bucketLow(i), bucketHigh(i),
                  static_cast<unsigned long long>(counts_[i]));
    out << label << std::string(static_cast<std::size_t>(bar), '#') << "\n";
  }
  if (underflow_ || overflow_) {
    out << "underflow " << underflow_ << ", overflow " << overflow_ << "\n";
  }
  return out.str();
}

}  // namespace hdtn
