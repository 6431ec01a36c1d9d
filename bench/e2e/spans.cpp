#include "bench/e2e/spans.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench/e2e/bench.hpp"

namespace hdtn::bench {

SpanRecorder::SpanRecorder() : origin_(nowSeconds()) {}

std::int64_t SpanRecorder::open(const char* name, std::int64_t parent,
                                std::uint64_t id) {
  const double now = nowSeconds();
  return add(name, now, now, parent, id);
}

void SpanRecorder::close(std::int64_t span) {
  spans_[static_cast<std::size_t>(span)].end = nowSeconds();
}

std::int64_t SpanRecorder::add(const char* name, double start, double end,
                               std::int64_t parent, std::uint64_t id) {
  spans_.push_back({name, start, end, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::write(const std::string& path,
                         const std::string& workload) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::fprintf(out.get(), "{\"workload\": \"%s\", \"spans\": [\n",
               workload.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out.get(),
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %lld, \"id\": %llu}%s\n",
                 s.name, s.start - origin_, s.end - origin_,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out.get(), "]}\n");
  if (std::ferror(out.get()) != 0) {
    throw std::runtime_error("I/O error writing " + path);
  }
}

StageObserver::StageObserver(SpanRecorder& spans, std::int64_t parent)
    : spans_(spans), parent_(parent) {}

void StageObserver::onEvent(const obs::SimEvent& event) {
  ++events_;
  switch (event.type) {
    case obs::SimEventType::kContactBegin:
      begin_ = nowSeconds();
      discovery_ = -1.0;
      download_ = -1.0;
      break;
    case obs::SimEventType::kDiscoveryPlanned:
      if (discovery_ < 0.0) discovery_ = nowSeconds();
      break;
    case obs::SimEventType::kDownloadPlanned:
      if (download_ < 0.0) download_ = nowSeconds();
      break;
    case obs::SimEventType::kContactEnd:
      closeContact(nowSeconds());
      break;
    case obs::SimEventType::kFilePublished:
      ++published_;
      break;
    default:
      break;
  }
}

void StageObserver::closeContact(double end) {
  ++contacts_;
  const double prePlanEnd =
      discovery_ >= 0.0 ? discovery_ : (download_ >= 0.0 ? download_ : end);
  prePlan_ += prePlanEnd - begin_;
  if (discovery_ >= 0.0) {
    metadata_ += (download_ >= 0.0 ? download_ : end) - discovery_;
  }
  if (download_ >= 0.0) piece_ += end - download_;
  const std::int64_t contact =
      spans_.add("contact", begin_, end, parent_, contacts_);
  spans_.add("pre_plan", begin_, prePlanEnd, contact, contacts_);
  if (discovery_ >= 0.0) {
    spans_.add("metadata", discovery_, download_ >= 0.0 ? download_ : end,
               contact, contacts_);
  }
  if (download_ >= 0.0) {
    spans_.add("piece", download_, end, contact, contacts_);
  }
}

}  // namespace hdtn::bench
