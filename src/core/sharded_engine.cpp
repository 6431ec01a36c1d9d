#include "src/core/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "src/core/checkpoint.hpp"
#include "src/util/parallel.hpp"
#include "src/util/serialize.hpp"
#include "src/util/sha1.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::core {

namespace {

/// Salt deriving the shared publication stream from the run seed
/// ("publish"). Every component engine receives the identical publish seed.
constexpr std::uint64_t kPublishSalt = 0x7075626c69736800ull;

/// Label given to the pooled isolated-node component by union-find
/// partitioning.
constexpr std::uint32_t kIsolatedLabel = 0xffffffffu;

/// splitmix64-style stateless mix: component seeds derive from the run seed
/// and the component's smallest global node id without consuming any draws
/// from a parent stream (Rng::fork would make seeds order-dependent).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Union-find with path halving; unions by smaller root index so the final
/// root of every set is its smallest member.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = static_cast<std::uint32_t>(i);
    }
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent_[b] = a;
    touched_[a] = true;
    touched_[b] = true;
  }

  void noteContactMember(std::uint32_t x) { touched_[x] = true; }

  /// One label per node: the set's root, except nodes that never appeared
  /// in a contact, which all share kIsolatedLabel (pooled into one
  /// component so a sparse trace does not spawn thousands of single-node
  /// engines).
  [[nodiscard]] std::vector<std::uint32_t> labels() {
    std::vector<std::uint32_t> out(parent_.size());
    for (std::uint32_t i = 0; i < parent_.size(); ++i) {
      out[i] = touched_.contains(i) ? find(i) : kIsolatedLabel;
    }
    return out;
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::unordered_map<std::uint32_t, bool> touched_;
};

void uniteContact(UnionFind& uf, const trace::Contact& contact,
                  std::size_t nodeCount) {
  const std::uint32_t first = contact.members.front().value;
  for (const NodeId member : contact.members) {
    if (member.value >= nodeCount) {
      throw std::invalid_argument(
          "ShardedEngine: contact member " + std::to_string(member.value) +
          " is outside the node universe of " + std::to_string(nodeCount));
    }
    uf.noteContactMember(member.value);
    uf.unite(first, member.value);
  }
}

struct ReportAccumulator {
  DeliveryReport out;
  double metadataDelaySum = 0.0;
  double fileDelaySum = 0.0;

  void add(const DeliveryReport& r) {
    out.queries += r.queries;
    out.metadataDelivered += r.metadataDelivered;
    out.filesDelivered += r.filesDelivered;
    metadataDelaySum += r.meanMetadataDelaySeconds *
                        static_cast<double>(r.metadataDelivered);
    fileDelaySum +=
        r.meanFileDelaySeconds * static_cast<double>(r.filesDelivered);
  }

  [[nodiscard]] DeliveryReport result() const {
    DeliveryReport r = out;
    if (r.queries > 0) {
      r.metadataRatio = static_cast<double>(r.metadataDelivered) /
                        static_cast<double>(r.queries);
      r.fileRatio = static_cast<double>(r.filesDelivered) /
                    static_cast<double>(r.queries);
    }
    if (r.metadataDelivered > 0) {
      r.meanMetadataDelaySeconds =
          metadataDelaySum / static_cast<double>(r.metadataDelivered);
    }
    if (r.filesDelivered > 0) {
      r.meanFileDelaySeconds =
          fileDelaySum / static_cast<double>(r.filesDelivered);
    }
    return r;
  }
};

void addTotals(EngineTotals& into, const EngineTotals& t) {
  EngineTotalsWords sum = totalsWords(into);
  const EngineTotalsWords part = totalsWords(t);
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += part[i];
  into = totalsFromWords(sum);
}

/// Merges per-component results in canonical component order (the caller
/// passes them indexed by component), so the merged doubles are identical at
/// every shards/threads setting.
EngineResult mergeResults(const std::vector<EngineResult>& parts) {
  ReportAccumulator delivery;
  ReportAccumulator access;
  ReportAccumulator contributor;
  ReportAccumulator freeRider;
  EngineResult merged;
  for (const EngineResult& part : parts) {
    delivery.add(part.delivery);
    access.add(part.accessDelivery);
    contributor.add(part.contributorDelivery);
    freeRider.add(part.freeRiderDelivery);
    addTotals(merged.totals, part.totals);
  }
  merged.delivery = delivery.result();
  merged.accessDelivery = access.result();
  merged.contributorDelivery = contributor.result();
  merged.freeRiderDelivery = freeRider.result();
  return merged;
}

}  // namespace

std::vector<std::string> ShardedParams::validate() const {
  std::vector<std::string> errors;
  if (shards < 1) errors.emplace_back("shards must be >= 1");
  return errors;
}

ShardedEngine::ShardedEngine(const trace::ContactTrace& trace,
                             ShardedParams params)
    : params_(std::move(params)) {
  const std::vector<std::string> errors = params_.validate();
  if (!errors.empty()) {
    throw std::invalid_argument("invalid ShardedParams: " +
                                join(errors, "; "));
  }
  const std::size_t n = trace.nodeCount();
  if (n == 0) {
    throw std::invalid_argument("ShardedEngine: empty node universe");
  }
  globalEnd_ = trace.endTime();

  UnionFind uf(n);
  for (const trace::Contact& contact : trace.contacts()) {
    uniteContact(uf, contact, n);
  }
  buildComponents(n, uf.labels());

  for (Component& c : components_) {
    c.trace = trace::ContactTrace(trace.name(), c.globalIds.size());
  }
  for (const trace::Contact& contact : trace.contacts()) {
    trace::Contact local;
    const std::uint32_t ci = remapContact(contact, &local);
    components_[ci].trace.addContact(std::move(local));
  }
  buildEngines();
}

ShardedEngine::ShardedEngine(trace::ContactStream& stream,
                             ShardedParams params)
    : params_(std::move(params)), stream_(&stream), streaming_(true) {
  const std::vector<std::string> errors = params_.validate();
  if (!errors.empty()) {
    throw std::invalid_argument("invalid ShardedParams: " +
                                join(errors, "; "));
  }
  const std::size_t n = stream.nodeCount();
  if (n == 0) {
    throw std::invalid_argument("ShardedEngine: empty node universe");
  }
  globalEnd_ = stream.endTime();

  std::vector<std::uint32_t> labels;
  if (!stream.partitionHint().empty()) {
    if (stream.partitionHint().size() != n) {
      throw std::invalid_argument(
          "ShardedEngine: the stream's partition hint has " +
          std::to_string(stream.partitionHint().size()) + " labels for " +
          std::to_string(n) + " nodes");
    }
    labels = stream.partitionHint();
  } else {
    // No hint: one discovery pass over the stream, then rewind.
    stream.reset();
    UnionFind uf(n);
    while (const std::optional<trace::Contact> contact = stream.next()) {
      uniteContact(uf, *contact, n);
    }
    labels = uf.labels();
  }
  buildComponents(n, labels);

  for (Component& c : components_) {
    // Contact-less placeholder: the node universe for Engine feed mode.
    c.trace = trace::ContactTrace(stream.name(), c.globalIds.size());
  }
  buildEngines();
  stream_->reset();
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::buildComponents(std::size_t nodeCount,
                                    const std::vector<std::uint32_t>& labels) {
  componentOf_.assign(nodeCount, 0);
  localId_.assign(nodeCount, 0);
  // Iterating node ids ascending and appending a component at each label's
  // first occurrence yields the canonical order for free: components sorted
  // by smallest global node id, with ascending globalIds inside each.
  std::unordered_map<std::uint32_t, std::uint32_t> byLabel;
  for (std::uint32_t i = 0; i < nodeCount; ++i) {
    const auto [it, fresh] = byLabel.try_emplace(
        labels[i], static_cast<std::uint32_t>(components_.size()));
    if (fresh) components_.emplace_back();
    Component& c = components_[it->second];
    componentOf_[i] = it->second;
    localId_[i] = static_cast<std::uint32_t>(c.globalIds.size());
    c.globalIds.emplace_back(i);
  }
}

void ShardedEngine::buildEngines() {
  const std::vector<NodeId>& explicitAccess =
      params_.engine.explicitAccessNodes;
  const std::uint64_t publishSeed = mixSeed(params_.engine.seed, kPublishSalt);
  for (std::size_t index = 0; index < components_.size(); ++index) {
    Component& c = components_[index];
    EngineParams ep = params_.engine;
    ep.seed = mixSeed(params_.engine.seed, c.globalIds.front().value);
    ep.explicitAccessNodes.clear();
    for (const NodeId id : explicitAccess) {
      if (id.value < componentOf_.size() && componentOf_[id.value] == index) {
        ep.explicitAccessNodes.emplace_back(localId_[id.value]);
      }
    }
    // An explicit global assignment that names none of this component's
    // nodes must not fall back to fractional assignment.
    if (!explicitAccess.empty() && ep.explicitAccessNodes.empty()) {
      ep.internetAccessFraction = 0.0;
      ep.freeRiderFraction = 0.0;
    }
    c.engine = std::make_unique<Engine>(c.trace, ep);
    c.engine->usePublishStream(publishSeed);
    c.engine->setPublishHorizon(globalEnd_);
    if (streaming_) c.engine->beginFeed();
  }
  const std::size_t groupCount = std::max<std::size_t>(
      1, std::min<std::size_t>(params_.shards, components_.size()));
  groups_.assign(groupCount, {});
  for (std::size_t i = 0; i < components_.size(); ++i) {
    groups_[i % groupCount].push_back(static_cast<std::uint32_t>(i));
  }
}

std::uint32_t ShardedEngine::remapContact(const trace::Contact& contact,
                                          trace::Contact* local) const {
  const std::uint32_t ci = componentOf_[contact.members.front().value];
  local->start = contact.start;
  local->end = contact.end;
  local->members.clear();
  local->members.reserve(contact.members.size());
  for (const NodeId member : contact.members) {
    if (member.value >= componentOf_.size() ||
        componentOf_[member.value] != ci) {
      throw std::invalid_argument(
          "ShardedEngine: contact at t=" + std::to_string(contact.start) +
          " spans partition components (node " +
          std::to_string(member.value) +
          " is not in the component of node " +
          std::to_string(contact.members.front().value) + ")");
    }
    local->members.emplace_back(localId_[member.value]);
  }
  return ci;
}

void ShardedEngine::pullContacts(SimTime horizon) {
  while (true) {
    if (!pending_.has_value()) {
      pending_ = stream_->next();
      if (!pending_.has_value()) return;
    }
    if (pending_->start >= horizon) return;
    trace::Contact local;
    const std::uint32_t ci = remapContact(*pending_, &local);
    components_[ci].feedBucket.push_back(std::move(local));
    pending_.reset();
  }
}

void ShardedEngine::throwIfFinished(const char* what) const {
  if (finished_) {
    throw std::logic_error(
        std::string(what) +
        ": the simulation already ran to completion and returned its "
        "result; construct a fresh ShardedEngine to run again");
  }
}

unsigned ShardedEngine::threadCount() const {
  return params_.threads == 0 ? defaultThreadCount() : params_.threads;
}

void ShardedEngine::runUntil(SimTime horizon) {
  throwIfFinished("ShardedEngine::runUntil");
  if (streaming_) pullContacts(horizon);
  parallelFor(groups_.size(), threadCount(), [&](std::size_t g) {
    for (const std::uint32_t ci : groups_[g]) {
      Component& c = components_[ci];
      for (const trace::Contact& contact : c.feedBucket) {
        c.engine->feedContact(contact);
        ++c.contactsFed;
      }
      // Release the bucket: an epoch's pull can be the whole stream.
      std::vector<trace::Contact>().swap(c.feedBucket);
      c.engine->runUntil(horizon);
    }
  });
  if (horizon > epoch_) epoch_ = horizon;
}

EngineResult ShardedEngine::finish() {
  throwIfFinished("ShardedEngine::finish (or run)");
  if (streaming_) pullContacts(kTimeInfinity);
  std::vector<EngineResult> results(components_.size());
  parallelFor(groups_.size(), threadCount(), [&](std::size_t g) {
    for (const std::uint32_t ci : groups_[g]) {
      Component& c = components_[ci];
      for (const trace::Contact& contact : c.feedBucket) {
        c.engine->feedContact(contact);
        ++c.contactsFed;
      }
      // Release the bucket: an epoch's pull can be the whole stream.
      std::vector<trace::Contact>().swap(c.feedBucket);
      results[ci] = c.engine->finish();
    }
  });
  finished_ = true;
  epoch_ = globalEnd_;
  return mergeResults(results);
}

EngineResult ShardedEngine::run() { return finish(); }

EngineResult ShardedEngine::currentResult() const {
  std::vector<EngineResult> results;
  results.reserve(components_.size());
  for (const Component& c : components_) {
    results.push_back(c.engine->currentResult());
  }
  return mergeResults(results);
}

Sha1Digest ShardedEngine::shardedFingerprint() const {
  Serializer s;
  s.boolean(streaming_);
  s.u64(componentOf_.size());
  s.i64(globalEnd_);
  s.u64(components_.size());
  // Each component fingerprint covers its params (with the derived seed)
  // and sub-trace identity — for materialized components, every contact.
  // Streaming contact content is not covered here; the replay in
  // restoreCheckpoint verifies per-component fed-contact counts instead.
  for (const Component& c : components_) {
    const Sha1Digest digest = c.engine->configFingerprint();
    s.raw(digest.bytes.data(), digest.bytes.size());
  }
  return Sha1::hash(s.bytes());
}

void ShardedEngine::saveCheckpoint(const std::string& path,
                                   std::string_view extra) const {
  if (finished_) {
    throw std::logic_error(
        "ShardedEngine::saveCheckpoint: the run already finished; there is "
        "nothing left to resume");
  }
  detail::writeCheckpointFile(
      path, detail::EnvelopeKind::kSharded, &checkpointSizeHint_,
      [&](Serializer& payload) {
        payload.i64(epoch_);
        payload.str(extra);
        const Sha1Digest fingerprint = shardedFingerprint();
        payload.raw(fingerprint.bytes.data(), fingerprint.bytes.size());
        payload.u64(components_.size());
        for (const Component& c : components_) {
          payload.u64(c.engine->sim_.executedEvents());
          payload.i64(c.engine->sim_.now());
          payload.u64(c.contactsFed);
          c.engine->saveComponentState(payload);
        }
      });
}

void ShardedEngine::restoreCheckpoint(const std::string& path) {
  if (finished_ || epoch_ != 0) {
    throw std::logic_error(
        "ShardedEngine::restoreCheckpoint requires a freshly constructed "
        "engine (same trace/stream and params, not yet advanced)");
  }
  for (const Component& c : components_) {
    if (c.engine->sim_.executedEvents() != 0 || c.contactsFed != 0) {
      throw std::logic_error(
          "ShardedEngine::restoreCheckpoint requires a freshly constructed "
          "engine (same trace/stream and params, not yet advanced)");
    }
  }

  const detail::CheckpointFile file =
      detail::readCheckpointFile(path, detail::EnvelopeKind::kSharded);
  try {
    Deserializer in(file.payload());
    const SimTime savedEpoch = in.i64();
    in.str();  // caller extra blob: not interpreted here
    Sha1Digest fingerprint;
    in.raw(fingerprint.bytes.data(), fingerprint.bytes.size());
    if (!(fingerprint == shardedFingerprint())) {
      throw CheckpointError(
          path +
          ": checkpoint was written by a different run configuration "
          "(sharded fingerprint mismatch)");
    }
    const std::size_t count = in.length();
    if (count != components_.size()) {
      throw CheckpointError(path + ": checkpoint holds " +
                            std::to_string(count) + " components, engine has " +
                            std::to_string(components_.size()));
    }
    std::vector<std::uint64_t> executed(count);
    std::vector<SimTime> clocks(count);
    std::vector<std::uint64_t> fed(count);
    for (std::size_t i = 0; i < count; ++i) {
      executed[i] = in.u64();
      clocks[i] = in.i64();
      fed[i] = in.u64();
      components_[i].engine->loadComponentState(in, file.version);
    }
    if (!in.done()) {
      throw SerializeError("trailing bytes after the component states");
    }

    if (streaming_) {
      // Rebuild the schedule position by replaying the stream prefix: the
      // contacts' effects are in the restored state, so replay feeds skip
      // instead of execute.
      stream_->reset();
      pending_.reset();
      while (true) {
        if (!pending_.has_value()) {
          pending_ = stream_->next();
          if (!pending_.has_value()) break;
        }
        if (pending_->start >= savedEpoch) break;
        trace::Contact local;
        const std::uint32_t ci = remapContact(*pending_, &local);
        components_[ci].engine->feedContact(local, /*replay=*/true);
        ++components_[ci].contactsFed;
        pending_.reset();
      }
      for (std::size_t i = 0; i < count; ++i) {
        components_[i].engine->skipReplayUntil(savedEpoch);
        if (components_[i].contactsFed != fed[i]) {
          throw CheckpointError(
              path + ": stream replay fed " +
              std::to_string(components_[i].contactsFed) +
              " contacts into component " + std::to_string(i) +
              ", checkpoint recorded " + std::to_string(fed[i]) +
              " (different stream?)");
        }
      }
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        Engine& engine = *components_[i].engine;
        engine.ensureScheduled();
        for (std::uint64_t k = 0; k < executed[i]; ++k) {
          if (!engine.sim_.skipOne()) {
            throw CheckpointError(
                path + ": checkpoint records more executed events than the "
                       "schedule of component " +
                std::to_string(i) + " holds");
          }
        }
        if (engine.sim_.now() != clocks[i]) {
          throw CheckpointError(
              path + ": replayed schedule position of component " +
              std::to_string(i) + " (t=" + std::to_string(engine.sim_.now()) +
              ") does not match the checkpoint clock (t=" +
              std::to_string(clocks[i]) + ")");
        }
      }
    }
    epoch_ = savedEpoch;
  } catch (const SerializeError& e) {
    throw CheckpointError(path + ": malformed checkpoint payload: " +
                          e.what());
  }
}

}  // namespace hdtn::core
