#include "src/core/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <stdexcept>

#include "src/core/coding.hpp"
#include "src/core/discovery.hpp"
#include "src/core/download.hpp"
#include "src/core/download_planner.hpp"
#include "src/core/state_refs.hpp"
#include "src/obs/events.hpp"
#include "src/trace/trace_stats.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::core {

// Coded-mode engine state: the dedicated coefficient-seed stream plus one
// incremental decoder per (member, in-flight generation).
struct CodedEngineState {
  /// One node's in-flight decoders, sorted by file. `used` marks a node
  /// that ever looked a decoder up: a save keeps its entry, empty or not
  /// (docs/CODING.md, "Determinism, faults, recovery, checkpoints").
  struct DecoderSlot {
    std::vector<std::pair<FileId, coding::GenerationDecoder>> files;
    bool used = false;
  };

  Rng rng{0};
  std::vector<DecoderSlot> decoders;  ///< indexed by node id
};

namespace {

// Forged metadata gets file ids far above any catalog id so the two spaces
// never collide; catalog lookups on forged ids simply miss.
constexpr std::uint32_t kForgedIdBase = 1u << 24;

}  // namespace

Engine::Engine(const trace::ContactTrace& trace, EngineParams params)
    : trace_(trace), params_(params), rng_(params.seed) {
  const std::vector<std::string> errors = params_.validate();
  if (!errors.empty()) {
    throw std::invalid_argument("invalid EngineParams: " +
                                join(errors, "; "));
  }
  // Only an enabled fault configuration forks the engine stream (fork
  // consumes a draw): all-zero fault rates leave every subsequent draw —
  // node shuffling, publications, queries — byte-identical to a run
  // without fault support.
  if (params_.faults.enabled()) {
    faults_ = std::make_unique<faults::FaultPlan>(
        params_.faults, rng_.fork(0xfa01), trace_.nodeCount(),
        trace_.endTime());
  }
  // The adversary stream follows the same discipline: forked only when the
  // adversary is enabled, so clean runs stay byte-identical. Byzantine
  // membership is installed by setupNodes() from the role shuffle.
  if (params_.adversary.enabled()) {
    adversary_ = std::make_unique<faults::AdversaryPlan>(params_.adversary,
                                                         rng_.fork(0xbad1));
  }
  // The defense tracker draws no randomness; still gated so disabled runs
  // carry no state at all.
  if (params_.reputation.enabled()) {
    reputation_ = std::make_unique<ReputationTracker>(params_.reputation);
  }
  // Recovery draws no randomness of its own (retransmission re-draws reuse
  // the fault channel streams), so constructing it perturbs nothing; still
  // gated so disabled runs carry no state at all.
  if (params_.recovery.enabled()) {
    recovery_ =
        std::make_unique<RecoveryState>(params_.recovery.repairQueueLimit);
  }
  // The coefficient-seed stream is forked only in coded mode (a fork
  // consumes a draw), so the named-piece modes stay byte-identical to
  // builds without coding support.
  if (params_.downloadMode == DownloadMode::kCoded) {
    coded_ = std::make_unique<CodedEngineState>();
    coded_->rng = rng_.fork(0xc0de);
  }
  planner_ =
      downloadModeInfo(params_.downloadMode, params_.protocol.scheduling)
          .planner;
  setupNodes();
  if (coded_ != nullptr) coded_->decoders.resize(nodes_.size());
}

Engine::~Engine() = default;

void Engine::setObserver(obs::EngineObserver* observer) {
  observer_ = observer;
  internet_.setObserver(observer);
}

void Engine::emit(const obs::SimEvent& event) {
  if (observer_ != nullptr) observer_->onEvent(event);
}

void Engine::setupNodes() {
  const std::size_t n = trace_.nodeCount();
  std::vector<NodeId> ids = trace_.allNodes();
  rng_.shuffle(ids);

  std::set<NodeId> access;
  std::set<NodeId> freeRiders;
  if (!params_.explicitAccessNodes.empty() ||
      !params_.explicitFreeRiders.empty()) {
    access.insert(params_.explicitAccessNodes.begin(),
                  params_.explicitAccessNodes.end());
    freeRiders.insert(params_.explicitFreeRiders.begin(),
                      params_.explicitFreeRiders.end());
  } else {
    const auto accessCount = static_cast<std::size_t>(std::llround(
        params_.internetAccessFraction * static_cast<double>(n)));
    access.insert(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(accessCount, n)));
    const std::size_t nonAccess = n - access.size();
    const auto freeRiderCount = static_cast<std::size_t>(std::llround(
        params_.freeRiderFraction * static_cast<double>(nonAccess)));
    // Free-riders are drawn from the non-access segment of the shuffle.
    for (std::size_t i = access.size();
         i < ids.size() && freeRiders.size() < freeRiderCount; ++i) {
      freeRiders.insert(ids[i]);
    }
  }

  // Forgers are drawn from non-access, non-free-riding nodes (they must
  // transmit to spread their fakes).
  std::set<NodeId> forgers;
  const auto forgerCount = static_cast<std::size_t>(std::llround(
      params_.forgerFraction * static_cast<double>(n - access.size())));
  for (std::size_t i = access.size();
       i < ids.size() && forgers.size() < forgerCount; ++i) {
    if (!freeRiders.contains(ids[i])) forgers.insert(ids[i]);
  }

  // Byzantine nodes come from the same shuffled order, skipping the roles
  // already assigned, so the selection consumes no extra RNG draws and
  // composes with (instead of overlapping) the paper's misbehavior models.
  if (adversary_) {
    std::vector<NodeId> byzantine;
    const auto byzantineCount = static_cast<std::size_t>(
        std::llround(params_.adversary.byzantineFraction *
                     static_cast<double>(n - access.size())));
    for (std::size_t i = access.size();
         i < ids.size() && byzantine.size() < byzantineCount; ++i) {
      if (freeRiders.contains(ids[i]) || forgers.contains(ids[i])) continue;
      byzantine.push_back(ids[i]);
    }
    adversary_->setByzantine(byzantine, n);
  }

  const auto frequentLists =
      trace::frequentContactLists(trace_, params_.frequentContactPeriod);

  nodes_.reset(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId id(i);
    NodeOptions options;
    options.internetAccess = access.contains(id);
    options.freeRider = freeRiders.contains(id);
    options.pieceCapacity = params_.nodePieceCapacity;
    options.metadataCapacity = params_.nodeMetadataCapacity;
    options.forger = forgers.contains(id);
    Node& node = nodes_.emplace(id, options);
    if (i < frequentLists.size()) {
      node.setFrequentContacts(frequentLists[i]);
    }
    node.setCooperativeStateTtl(
        static_cast<Duration>(params_.fileTtlDays) * kDay);
    node.setCatalog(&internet_.catalog());
  }
}

const Node& Engine::node(NodeId id) const { return nodes_[id]; }

Node& Engine::node(NodeId id) { return nodes_[id]; }

std::vector<NodeId> Engine::accessNodes() const { return nodes_.accessIds(); }

void Engine::ensureScheduled() {
  if (scheduled_) return;
  scheduled_ = true;
  const SimTime end = std::max(trace_.endTime(), publishHorizon_);
  const std::size_t publishCount =
      end > kDailyPublishHour
          ? static_cast<std::size_t>((end - kDailyPublishHour + kDay - 1) /
                                     kDay)
          : 0;
  sim_.reserve(publishCount + trace_.contacts().size());
  schedulePublications();
  for (const trace::Contact& contact : trace_.contacts()) {
    sim_.at(contact.start, [this, &contact] { processContact(contact); });
  }
  scheduleChurnEvents();
}

void Engine::schedulePublications() {
  // Daily 2 PM publications across the run span (publishes are scheduled
  // first so that same-instant contacts observe the day's files).
  const SimTime end = std::max(trace_.endTime(), publishHorizon_);
  for (SimTime t = kDailyPublishHour; t < end; t += kDay) {
    sim_.at(t, [this, t] { publishDay(t); });
  }
}

SimTime Engine::lastPublishAtOrBefore(SimTime t) const {
  const SimTime end = std::max(trace_.endTime(), publishHorizon_);
  const SimTime last = std::min(t, end - 1);
  if (last < kDailyPublishHour) return 0;
  return kDailyPublishHour + (last - kDailyPublishHour) / kDay * kDay;
}

void Engine::scheduleChurnEvents() {
  // Churn transitions are observational events (isDown() reads the
  // precomputed interval table, not these), scheduled last so same-instant
  // ordering of publications and contacts is untouched.
  if (faults_ != nullptr) {
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      for (const faults::FaultPlan::DownInterval& interval :
           faults_->downIntervals(NodeId(i))) {
        sim_.at(interval.start, [this, i, interval] {
          ++totals_.faultNodeDownIntervals;
          if (observer_ != nullptr) {
            obs::SimEvent event;
            event.type = obs::SimEventType::kNodeDown;
            event.time = interval.start;
            event.node = NodeId(i);
            event.value = static_cast<double>(interval.end - interval.start);
            emit(event);
          }
        });
        sim_.at(interval.end, [this, i, interval] {
          if (observer_ != nullptr) {
            obs::SimEvent event;
            event.type = obs::SimEventType::kNodeUp;
            event.time = interval.end;
            event.node = NodeId(i);
            emit(event);
          }
        });
      }
    }
  }
}

void Engine::throwIfFinished(const char* what) const {
  if (finished_) {
    throw std::logic_error(
        std::string(what) +
        ": the simulation already ran to completion and returned its "
        "result; construct a fresh Engine to run again");
  }
}

bool Engine::step() {
  throwIfFinished("Engine::step");
  ensureScheduled();
  return sim_.runOne();
}

void Engine::runUntil(SimTime horizon) {
  throwIfFinished("Engine::runUntil");
  ensureScheduled();
  sim_.runUntil(horizon);
}

EngineResult Engine::finish() {
  throwIfFinished("Engine::finish (or run)");
  ensureScheduled();
  sim_.run();
  finished_ = true;
  return currentResult();
}

EngineResult Engine::run() { return finish(); }

void Engine::usePublishStream(std::uint64_t seed) {
  if (scheduled_) {
    throw std::logic_error(
        "Engine::usePublishStream: must be called before the first advance");
  }
  publishRng_ = Rng(seed);
  hasPublishRng_ = true;
}

void Engine::setPublishHorizon(SimTime horizon) {
  if (scheduled_) {
    throw std::logic_error(
        "Engine::setPublishHorizon: must be called before the first advance");
  }
  publishHorizon_ = horizon;
}

void Engine::beginFeed() {
  throwIfFinished("Engine::beginFeed");
  if (scheduled_) {
    throw std::logic_error(
        "Engine::beginFeed: the schedule was already built");
  }
  scheduled_ = true;
  feeding_ = true;
  schedulePublications();
  scheduleChurnEvents();
}

void Engine::feedContact(const trace::Contact& contact, bool replay) {
  throwIfFinished("Engine::feedContact");
  if (!feeding_) {
    throw std::logic_error("Engine::feedContact: beginFeed() was not called");
  }
  if (replay) {
    // The contact's effects are already part of the restored state; only
    // the schedule position (publications at or before its start) advances.
    skipReplayUntil(contact.start + 1);
    return;
  }
  // The publication scheduled in beginFeed carries a smaller sequence
  // number, so at an equal instant it still runs before the contact —
  // exactly the scheduled-run order.
  sim_.at(contact.start, [this, contact] { processContact(contact); });
  sim_.runUntil(contact.start + 1);
}

void Engine::skipReplayUntil(SimTime horizon) {
  while (sim_.pendingEvents() > 0 && sim_.nextEventTime() < horizon) {
    sim_.skipOne();
  }
}

EngineResult Engine::currentResult() const {
  EngineResult result;
  result.delivery = metrics_.report(MetricScope::kNonAccess);
  result.accessDelivery = metrics_.report(MetricScope::kAccess);
  result.contributorDelivery =
      metrics_.report(MetricScope::kNonAccessContributors);
  result.freeRiderDelivery =
      metrics_.report(MetricScope::kNonAccessFreeRiders);
  result.totals = totals_;
  return result;
}

void Engine::publishDay(SimTime now) {
  // Event out files whose TTL elapsed since the last publish instant (the
  // alive set only changes at publish instants, so this scan misses
  // nothing). Skipped entirely when nobody listens.
  if (observer_ != nullptr) {
    const SimTime scannedUpTo = std::max(expiryScanUpTo_, expiryScanFloor_);
    for (FileId id : internet_.catalog().allFiles()) {
      const FileInfo* info = internet_.catalog().find(id);
      if (info == nullptr) continue;
      const SimTime expiry = info->expiresAt();
      if (expiry > scannedUpTo && expiry <= now) {
        obs::SimEvent event;
        event.type = obs::SimEventType::kFileExpired;
        event.time = expiry;
        event.file = id;
        event.value = info->popularity;
        emit(event);
      }
    }
    expiryScanUpTo_ = now;
  }

  SyntheticBatchParams batch;
  batch.count = params_.newFilesPerDay;
  batch.publishedAt = now;
  batch.ttl = static_cast<Duration>(params_.fileTtlDays) * kDay;
  batch.lambda = popularityLambdaForFilesPerDay(params_.newFilesPerDay);
  batch.piecesPerFile = params_.piecesPerFile;
  batch.pieceSizeBytes = params_.pieceSizeBytes;
  const std::vector<FileId> files = publishSyntheticBatch(
      internet_, batch, hasPublishRng_ ? publishRng_ : rng_);
  totals_.filesPublished += files.size();

  // Each node becomes interested in each new file with probability equal to
  // the file's popularity (Section VI-A). Every such query is the same
  // query, so the file's interested nodes share one query object.
  for (FileId fileId : files) {
    const FileInfo& info = *internet_.catalog().find(fileId);
    const auto query = std::make_shared<const FileQuery>(
        canonicalQueryText(info), fileId, now, info.ttl);
    for (Node& member : nodes_) {
      if (!rng_.chance(info.popularity)) continue;
      const QueryId id = metrics_.registerQuery(
          member.id(), fileId, now, info.ttl,
          member.options().internetAccess, member.options().freeRider);
      member.addQuery(id, query);
      ++totals_.queriesGenerated;
      if (member.options().internetAccess) {
        internet_.popularity().recordRequest(fileId, member.id(), now);
      }
    }
  }

  // Optionally replace publisher-assigned popularity with the server's
  // observed estimate (requests by access nodes in the past 24 h). The
  // estimate is computed after this batch's instant access-node requests,
  // so new files get a meaningful first estimate.
  if (params_.useObservedPopularity) {
    const std::size_t accessCount = nodes_.accessIds().size();
    for (FileId fileId : internet_.catalog().aliveFiles(now)) {
      internet_.catalog().setPopularity(
          fileId, internet_.popularity().observed(fileId, now, accessCount));
    }
  }

  // The popularity/alive set changed: a new sync epoch.
  accessSync().beginEpoch(now);

  // Access nodes are online: they discover and download instantly. A
  // churned-off access node is not: it catches up at its next contact (or
  // publish instant) once back up. Its user still issues queries above —
  // interest exists whether or not the device is on.
  for (NodeId id : nodes_.accessIds()) {
    if (faults_ != nullptr && faults_->isDown(id, now)) continue;
    views_.clear();
    accessSync().sync(nodes_[id], now, views_, *this);
  }

  // Forgers craft fakes of the day's hottest titles: same searchable name,
  // inflated popularity (so the push phases favor them), an authentication
  // tag no registry secret produced, and a URI that resolves to nothing.
  if (params_.forgerFraction > 0.0) {
    const auto topToday = internet_.topPopular(
        now, static_cast<std::size_t>(params_.forgeriesPerForgerPerDay));
    for (NodeId forgerId : nodes_.forgerIds()) {
      Node& forger = nodes_[forgerId];
      for (const SharedMetadata& genuine : topToday) {
        auto forged = std::make_shared<Metadata>(*genuine);
        forged->file = FileId(nextForgedId_++);
        forged->uri = "dtn://faux/" + std::to_string(forged->file.value);
        forged->popularity = 0.95;
        forged->pieceChecksums.assign(1, Sha1::hash("junk"));
        forged->authTag = Sha1::hash("forged" + forged->uri);
        forged->rebuildKeywords();
        SharedMetadata shed;
        forger.metadata().add(forged, &shed);
        if (shed != nullptr) noteMetadataEvicted(forger, *shed);
        ++totals_.forgeriesCrafted;
        if (observer_ != nullptr) {
          obs::SimEvent event;
          event.type = obs::SimEventType::kForgeryCrafted;
          event.time = now;
          event.node = forger.id();
          event.file = forged->file;
          event.value = forged->popularity;
          emit(event);
        }
      }
    }
  }
}

AccessSync& Engine::accessSync() {
  if (!access_) {
    AccessSync::Config config;
    config.searchProxiedQueries = params_.protocol.distributesQueries();
    config.takeCarryStock = params_.protocol.distributesMetadata();
    config.fetchPeerWants = params_.accessFetchesPeerRequests;
    config.stockFraction = params_.accessMetadataSyncFraction;
    config.stockLimit = params_.accessMetadataSyncLimit;
    access_ = std::make_unique<AccessSync>(internet_, config);
  }
  return *access_;
}

void Engine::gotMetadata(const Node& node, FileId file, SimTime now) {
  metrics_.onNodeGotMetadata(node.id(), file, now);
}

void Engine::deliverWholeFile(Node& node, FileId file, SimTime now) {
  const FileInfo* info = internet_.catalog().find(file);
  if (info == nullptr || !info->alive(now)) return;
  node.pieces().registerFile(file, info->pieceCount());
  node.pieces().setPriority(file, info->popularity);
  for (std::uint32_t p = 0; p < info->pieceCount(); ++p) {
    node.acceptPiece(file, p, info->pieceCount(), now);
  }
  metrics_.onNodeCompletedFile(node.id(), file, now);
}

void Engine::expireNodeData(Node& node, SimTime now) {
  node.expire(now);
  // Collect first: removeFile invalidates the files() view.
  std::vector<FileId> dead;
  for (FileId file : node.pieces().files()) {
    const FileInfo* info = internet_.catalog().find(file);
    if (info == nullptr || !info->alive(now)) dead.push_back(file);
  }
  for (FileId file : dead) node.pieces().removeFile(file);
}

void Engine::processContact(const trace::Contact& contact) {
  const SimTime now = contact.start;
  std::vector<Node*> members;
  members.reserve(contact.members.size());
  for (NodeId id : contact.members) {
    if (id.value >= nodes_.size()) continue;
    // Churned-off members neither transmit nor receive: they simply are
    // not part of the exchange clique.
    if (faults_ != nullptr && faults_->isDown(id, now)) continue;
    members.push_back(&nodes_[id]);
  }
  if (members.size() < 2) return;
  ++totals_.contactsProcessed;
  views_.clear();

  if (observer_ != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kContactBegin;
    event.time = now;
    event.node = members.front()->id();
    event.extra = static_cast<std::uint32_t>(members.size());
    event.value = static_cast<double>(contact.duration());
    emit(event);
    // A contact *is* the exchange clique in this trace model (classroom
    // sessions, bus meetings); the dedicated event keeps clique-size
    // distributions one grep away.
    event.type = obs::SimEventType::kCliqueFormed;
    event.value = 0.0;
    emit(event);
  }

  for (Node* m : members) expireNodeData(*m, now);
  // Access members are online; they arrive at the contact synced.
  for (Node* m : members) {
    if (m->options().internetAccess) {
      accessSync().sync(*m, now, views_, *this);
    }
  }

  // --- hello exchange ----------------------------------------------------
  exchangeHellos(members, params_.protocol, internet_.catalog(), now,
                 views_);

  // Optional airtime model: long contacts move proportionally more.
  int budgetMultiplier = 1;
  if (params_.scaleBudgetsWithDuration &&
      params_.referenceContactDuration > 0) {
    budgetMultiplier = std::max<int>(
        1, static_cast<int>(contact.duration() /
                            params_.referenceContactDuration));
  }
  int metadataBudget = params_.metadataPerContact * budgetMultiplier;
  int pieceBudget = params_.filesPerContact *
                    static_cast<int>(params_.piecesPerFile) *
                    budgetMultiplier;

  // A truncated contact ends early: both phases lose the same tail
  // fraction of their budgets (possibly down to nothing).
  if (faults_ != nullptr) {
    const double keep = faults_->contactKeepFactor();
    if (keep < 1.0) {
      ++totals_.faultContactsTruncated;
      metadataBudget = static_cast<int>(metadataBudget * keep);
      pieceBudget = static_cast<int>(pieceBudget * keep);
      if (observer_ != nullptr) {
        obs::SimEvent event;
        event.type = obs::SimEventType::kFaultInjected;
        event.time = now;
        event.node = members.front()->id();
        event.extra = static_cast<std::uint32_t>(
            faults::FaultKind::kContactTruncation);
        event.value = keep;
        emit(event);
      }
    }
  }

  // --- recovery session + cross-contact catch-up --------------------------
  // The session records this contact's losses; selective acks are modeled
  // by the engine's ground truth of which receivers missed which frames.
  RecoverySession session(params_.recovery.maxRetries,
                          params_.recovery.retransmitBudget);
  RecoverySession* rsession =
      (recovery_ != nullptr && params_.recovery.maxRetries > 0) ? &session
                                                                : nullptr;
  if (rsession != nullptr && recovery_->pendingCount() > 0) {
    servePendingRecoveries(members, rsession, now);
  }

  // --- discovery phase (start of the contact, Section V rationale) -------
  if (params_.protocol.distributesMetadata() && metadataBudget > 0) {
    runDiscoveryPhase(members, now, metadataBudget, rsession);
  }

  // --- coordinator failover (mid-round churn) -----------------------------
  // The broadcast round's coordinator is positional: the first member of
  // the hello order. The baseline model only checks churn at contact start;
  // the recovery layer also checks mid-contact, when the phase-2 schedule
  // runs. Without failover the round dies with its coordinator; with it the
  // survivors elect the next live member of the hello order and resume.
  const std::vector<Node*>* downloadMembers = &members;
  std::vector<Node*> survivors;
  bool abandonDownload = false;
  if (recovery_ != nullptr && faults_ != nullptr &&
      params_.faults.churnDownFraction > 0.0) {
    Node* coordinator = members.front();
    const SimTime mid = now + contact.duration() / 2;
    if (faults_->isDown(coordinator->id(), mid)) {
      if (params_.recovery.coordinatorFailover) {
        for (Node* m : members) {
          if (m != coordinator && !faults_->isDown(m->id(), mid)) {
            survivors.push_back(m);
          }
        }
        if (survivors.size() >= 2) {
          ++totals_.coordinatorFailovers;
          if (observer_ != nullptr) {
            obs::SimEvent event;
            event.type = obs::SimEventType::kCoordinatorFailover;
            event.time = mid;
            event.node = survivors.front()->id();
            event.peer = coordinator->id();
            event.extra = static_cast<std::uint32_t>(survivors.size());
            emit(event);
          }
          downloadMembers = &survivors;
        } else {
          abandonDownload = true;
        }
      } else {
        abandonDownload = true;
      }
    }
  }

  // --- download phase -----------------------------------------------------
  if (pieceBudget > 0 && !abandonDownload) {
    runDownloadPhase(*downloadMembers, now, pieceBudget, rsession);
  }

  // --- anti-entropy repair -------------------------------------------------
  if (recovery_ != nullptr && params_.recovery.repairPerContact > 0) {
    runRepairPhase(*downloadMembers, now, rsession);
  }

  // --- ack spoofing (Byzantine loss reports) ------------------------------
  // Before the retransmission rounds run, a Byzantine member may inject
  // bogus loss reports: each claims a metadata frame it demonstrably
  // received was lost, so the sender burns retransmit budget (and pending
  // slots at later contacts) redelivering frames nobody lost. One claims
  // draw per Byzantine member per recovering contact.
  if (rsession != nullptr && adversary_ != nullptr &&
      adversary_->attackEnabled(faults::AttackKind::kAckSpoof)) {
    for (Node* m : members) {
      if (!adversary_->isByzantine(m->id())) continue;
      if (isQuarantined(m->id(), now)) continue;
      std::uint32_t claims = adversary_->spoofedAckClaims();
      if (claims == 0) continue;
      for (Node* victim : members) {
        if (claims == 0) break;
        if (victim == m) continue;
        for (const Metadata* md : victim->metadata().byPopularity()) {
          if (claims == 0) break;
          if (!m->metadata().has(md->file)) continue;
          rsession->noteLoss({victim->id(), m->id(), md->file});
          --claims;
          ++totals_.acksSpoofed;
          ++totals_.adversaryAttacks;
          if (observer_ != nullptr) {
            obs::SimEvent event;
            event.type = obs::SimEventType::kAttackInjected;
            event.time = now;
            event.node = m->id();
            event.peer = victim->id();
            event.file = md->file;
            event.extra =
                static_cast<std::uint32_t>(faults::AttackKind::kAckSpoof);
            emit(event);
          }
        }
      }
    }
  }

  // --- end-of-contact retransmission rounds + spill ------------------------
  if (rsession != nullptr) {
    while (std::optional<LostFrame> frame = session.nextRetry()) {
      attemptRedelivery(*frame, rsession, now);
    }
    // Frames the budget could not afford wait for the next re-contact of
    // their (sender, receiver) pair.
    for (const LostFrame& frame : session.drainRemaining()) {
      recovery_->addPending(frame);
    }
  }

  if (observer_ != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kContactEnd;
    event.time = contact.end;
    event.node = members.front()->id();
    event.extra = static_cast<std::uint32_t>(members.size());
    emit(event);
  }
}

void Engine::runDiscoveryPhase(const std::vector<Node*>& members, SimTime now,
                               int metadataBudget,
                               RecoverySession* session) {
  std::vector<DiscoveryPeer> peers;
  peers.reserve(members.size());
  for (Node* m : members) {
    DiscoveryPeer peer;
    peer.id = m->id();
    peer.store = &m->metadata();
    peer.rejected = &m->rejectedMetadata();
    peer.distrustedSenders = &m->distrustedPeers();
    // Own (plus, under MBT, proxied) query objects straight from the
    // per-contact views, which match the catalog's records by their rows.
    peer.queryObjects = &views_.contactQueries(
        *m, now, params_.protocol.distributesQueries());
    peer.credits = &m->credits();
    // Quarantined peers receive but are excluded from sender selection.
    peer.contributes = m->contributes() && !isQuarantined(m->id(), now);
    peers.push_back(std::move(peer));
  }

  const auto plan =
      planDiscovery(peers, metadataBudget, params_.protocol.scheduling,
                    observer_, now, &discoveryScratch_, &internet_.catalog());
  totals_.metadataBroadcasts += plan.size();

  // Each broadcast hands receivers the planned record's object. That is the
  // copy the planner chose, held by the highest-index member that holds the
  // file; under observed popularity it may carry a different snapshot than
  // the sender's own copy. Take them all before delivering: a bounded
  // receiver store may shed a record a later broadcast of this plan sends.
  std::vector<SharedMetadata> records;
  records.reserve(plan.size());
  for (const MetadataBroadcast& b : plan) {
    const FileId file = b.metadata->file;
    const auto holder =
        std::find_if(members.rbegin(), members.rend(), [&](const Node* m) {
          return m->metadata().get(file) == b.metadata;
        });
    assert(holder != members.rend());
    records.push_back((*holder)->metadata().shared(file));
  }

  for (std::size_t k = 0; k < plan.size(); ++k) {
    const MetadataBroadcast& b = plan[k];
    const Metadata& md = *records[k];
    if (observer_ != nullptr) {
      obs::SimEvent event;
      event.type = obs::SimEventType::kMetadataBroadcast;
      event.time = now;
      event.node = b.sender;
      event.file = md.file;
      event.extra = static_cast<std::uint32_t>(b.requesters.size());
      event.value = md.popularity;
      emit(event);
    }
    for (Node* m : members) {
      if (m->id() == b.sender || m->metadata().has(md.file) ||
          m->rejectedMetadata().contains(md.file) ||
          m->distrusts(b.sender)) {
        continue;
      }
      if (linkCanFail() && !sendFirst({b.sender, m->id(), md.file}, session,
                                      now)) {
        continue;
      }
      deliverMetadataTo(*m, b.sender, records[k], now);
    }
  }
}

Engine::Link Engine::transmit(const LostFrame& frame, SimTime now) {
  const bool coded = frame.piece == kCodedFrameIndex;
  const bool namedPiece = !frame.isMetadata() && !coded;
  obs::SimEvent event;
  event.time = now;
  event.node = frame.receiver;
  event.peer = frame.sender;
  event.file = frame.file;
  // A Byzantine sender lies about a named piece before the channel acts:
  // the forged payload fails the SHA-1 piece checksum in the receiver's
  // held metadata — same outcome as corruption, but the slot was burnt on
  // purpose and (defense on) the sender is charged for it.
  if (namedPiece && adversary_ != nullptr &&
      adversary_->isByzantine(frame.sender) &&
      adversary_->attackEnabled(faults::AttackKind::kPieceLie) &&
      adversary_->liesAboutPiece()) {
    ++totals_.piecesLied;
    ++totals_.adversaryAttacks;
    if (observer_ != nullptr) {
      obs::SimEvent attack = event;
      attack.type = obs::SimEventType::kAttackInjected;
      attack.node = frame.sender;
      attack.peer = frame.receiver;
      attack.extra = static_cast<std::uint32_t>(faults::AttackKind::kPieceLie);
      emit(attack);
      event.type = obs::SimEventType::kPieceRejectedCorrupt;
      event.extra = frame.piece;
      emit(event);
    }
    noteEvidence(frame.sender, EvidenceKind::kFailedVerification, now);
    return Link::kRejected;
  }
  if (faults_ == nullptr) return Link::kDelivered;
  // Loss is drawn per deliverable (frame, receiver) pair: others in the
  // clique may still hear the frame.
  if (faults_->dropMessage()) {
    ++totals_.faultMessagesDropped;
    if (observer_ != nullptr) {
      event.type = obs::SimEventType::kFaultInjected;
      event.extra = static_cast<std::uint32_t>(faults::FaultKind::kMessageLoss);
      emit(event);
    }
    return Link::kLost;
  }
  if (frame.isMetadata() || !faults_->corruptPiece()) return Link::kDelivered;
  // The payload arrived damaged. A named piece fails its metadata checksum;
  // a coded frame fails its frame checksum and is rejected before folding,
  // since it would poison the whole generation.
  ++totals_.faultPiecesRejectedCorrupt;
  if (coded) ++totals_.codedDecodeFailures;
  if (observer_ != nullptr) {
    event.type = obs::SimEventType::kFaultInjected;
    event.extra =
        static_cast<std::uint32_t>(faults::FaultKind::kPieceCorruption);
    emit(event);
    if (coded) {
      event.type = obs::SimEventType::kDecodeFailed;
      event.extra = internet_.catalog().find(frame.file)->pieceCount();
    } else {
      event.type = obs::SimEventType::kPieceRejectedCorrupt;
      event.extra = frame.piece;
    }
    emit(event);
  }
  return Link::kRejected;
}

bool Engine::sendFirst(const LostFrame& frame, RecoverySession* session,
                       SimTime now) {
  const Link outcome = transmit(frame, now);
  // Only a dropped frame is noted for retransmission: a frame rejected by
  // its checksum is re-requested by the receiver at a later contact.
  if (outcome == Link::kLost && session != nullptr) {
    ++totals_.recoveryFramesLost;
    session->noteLoss(frame);
  }
  return outcome == Link::kDelivered;
}

void Engine::storeMetadata(Node& node, const SharedMetadata& md,
                           SimTime now) {
  if (md->expired(now)) return;
  if (params_.verifyMetadata && !node.options().forger &&
      !internet_.registry().verify(*md)) {
    ++totals_.forgeriesRejected;
    node.rejectMetadata(md->file);
    if (access_) access_->forget(node.id(), md->file);
    return;
  }
  SharedMetadata shed;
  node.acceptMetadata(md, now, &shed);
  if (shed != nullptr) noteMetadataEvicted(node, *shed);
}

void Engine::noteMetadataEvicted(const Node& node, const Metadata& md) {
  ++totals_.metadataEvictions;
  if (access_) access_->forget(node.id(), md.file);
  if (observer_ != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kMetadataEvicted;
    event.time = sim_.now();
    event.node = node.id();
    event.file = md.file;
    event.value = md.popularity;
    emit(event);
  }
}

void Engine::deliverMetadataTo(Node& receiver, NodeId sender,
                               const SharedMetadata& shared, SimTime now) {
  const Metadata& md = *shared;
  // Credit the sender before the store flips the query state.
  const bool requested = receiver.anyQueryMatches(md, now);
  storeMetadata(receiver, shared, now);
  ++totals_.metadataReceptions;
  if (receiver.rejectedMetadata().contains(md.file)) {
    // Failed verification: remember the offender, no credit.
    receiver.noteRejectedFrom(sender);
    if (observer_ != nullptr) {
      obs::SimEvent event;
      event.type = obs::SimEventType::kMetadataRejected;
      event.time = now;
      event.node = receiver.id();
      event.peer = sender;
      event.file = md.file;
      emit(event);
    }
    return;
  }
  // A bounded store may have shed the record on admission: nothing was
  // stored, so no credit, no metrics, no accept event.
  if (!receiver.metadata().has(md.file)) return;
  const bool forgedAccept =
      md.file.value >= kForgedIdBase && !receiver.options().forger;
  if (forgedAccept) ++totals_.forgeriesAccepted;
  if (requested) {
    receiver.credits().onReceivedRequested(sender);
  } else {
    receiver.credits().onReceivedUnrequested(sender, md.popularity);
  }
  metrics_.onNodeGotMetadata(receiver.id(), md.file, now);
  if (observer_ != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kMetadataAccepted;
    event.time = now;
    event.node = receiver.id();
    event.peer = sender;
    event.file = md.file;
    event.extra = requested ? 1 : 0;
    event.value = md.popularity;
    emit(event);
    if (forgedAccept) {
      event.type = obs::SimEventType::kForgeryAccepted;
      emit(event);
    }
  }
}

void Engine::deliverPieceTo(Node& receiver, NodeId sender, FileId file,
                            std::uint32_t piece, const FileInfo& info,
                            bool requested, SimTime now) {
  receiver.acceptPiece(file, piece, info.pieceCount(), now);
  ++totals_.pieceReceptions;
  if (requested) {
    receiver.credits().onReceivedRequested(sender);
  } else {
    receiver.credits().onReceivedUnrequested(sender, info.popularity);
  }
  if (receiver.pieces().isComplete(file)) {
    metrics_.onNodeCompletedFile(receiver.id(), file, now);
  }
  if (observer_ != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kPieceReceived;
    event.time = now;
    event.node = receiver.id();
    event.peer = sender;
    event.file = file;
    event.extra = piece;
    event.value = info.popularity;
    emit(event);
  }
}

void Engine::noteEvidence(NodeId suspect, EvidenceKind kind, SimTime now) {
  if (reputation_ == nullptr) return;
  if (!reputation_->addEvidence(suspect, kind, now)) return;
  ++totals_.nodesQuarantined;
  // Ground truth the honest nodes cannot see: was the quarantined node
  // actually Byzantine? Pure-random-fault noise must not quarantine anyone.
  if (adversary_ == nullptr || !adversary_->isByzantine(suspect)) {
    ++totals_.falseQuarantines;
  }
  if (observer_ != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kNodeQuarantined;
    event.time = now;
    event.node = suspect;
    event.value = reputation_->suspicion(suspect, now);
    emit(event);
  }
}

bool Engine::isQuarantined(NodeId node, SimTime now) {
  if (reputation_ == nullptr) return false;
  bool released = false;
  const bool quarantined = reputation_->isQuarantined(node, now, &released);
  if (released) {
    ++totals_.nodesReleased;
    if (observer_ != nullptr) {
      obs::SimEvent event;
      event.type = obs::SimEventType::kNodeReleased;
      event.time = now;
      event.node = node;
      event.value = reputation_->suspicion(node, now);
      emit(event);
    }
  }
  return quarantined;
}

namespace {

// Lazily creates the (receiver, file) decoder, seeding it with unit rows
// for pieces the node already holds in the clear (delivered by an access
// gateway, a repair push, or before a mode switch) so those count toward
// rank and are never re-sent as deficit.
coding::GenerationDecoder& codedDecoderFor(CodedEngineState& state,
                                           const Node& member, FileId file,
                                           std::uint32_t generationSize) {
  CodedEngineState::DecoderSlot& slot = state.decoders[member.id().value];
  slot.used = true;
  auto it = std::lower_bound(
      slot.files.begin(), slot.files.end(), file,
      [](const auto& entry, FileId f) { return entry.first < f; });
  if (it == slot.files.end() || it->first != file) {
    it = slot.files.emplace(it, file,
                            coding::GenerationDecoder(generationSize));
    for (std::uint32_t p = 0; p < generationSize; ++p) {
      if (member.pieces().hasPiece(file, p)) it->second.addSourcePiece(p);
    }
  }
  return it->second;
}

/// Retires the (member, file) decoder; the member's entry stays.
void eraseCodedDecoder(CodedEngineState& state, NodeId member, FileId file) {
  auto& files = state.decoders[member.value].files;
  std::erase_if(files,
                [file](const auto& entry) { return entry.first == file; });
}

}  // namespace

Engine::CodedFrame Engine::codedFrame(Node& sender, FileId file,
                                      std::uint32_t generationSize,
                                      std::uint64_t seed, SimTime now) {
  // A Byzantine sender may pollute the frame it emits: one adversary draw
  // per Byzantine-sent frame.
  const bool injected =
      adversary_ != nullptr && adversary_->isByzantine(sender.id()) &&
      adversary_->attackEnabled(faults::AttackKind::kPollution) &&
      adversary_->pollutesFrame();
  if (injected) {
    ++totals_.pollutionInjected;
    ++totals_.adversaryAttacks;
    if (observer_ != nullptr) {
      obs::SimEvent event;
      event.type = obs::SimEventType::kAttackInjected;
      event.time = now;
      event.node = sender.id();
      event.file = file;
      event.extra =
          static_cast<std::uint32_t>(faults::AttackKind::kPollution);
      emit(event);
    }
  }
  CodedFrame frame;
  bool relayTainted = false;
  if (sender.pieces().isComplete(file)) {
    frame.coefficients = coding::sparseCoefficients(generationSize, seed,
                                                    params_.coded.sparsity);
  } else {
    frame.coefficients =
        codedDecoderFor(*coded_, sender, file, generationSize)
            .recodeCoefficients(seed, params_.coded.sparsity, nullptr,
                                &relayTainted);
  }
  frame.polluted = injected || relayTainted;
  // A relayed mix of an already-tainted row space carries the junk along
  // but the honest relayer is not to blame: no origin is attached.
  frame.origin =
      injected ? sender.id().value : coding::GenerationDecoder::kNoOrigin;
  return frame;
}

bool Engine::deliverCodedFrameTo(Node& receiver, NodeId sender, FileId file,
                                 std::uint32_t generationSize, bool requested,
                                 const CodedFrame& frame, const FileInfo& info,
                                 SimTime now) {
  coding::GenerationDecoder& decoder =
      codedDecoderFor(*coded_, receiver, file, generationSize);
  const std::uint64_t opsBefore = decoder.rowOps();
  const std::uint64_t degenerateBefore = decoder.degenerateFrames();
  const bool innovative =
      decoder.addFrame(frame.coefficients, {}, frame.polluted, frame.origin);
  totals_.codedDecodeRowOps += decoder.rowOps() - opsBefore;
  totals_.codedDegenerateFrames +=
      decoder.degenerateFrames() - degenerateBefore;
  if (!innovative) {
    ++totals_.codedRedundantFrames;
    return false;
  }
  ++totals_.codedInnovativeFrames;
  if (requested) {
    receiver.credits().onReceivedRequested(sender);
  } else {
    receiver.credits().onReceivedUnrequested(sender, info.popularity);
  }
  if (observer_ != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kInnovativeFrame;
    event.time = now;
    event.node = receiver.id();
    event.peer = sender;
    event.file = file;
    event.extra = decoder.rank();
    event.value = info.popularity;
    emit(event);
  }
  if (!decoder.complete()) return true;
  if (decoder.tainted() && reputation_ != nullptr) {
    // Defense on: the per-generation piece-hash pass over the decoded
    // output fails, so the whole generation is rolled back — nothing is
    // stored, the decoder is retired, and the receiver re-collects from
    // scratch (clear-held pieces reseed the fresh decoder). Every sender
    // whose frame arrived polluted is charged.
    ++totals_.generationsRolledBack;
    totals_.pollutionDetected += decoder.pollutedRows();
    if (observer_ != nullptr) {
      obs::SimEvent event;
      event.type = obs::SimEventType::kPollutionDetected;
      event.time = now;
      event.node = receiver.id();
      event.peer = sender;
      event.file = file;
      event.extra = decoder.pollutedRows();
      event.value = info.popularity;
      emit(event);
      event.type = obs::SimEventType::kGenerationRolledBack;
      event.extra = generationSize;
      emit(event);
    }
    for (std::uint32_t culprit : decoder.pollutedOrigins()) {
      noteEvidence(NodeId{culprit}, EvidenceKind::kFailedVerification, now);
    }
    eraseCodedDecoder(*coded_, receiver.id(), file);
    return true;
  }
  const bool garbage = decoder.tainted();
  if (garbage) {
    // Defense off: the junk decodes "successfully". The receptions are real
    // traffic (stored pieces, events, counters) but the file's content is
    // garbage, so it never counts as delivered — the undefended collapse
    // the bench's adversary axis measures.
    ++totals_.pollutedDeliveries;
  }
  // Full rank: every source piece is a row-space lookup. Store the missing
  // ones (the reception credit was granted per innovative frame above, so
  // the decoded pieces carry no extra credit) and retire the decoder.
  for (std::uint32_t p = 0; p < generationSize; ++p) {
    if (receiver.pieces().hasPiece(file, p)) continue;
    receiver.acceptPiece(file, p, generationSize, now);
    ++totals_.pieceReceptions;
    if (observer_ != nullptr) {
      obs::SimEvent event;
      event.type = obs::SimEventType::kPieceReceived;
      event.time = now;
      event.node = receiver.id();
      event.peer = sender;
      event.file = file;
      event.extra = p;
      event.value = info.popularity;
      emit(event);
    }
  }
  if (!garbage) {
    if (receiver.pieces().isComplete(file)) {
      metrics_.onNodeCompletedFile(receiver.id(), file, now);
    }
    ++totals_.generationsDecoded;
    if (observer_ != nullptr) {
      obs::SimEvent event;
      event.type = obs::SimEventType::kGenerationDecoded;
      event.time = now;
      event.node = receiver.id();
      event.peer = sender;
      event.file = file;
      event.extra = generationSize;
      event.value = info.popularity;
      emit(event);
    }
  }
  eraseCodedDecoder(*coded_, receiver.id(), file);
  return true;
}

void Engine::deliverCodedBroadcast(const CodedBroadcast& cb,
                                   const std::vector<Node*>& members,
                                   SimTime now, RecoverySession* session) {
  const FileInfo* info = internet_.catalog().find(cb.file);
  totals_.pieceBroadcasts += cb.frames;
  totals_.codedBroadcasts += cb.frames;
  Node& sender = node(cb.sender);
  for (std::uint32_t f = 0; f < cb.frames; ++f) {
    const std::uint64_t seed = coded_->rng();
    if (observer_ != nullptr) {
      obs::SimEvent event;
      event.type = obs::SimEventType::kCodedBroadcast;
      event.time = now;
      event.node = cb.sender;
      event.file = cb.file;
      event.extra = cb.generationSize;
      event.value = cb.popularity;
      emit(event);
    }
    if (info == nullptr) continue;
    const CodedFrame frame =
        codedFrame(sender, cb.file, cb.generationSize, seed, now);
    for (Node* m : members) {
      if (m->id() == cb.sender || m->pieces().isComplete(cb.file)) continue;
      const bool requested =
          std::find(cb.requesters.begin(), cb.requesters.end(), m->id()) !=
          cb.requesters.end();
      // A lost coded frame is replaceable by ANY fresh combination: the
      // pending entry records the generation, not the frame.
      if (linkCanFail() &&
          !sendFirst({cb.sender, m->id(), cb.file, kCodedFrameIndex,
                      requested},
                     session, now)) {
        continue;
      }
      deliverCodedFrameTo(*m, cb.sender, cb.file, cb.generationSize,
                          requested, frame, *info, now);
    }
  }
}

void Engine::runDownloadPhase(const std::vector<Node*>& members, SimTime now,
                              int pieceBudget, RecoverySession* session) {
  std::vector<DownloadPeer> peers;
  peers.reserve(members.size());
  // Gateway behaviour: an access member is online *during* the contact, so
  // it can fetch any file the clique currently requests straight from the
  // Internet ("enough bandwidth to download the files they need"); the
  // per-contact broadcast budget still gates the DTN side.
  std::vector<FileId> cliqueWants;
  for (Node* m : members) {
    for (FileId file : views_.wantedFiles(*m, now)) {
      cliqueWants.push_back(file);
    }
  }
  for (Node* m : members) {
    if (!m->options().internetAccess) continue;
    for (FileId file : cliqueWants) {
      if (!m->pieces().isComplete(file)) deliverWholeFile(*m, file, now);
    }
  }

  for (Node* m : members) {
    DownloadPeer peer;
    peer.id = m->id();
    peer.pieces = &m->pieces();
    peer.wanted = views_.wantedFiles(*m, now);
    peer.credits = &m->credits();
    // Quarantined peers keep receiving (an honest false positive must be
    // able to catch up) but are excluded from sender selection.
    peer.contributes = m->contributes() && !isQuarantined(m->id(), now);
    peers.push_back(std::move(peer));
  }

  const int budget = pieceBudget;
  const PopularityFn popularityOf = [this](FileId file) {
    const FileInfo* info = internet_.catalog().find(file);
    return info == nullptr ? 0.0 : info->popularity;
  };

  DownloadRequest request;
  request.peers = peers;
  request.popularityOf = &popularityOf;
  request.budgetPieces = budget;
  request.pushOrder = params_.pushOrder;
  request.coded = params_.coded;
  request.observer = observer_;
  request.now = now;
  request.scratch = &downloadScratch_;
  DownloadPlan plan = planner_->plan(request);

  // Coordinator abuse: the broadcast schedulings with a coordinator (the
  // paper motivates tit-for-tat precisely because a selfish coordinator
  // can cheat) elect the first non-quarantined member of the hello order;
  // a Byzantine coordinator silently drops part of the planned schedule.
  if (adversary_ != nullptr &&
      adversary_->attackEnabled(faults::AttackKind::kCoordinator) &&
      params_.protocol.scheduling != Scheduling::kTitForTat &&
      params_.downloadMode != DownloadMode::kPairwise) {
    NodeId coordinator{};
    bool haveCoordinator = false;
    for (Node* m : members) {
      if (!isQuarantined(m->id(), now)) {
        coordinator = m->id();
        haveCoordinator = true;
        break;
      }
    }
    if (haveCoordinator && adversary_->isByzantine(coordinator)) {
      const auto suppress = [&](NodeId sender, FileId file) {
        if (!adversary_->dropsPlannedBroadcast()) return false;
        ++totals_.broadcastsSuppressed;
        ++totals_.adversaryAttacks;
        if (observer_ != nullptr) {
          obs::SimEvent event;
          event.type = obs::SimEventType::kAttackInjected;
          event.time = now;
          event.node = coordinator;
          event.peer = sender;
          event.file = file;
          event.extra =
              static_cast<std::uint32_t>(faults::AttackKind::kCoordinator);
          emit(event);
        }
        // The scheduled sender saw its slot vanish: observable misbehavior
        // of whoever ran the round.
        noteEvidence(coordinator, EvidenceKind::kBroadcastSuppressed, now);
        return true;
      };
      std::erase_if(plan.broadcasts, [&](const PieceBroadcast& b) {
        return suppress(b.sender, b.file);
      });
      std::erase_if(plan.coded, [&](const CodedBroadcast& cb) {
        return suppress(cb.sender, cb.file);
      });
    }
  }

  if (params_.downloadMode == DownloadMode::kPairwise) {
    // Prior-work baseline: members pair off, each pair exchanges over a
    // unicast link. The clique is one collision domain, so the per-contact
    // budget is shared across all pairs (round-robin), and each
    // transmission serves exactly one receiver — the inefficiency the
    // paper's broadcast scheme removes.
    const auto& perPair = plan.transfers;
    std::vector<std::vector<PieceTransfer>> byPair;
    for (const PieceTransfer& t : perPair) {
      if (byPair.empty() || byPair.back().front().sender != t.sender ||
          byPair.back().front().receiver != t.receiver) {
        // The pairwise planner emits transfers grouped by pair; a change of
        // (sender, receiver) within a pair (reverse direction) still
        // belongs to the same link.
        const bool sameLink =
            !byPair.empty() &&
            ((byPair.back().front().sender == t.receiver &&
              byPair.back().front().receiver == t.sender) ||
             (byPair.back().front().sender == t.sender &&
              byPair.back().front().receiver == t.receiver));
        if (!sameLink) byPair.emplace_back();
      }
      byPair.back().push_back(t);
    }
    std::vector<PieceTransfer> transfers;
    std::vector<std::size_t> cursor(byPair.size(), 0);
    while (static_cast<int>(transfers.size()) < budget) {
      bool any = false;
      for (std::size_t p = 0;
           p < byPair.size() &&
           static_cast<int>(transfers.size()) < budget;
           ++p) {
        if (cursor[p] < byPair[p].size()) {
          transfers.push_back(byPair[p][cursor[p]++]);
          any = true;
        }
      }
      if (!any) break;
    }
    totals_.pieceBroadcasts += transfers.size();
    for (const PieceTransfer& t : transfers) {
      const FileInfo* info = internet_.catalog().find(t.file);
      if (observer_ != nullptr) {
        obs::SimEvent event;
        event.type = obs::SimEventType::kPieceBroadcast;
        event.time = now;
        event.node = t.sender;
        event.peer = t.receiver;
        event.file = t.file;
        event.extra = t.piece;
        emit(event);
      }
      // Node ids are dense indices into nodes_; no per-contact map needed.
      Node* receiver = &node(t.receiver);
      if (info == nullptr ||
          receiver->pieces().hasPiece(t.file, t.piece)) {
        continue;
      }
      if (linkCanFail() &&
          !sendFirst({t.sender, t.receiver, t.file, t.piece, t.requested},
                     session, now)) {
        continue;
      }
      deliverPieceTo(*receiver, t.sender, t.file, t.piece, *info,
                     t.requested, now);
    }
    return;
  }

  if (params_.downloadMode == DownloadMode::kCoded) {
    for (const CodedBroadcast& cb : plan.coded) {
      deliverCodedBroadcast(cb, members, now, session);
    }
    return;
  }

  totals_.pieceBroadcasts += plan.broadcasts.size();

  for (const PieceBroadcast& b : plan.broadcasts) {
    const FileInfo* info = internet_.catalog().find(b.file);
    if (observer_ != nullptr) {
      obs::SimEvent event;
      event.type = obs::SimEventType::kPieceBroadcast;
      event.time = now;
      event.node = b.sender;
      event.file = b.file;
      event.extra = b.piece;
      event.value = info == nullptr ? 0.0 : info->popularity;
      emit(event);
    }
    if (info == nullptr) continue;
    for (Node* m : members) {
      if (m->id() == b.sender || m->pieces().hasPiece(b.file, b.piece)) {
        continue;
      }
      const bool requested =
          std::find(b.requesters.begin(), b.requesters.end(), m->id()) !=
          b.requesters.end();
      if (linkCanFail() &&
          !sendFirst({b.sender, m->id(), b.file, b.piece, requested}, session,
                     now)) {
        continue;
      }
      deliverPieceTo(*m, b.sender, b.file, b.piece, *info, requested, now);
    }
  }
}

void Engine::attemptRedelivery(LostFrame frame, RecoverySession* session,
                               SimTime now) {
  // The resend is counted (and evented) whether or not the frame is still
  // needed: the sender retransmits everything its end-of-phase ack pass
  // reported missing, and a duplicate is simply discarded by the receiver.
  ++totals_.recoveryRetransmits;
  if (observer_ != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kRetransmit;
    event.time = now;
    event.node = frame.receiver;
    event.peer = frame.sender;
    event.file = frame.file;
    event.extra = frame.piece;
    emit(event);
  }
  Node& sender = node(frame.sender);
  Node& receiver = node(frame.receiver);
  const bool coded = frame.piece == kCodedFrameIndex;
  SharedMetadata md;
  const FileInfo* info = nullptr;
  if (frame.isMetadata()) {
    md = sender.metadata().shared(frame.file);
    if (md == nullptr || md->expired(now) ||
        receiver.rejectedMetadata().contains(frame.file) ||
        receiver.distrusts(frame.sender)) {
      return;  // no longer deliverable
    }
    if (receiver.metadata().has(frame.file)) {
      // The "lost" record is already there: a benign race (another sender
      // redelivered first), or a spoofed ack that burnt this retransmit
      // slot on purpose. Weak evidence either way — hence the low weight.
      noteEvidence(frame.receiver, EvidenceKind::kAckAnomaly, now);
      return;
    }
  } else {
    info = internet_.catalog().find(frame.file);
    if (info == nullptr || !info->alive(now)) return;
    // A coded frame is deliverable while the sender holds any of the
    // generation and the receiver still lacks some of it.
    const bool deliverable =
        coded ? !receiver.pieces().isComplete(frame.file) &&
                    (sender.pieces().piecesHeld(frame.file) > 0 ||
                     sender.pieces().isComplete(frame.file))
              : sender.pieces().hasPiece(frame.file, frame.piece) &&
                    !receiver.pieces().hasPiece(frame.file, frame.piece);
    if (!deliverable) return;
  }
  if (linkCanFail() && transmit(frame, now) != Link::kDelivered) {
    // A failed retransmission is a retry, not a fresh loss: back to the
    // queue, not noteLoss.
    ++frame.attempts;
    if (session != nullptr) session->requeue(frame);
    return;
  }
  if (frame.isMetadata()) {
    deliverMetadataTo(receiver, frame.sender, md, now);
    if (receiver.metadata().has(frame.file)) ++totals_.recoveryRedeliveries;
  } else if (coded) {
    // Coded repair: instead of replaying the lost frame, the sender draws a
    // *fresh* combination — any independent mix of its row space is exactly
    // as useful, so nothing needs remembering beyond the generation id.
    const std::uint32_t generationSize = info->pieceCount();
    if (deliverCodedFrameTo(
            receiver, frame.sender, frame.file, generationSize,
            frame.requested,
            codedFrame(sender, frame.file, generationSize, coded_->rng(), now),
            *info, now)) {
      ++totals_.recoveryRedeliveries;
    }
  } else {
    deliverPieceTo(receiver, frame.sender, frame.file, frame.piece, *info,
                   frame.requested, now);
    ++totals_.recoveryRedeliveries;
  }
}

void Engine::servePendingRecoveries(const std::vector<Node*>& members,
                                    RecoverySession* session, SimTime now) {
  for (Node* s : members) {
    if (!recovery_->hasPending(s->id())) continue;
    for (Node* r : members) {
      if (r == s) continue;
      for (const LostFrame& frame :
           recovery_->takePending(s->id(), r->id())) {
        attemptRedelivery(frame, session, now);
      }
    }
  }
}

void Engine::runRepairPhase(const std::vector<Node*>& members, SimTime now,
                            RecoverySession* session) {
  int budget = params_.recovery.repairPerContact;
  for (Node* receiverPtr : members) {
    if (budget <= 0) break;
    Node& receiver = *receiverPtr;
    // A Byzantine receiver may forge an *empty* summary, soliciting pushes
    // of data it already holds to burn the shared repair budget. One draw
    // per Byzantine repair-round participation.
    bool forgedSummary = false;
    if (adversary_ != nullptr && adversary_->isByzantine(receiver.id()) &&
        adversary_->attackEnabled(faults::AttackKind::kFalseSummary) &&
        adversary_->forgesSummary()) {
      forgedSummary = true;
      ++totals_.summariesForged;
      ++totals_.adversaryAttacks;
      if (observer_ != nullptr) {
        obs::SimEvent event;
        event.type = obs::SimEventType::kAttackInjected;
        event.time = now;
        event.node = receiver.id();
        event.extra =
            static_cast<std::uint32_t>(faults::AttackKind::kFalseSummary);
        emit(event);
      }
    }
    // The receiver summarises everything it holds. A Bloom filter has no
    // false negatives, so a negative membership test proves the record is
    // missing; a false positive (~1%) only makes repair skip a genuinely
    // missing record.
    SummaryVector summary(receiver.metadata().size() +
                          receiver.pieces().totalPiecesHeld());
    if (!forgedSummary) {
      for (const Metadata* md : receiver.metadata().all()) {
        summary.insert(SummaryVector::metadataKey(md->file));
      }
      receiver.pieces().forEachHeldPiece([&](FileId file, std::uint32_t p) {
        summary.insert(SummaryVector::pieceKey(file, p));
      });
    }
    for (Node* senderPtr : members) {
      if (budget <= 0) break;
      if (senderPtr == receiverPtr || !senderPtr->contributes() ||
          isQuarantined(senderPtr->id(), now)) {
        continue;
      }
      Node& sender = *senderPtr;
      // Metadata repair: query-matching records the summary proves missing
      // (lost to truncation/loss before the receiver ever stored them).
      if (!receiver.distrusts(sender.id())) {
        for (const Metadata* md : sender.metadata().byPopularity()) {
          if (budget <= 0) break;
          if (md->expired(now) ||
              summary.mayContain(SummaryVector::metadataKey(md->file)) ||
              receiver.rejectedMetadata().contains(md->file) ||
              !receiver.anyQueryMatches(*md, now)) {
            continue;
          }
          --budget;
          ++totals_.repairRequests;
          if (observer_ != nullptr) {
            obs::SimEvent event;
            event.type = obs::SimEventType::kRepairRequested;
            event.time = now;
            event.node = receiver.id();
            event.peer = sender.id();
            event.file = md->file;
            event.extra = kMetadataFrameIndex;
            emit(event);
          }
          if (receiver.metadata().has(md->file)) {
            // The summary claimed the record missing but the receiver holds
            // it. An honest Bloom summary has no false negatives, so the
            // advertisement was forged; the budget is burnt either way.
            noteEvidence(receiver.id(), EvidenceKind::kSummaryMismatch, now);
            continue;
          }
          if (linkCanFail() &&
              !sendFirst({sender.id(), receiver.id(), md->file}, session,
                         now)) {
            continue;
          }
          deliverMetadataTo(receiver, sender.id(),
                            sender.metadata().shared(md->file), now);
          summary.insert(SummaryVector::metadataKey(md->file));
        }
      }
      // Piece repair: pieces of the receiver's wanted files the sender
      // holds and the summary proves missing (recomputed per sender —
      // metadata repair above may have selected new downloads).
      for (FileId file : views_.wantedFiles(receiver, now)) {
        if (budget <= 0) break;
        const FileInfo* info = internet_.catalog().find(file);
        if (info == nullptr || !info->alive(now) ||
            !sender.pieces().isRegistered(file)) {
          continue;
        }
        for (std::uint32_t p = 0; p < info->pieceCount(); ++p) {
          if (budget <= 0) break;
          if (!sender.pieces().hasPiece(file, p) ||
              summary.mayContain(SummaryVector::pieceKey(file, p))) {
            continue;
          }
          --budget;
          ++totals_.repairRequests;
          if (observer_ != nullptr) {
            obs::SimEvent event;
            event.type = obs::SimEventType::kRepairRequested;
            event.time = now;
            event.node = receiver.id();
            event.peer = sender.id();
            event.file = file;
            event.extra = p;
            emit(event);
          }
          if (receiver.pieces().hasPiece(file, p)) {
            // Same forged-summary tell as the metadata path above.
            noteEvidence(receiver.id(), EvidenceKind::kSummaryMismatch, now);
            continue;
          }
          if (linkCanFail() &&
              !sendFirst({sender.id(), receiver.id(), file, p, true}, session,
                         now)) {
            continue;
          }
          deliverPieceTo(receiver, sender.id(), file, p, *info, true, now);
          summary.insert(SummaryVector::pieceKey(file, p));
        }
      }
    }
  }
}

namespace {

void saveRngState(Serializer& out, const Rng& rng) {
  for (std::uint64_t word : rng.state()) out.u64(word);
}

void loadRngState(Deserializer& in, Rng& rng) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = in.u64();
  rng.setState(state);
}

}  // namespace

void Engine::saveComponentState(Serializer& out) const {
  saveRngState(out, rng_);
  out.boolean(hasPublishRng_);
  if (hasPublishRng_) saveRngState(out, publishRng_);
  for (const std::uint64_t word : totalsWords(totals_)) out.u64(word);
  out.u32(nextForgedId_);
  out.i64(expiryScanUpTo_);

  out.boolean(faults_ != nullptr);
  if (faults_ != nullptr) faults_->saveState(out);

  out.boolean(recovery_ != nullptr);
  if (recovery_ != nullptr) recovery_->saveState(out);

  out.boolean(adversary_ != nullptr);
  if (adversary_ != nullptr) adversary_->saveState(out);

  out.boolean(reputation_ != nullptr);
  if (reputation_ != nullptr) reputation_->saveState(out);

  out.boolean(coded_ != nullptr);
  if (coded_ != nullptr) {
    saveRngState(out, coded_->rng);
    const auto& slots = coded_->decoders;
    out.u64(static_cast<std::uint64_t>(
        std::count_if(slots.begin(), slots.end(),
                      [](const auto& slot) { return slot.used; })));
    for (std::uint32_t member = 0; member < slots.size(); ++member) {
      if (!slots[member].used) continue;
      out.u32(member);
      out.u64(slots[member].files.size());
      for (const auto& [file, decoder] : slots[member].files) {
        out.u32(file.value);
        decoder.saveState(out);
      }
    }
  }

  internet_.saveState(out);
  metrics_.saveState(out);

  // Records and query objects are written once per component state; every
  // later holder writes a reference (state_refs.hpp).
  StateRefWriter refs;
  out.u64(nodes_.size());
  for (const Node& member : nodes_) member.saveState(out, refs);

  out.boolean(access_ != nullptr);
  if (access_ != nullptr) access_->saveState(out, nodes_.size());
}

void Engine::loadComponentState(Deserializer& in, std::uint32_t version) {
  loadRngState(in, rng_);
  const bool hasPublishRng = in.boolean();
  if (hasPublishRng != hasPublishRng_) {
    throw SerializeError(
        "corrupt payload: publish-stream presence does not match the engine "
        "configuration");
  }
  if (hasPublishRng_) loadRngState(in, publishRng_);
  EngineTotalsWords totals;
  for (std::uint64_t& word : totals) word = in.u64();
  totals_ = totalsFromWords(totals);
  nextForgedId_ = in.u32();
  expiryScanUpTo_ = in.i64();

  const bool hasFaults = in.boolean();
  if (hasFaults != (faults_ != nullptr)) {
    throw SerializeError(
        "corrupt payload: fault-plan presence does not match the engine "
        "configuration");
  }
  if (faults_ != nullptr) faults_->loadState(in);

  const bool hasRecovery = in.boolean();
  if (hasRecovery != (recovery_ != nullptr)) {
    throw SerializeError(
        "corrupt payload: recovery-state presence does not match the engine "
        "configuration");
  }
  if (recovery_ != nullptr) recovery_->loadState(in);

  const bool hasAdversary = in.boolean();
  if (hasAdversary != (adversary_ != nullptr)) {
    throw SerializeError(
        "corrupt payload: adversary-plan presence does not match the engine "
        "configuration");
  }
  if (adversary_ != nullptr) adversary_->loadState(in);

  const bool hasReputation = in.boolean();
  if (hasReputation != (reputation_ != nullptr)) {
    throw SerializeError(
        "corrupt payload: reputation-state presence does not match the "
        "engine configuration");
  }
  if (reputation_ != nullptr) reputation_->loadState(in);

  const bool hasCoded = in.boolean();
  if (hasCoded != (coded_ != nullptr)) {
    throw SerializeError(
        "corrupt payload: coded-state presence does not match the engine "
        "configuration");
  }
  if (coded_ != nullptr) {
    loadRngState(in, coded_->rng);
    // A save lists members, and each member's files, in ascending id order.
    // Anything else, or a member outside the node table, is corrupt.
    std::vector<CodedEngineState::DecoderSlot> slots(nodes_.size());
    std::uint32_t previousMember = 0;
    const std::size_t memberCount = in.length();
    for (std::size_t i = 0; i < memberCount; ++i) {
      const std::uint32_t member = in.u32();
      if (member >= slots.size()) {
        throw SerializeError("corrupt payload: decoder member id " +
                             std::to_string(member) + " >= node count " +
                             std::to_string(slots.size()));
      }
      if (i > 0 && member <= previousMember) {
        throw SerializeError(
            "corrupt payload: decoder member ids not ascending");
      }
      previousMember = member;
      CodedEngineState::DecoderSlot& slot = slots[member];
      slot.used = true;
      const std::size_t fileCount = in.length();
      for (std::size_t f = 0; f < fileCount; ++f) {
        const FileId file{in.u32()};
        if (!slot.files.empty() && !(slot.files.back().first < file)) {
          throw SerializeError("corrupt payload: decoder file ids of member " +
                               std::to_string(member) + " not ascending");
        }
        slot.files.emplace_back(file, coding::GenerationDecoder{});
        slot.files.back().second.loadState(in);
      }
    }
    coded_->decoders = std::move(slots);
  }

  internet_.loadState(in);
  metrics_.loadState(in);

  const std::size_t nodeCount = in.length();
  if (nodeCount != nodes_.size()) {
    throw SerializeError("corrupt payload: node count mismatch");
  }
  // The catalog is loaded first, so node records equal to its own (and to
  // each other) are re-shared, as they were before the save. Query objects
  // are re-shared the same way: one per file again. Every file's query is
  // seeded first, so a v5 stored proxied query, saved as its text, finds
  // its object even when the node that owns the query loads after the node
  // that stored it; the access sync's search cache finds its texts' objects
  // the same way.
  const FileCatalog& catalog = internet_.catalog();
  MetadataInterner records;
  QueryInterner queries;
  for (const FileId id : catalog.allFiles()) {
    records.seed(catalog.sharedMetadataFor(id));
    const FileInfo& info = *catalog.find(id);
    queries.seed(std::make_shared<const FileQuery>(
        canonicalQueryText(info), id, info.publishedAt, info.ttl));
  }
  StateRefReader refs(version, records, queries);
  for (Node& member : nodes_) member.loadState(in, refs);

  access_.reset();
  if (in.boolean()) accessSync().loadState(in, nodes_.size(), queries);
}

EngineResult runSimulation(const trace::ContactTrace& trace,
                           const EngineParams& params) {
  Engine engine(trace, params);
  return engine.run();
}

}  // namespace hdtn::core
