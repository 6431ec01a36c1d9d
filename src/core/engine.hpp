// Trace-driven simulation of the full cooperative file-sharing system.
//
// Implements the paper's simulation model (Section VI-A): n new files appear
// on the Internet every day at 2 PM with popularity drawn from the paper's
// distribution; each node queries each new file with probability equal to
// its popularity; a configurable fraction of nodes has Internet access and
// is serviced instantly; all other exchange happens inside trace contacts,
// with fixed per-contact budgets of metadata and file transmissions.
#pragma once

#include <array>
#include <bit>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/core/access_sync.hpp"
#include "src/core/download.hpp"
#include "src/core/download_planner.hpp"
#include "src/core/internet.hpp"
#include "src/faults/adversary.hpp"
#include "src/faults/faults.hpp"
#include "src/core/metrics.hpp"
#include "src/core/node.hpp"
#include "src/core/node_pool.hpp"
#include "src/core/protocol.hpp"
#include "src/core/recovery.hpp"
#include "src/core/reputation.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/contact_trace.hpp"
#include "src/util/random.hpp"
#include "src/util/serialize.hpp"
#include "src/util/sha1.hpp"
#include "src/util/types.hpp"

namespace hdtn::obs {
class EngineObserver;  // src/obs/events.hpp
struct SimEvent;
}

namespace hdtn::core {

struct CodedEngineState;  // RLNC decoders + coded RNG stream (engine.cpp)

/// Fake records each forger crafts per publication day.
inline constexpr int kForgeriesPerForgerPerDay = 3;

struct EngineParams {
  ProtocolConfig protocol;
  DownloadMode downloadMode = DownloadMode::kBroadcast;

  /// Fraction of nodes with direct Internet access (paper sweeps 0.1-0.9).
  double internetAccessFraction = 0.3;
  /// New files published per day at 2 PM.
  int newFilesPerDay = 40;
  /// File (and query) time-to-live in days.
  int fileTtlDays = 3;
  /// Metadata broadcasts allowed per contact.
  int metadataPerContact = 5;
  /// File transmissions allowed per contact (whole-file units; the piece
  /// budget is filesPerContact * piecesPerFile).
  int filesPerContact = 2;
  /// Ordering of the download push phase (paper: popularity;
  /// rarest-first is the BitTorrent-style alternative, Ablation A7).
  PushOrder pushOrder = PushOrder::kPopularity;
  /// Pieces per published file (kSyntheticPieceSizeBytes each); 1 matches
  /// the paper's whole-file exchange.
  std::uint32_t piecesPerFile = 1;
  /// Window defining the frequent-contact relation (3 days for DieselNet,
  /// 1 day for NUS per the paper).
  Duration frequentContactPeriod = 3 * kDay;
  /// Fraction of non-access nodes that free-ride (never transmit).
  double freeRiderFraction = 0.0;
  /// Access nodes fetch files peers advertised as wanted ("requesting
  /// URIs"), carrying them into the DTN.
  bool accessFetchesPeerRequests = true;
  /// Per-node piece-storage capacity in pieces; 0 = unbounded (the paper's
  /// model). Bounded nodes evict lowest-popularity incomplete files first.
  std::size_t nodePieceCapacity = 0;
  /// Per-node metadata-record capacity; 0 = unbounded (the paper's model).
  /// Bounded stores shed the least-popular record (oldest first at ties)
  /// and report each shed via the metadata_evicted event.
  std::size_t nodeMetadataCapacity = 0;
  /// Fraction of non-access nodes that are *forgers*: each publication day
  /// they craft kForgeriesPerForgerPerDay fake records mimicking the day's
  /// most popular files (copied names, inflated popularity, unverifiable
  /// authentication tags) and push them into the DTN. Models the paper's
  /// fake-publisher threat.
  double forgerFraction = 0.0;
  /// When true, nodes verify metadata authentication tags against the
  /// well-known publisher registry before accepting (paper Section III-B,
  /// metadata field (f)); forged records are rejected on contact.
  bool verifyMetadata = false;
  /// When true, the metadata server replaces publisher-assigned popularity
  /// with its *observed* estimate — the fraction of access nodes that
  /// requested the file in the past 24 h (paper Section IV). Query
  /// generation still uses the ground-truth interest probability; only the
  /// ranking/push order sees the estimate.
  bool useObservedPopularity = false;
  /// When non-empty, exactly these nodes have Internet access, no node
  /// free-rides, and internetAccessFraction and freeRiderFraction are
  /// ignored (scenario tests, examples).
  std::vector<NodeId> explicitAccessNodes;
  /// Fault injection (message loss, contact truncation, piece corruption,
  /// node churn; see src/faults/faults.hpp). All-zero rates disable the
  /// subsystem entirely: no plan is constructed, no extra RNG draws happen,
  /// and the run is byte-identical to one without fault support.
  faults::FaultParams faults;
  /// Self-healing layer (contact-level retransmission, coordinator
  /// failover, anti-entropy repair; see src/core/recovery.hpp and
  /// docs/RECOVERY.md). All-zero/false knobs disable the subsystem
  /// entirely: no state is constructed, no extra RNG draws happen, and the
  /// run is byte-identical to one without recovery support.
  RecoveryParams recovery;
  /// RLNC knobs, consulted only when downloadMode == DownloadMode::kCoded
  /// (see src/core/coding.hpp and docs/CODING.md). The coded RNG stream is
  /// forked only in coded mode, so the other modes stay byte-identical to
  /// builds without coding support.
  CodedParams coded;
  /// Byzantine adversary (coded-frame pollution, piece lies, false
  /// summaries, ack spoofing, coordinator abuse; see src/faults/adversary.hpp
  /// and docs/ADVERSARY.md). A zero fraction disables the subsystem
  /// entirely: no plan is constructed, no extra RNG draws happen, and the
  /// run is byte-identical to one without adversary support.
  faults::AdversaryParams adversary;
  /// Verify-and-quarantine defense layer (src/core/reputation.hpp). Off by
  /// default; when off, no tracker is constructed, pollution is delivered
  /// unverified (the undefended baseline), and the run is byte-identical to
  /// one without defense support.
  ReputationParams reputation;
  std::uint64_t seed = 42;

  /// Checks every field for consistency and returns one descriptive message
  /// per violation (empty when the configuration is valid): fractions must
  /// lie in [0, 1], per-contact budgets and daily publication count must be
  /// positive, piecesPerFile >= 1, TTL >= 1 day. Engine's constructor calls
  /// this and throws std::invalid_argument listing every problem, so a bad
  /// sweep fails loudly instead of silently misbehaving. The rules are rows
  /// of the parameter table (src/core/params.cpp).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Appends every EngineParams field to `out` in the order of its parameter
/// table (src/core/params.cpp): the configuration half of a checkpoint's
/// fingerprint.
void hashParams(Serializer& out, const EngineParams& params);

struct EngineTotals {
  std::uint64_t contactsProcessed = 0;
  std::uint64_t filesPublished = 0;
  std::uint64_t queriesGenerated = 0;
  std::uint64_t metadataBroadcasts = 0;
  std::uint64_t pieceBroadcasts = 0;
  std::uint64_t metadataReceptions = 0;
  std::uint64_t pieceReceptions = 0;
  std::uint64_t forgeriesCrafted = 0;
  /// Forged records stored by honest nodes (0 when verification is on).
  std::uint64_t forgeriesAccepted = 0;
  /// Forged records dropped at reception by the verifier.
  std::uint64_t forgeriesRejected = 0;
  // Fault-injection accounting (all zero when faults are disabled).
  /// Deliverable messages lost inside contacts (metadata or pieces).
  std::uint64_t faultMessagesDropped = 0;
  /// Contacts whose budgets were truncated.
  std::uint64_t faultContactsTruncated = 0;
  /// Pieces corrupted in flight and rejected by their SHA-1 checksum
  /// (never stored; the receiver re-requests at later contacts).
  std::uint64_t faultPiecesRejectedCorrupt = 0;
  /// Churn down intervals whose start the run has executed.
  std::uint64_t faultNodeDownIntervals = 0;
  // Recovery accounting (all zero when recovery is disabled).
  /// Deliverable frames lost while a reliable session was recording (each
  /// gets at least one retransmission attempt, budget permitting).
  std::uint64_t recoveryFramesLost = 0;
  /// Retransmission attempts (in-contact rounds + cross-contact serves).
  std::uint64_t recoveryRetransmits = 0;
  /// Retransmitted frames that were stored by their receiver.
  std::uint64_t recoveryRedeliveries = 0;
  /// Broadcast rounds resumed under an elected successor coordinator.
  std::uint64_t coordinatorFailovers = 0;
  /// Anti-entropy push attempts (metadata or piece).
  std::uint64_t repairRequests = 0;
  /// Metadata records shed by bounded stores (capacity pressure).
  std::uint64_t metadataEvictions = 0;
  // Network-coding accounting (all zero outside coded mode).
  /// Coded frames sent (each reaches every incomplete clique member).
  std::uint64_t codedBroadcasts = 0;
  /// Receptions that raised a receiver's decoder rank.
  std::uint64_t codedInnovativeFrames = 0;
  /// Receptions whose coefficients were already in the receiver's row space.
  std::uint64_t codedRedundantFrames = 0;
  /// Generations decoded to full rank (source pieces recovered).
  std::uint64_t generationsDecoded = 0;
  /// Coded frames rejected before folding (corrupted payloads).
  std::uint64_t codedDecodeFailures = 0;
  /// Gaussian-elimination row operations performed by receivers — the
  /// deterministic decode-CPU proxy reported by bench_robustness.
  std::uint64_t codedDecodeRowOps = 0;
  /// Degenerate coded frames rejected before any row operation (all-zero
  /// or over-length coefficient vectors).
  std::uint64_t codedDegenerateFrames = 0;
  // Byzantine adversary accounting (all zero when the adversary is off).
  /// Attack opportunities a Byzantine node acted on (any kind).
  std::uint64_t adversaryAttacks = 0;
  /// Polluted coded frames injected by Byzantine senders.
  std::uint64_t pollutionInjected = 0;
  /// Polluted rows caught by decode-time verification (defense on).
  std::uint64_t pollutionDetected = 0;
  /// Full-rank generations whose decoded output was garbage and was
  /// delivered anyway (defense off — the undefended collapse).
  std::uint64_t pollutedDeliveries = 0;
  /// Tainted generations discarded and re-collected (defense on).
  std::uint64_t generationsRolledBack = 0;
  /// Named-piece transfers where a Byzantine sender lied about the payload
  /// (always caught by the metadata SHA-1 checksum; the slot is burnt).
  std::uint64_t piecesLied = 0;
  /// Bloom summaries forged (emptied) by Byzantine repair receivers.
  std::uint64_t summariesForged = 0;
  /// Bogus loss reports injected into retransmission queues.
  std::uint64_t acksSpoofed = 0;
  /// Planned broadcasts silently dropped by Byzantine coordinators.
  std::uint64_t broadcastsSuppressed = 0;
  // Defense accounting (all zero when the defense is off).
  /// Nodes that entered quarantine (counts entries, not distinct nodes).
  std::uint64_t nodesQuarantined = 0;
  /// Quarantines released by suspicion decay.
  std::uint64_t nodesReleased = 0;
  /// Quarantine entries whose node was in fact honest (ground truth).
  std::uint64_t falseQuarantines = 0;
};

/// EngineTotals is one flat block of 64-bit counters. Checkpoints, sharded
/// merges and result digests walk it word by word in declaration order, so
/// a new counter is saved, loaded and merged without further code (and
/// changes the checkpoint layout).
using EngineTotalsWords =
    std::array<std::uint64_t, sizeof(EngineTotals) / sizeof(std::uint64_t)>;
static_assert(std::has_unique_object_representations_v<EngineTotals> &&
                  sizeof(EngineTotals) == sizeof(EngineTotalsWords),
              "EngineTotals must hold only std::uint64_t counters");

[[nodiscard]] inline EngineTotalsWords totalsWords(const EngineTotals& t) {
  return std::bit_cast<EngineTotalsWords>(t);
}

[[nodiscard]] inline EngineTotals totalsFromWords(
    const EngineTotalsWords& words) {
  return std::bit_cast<EngineTotals>(words);
}

struct EngineResult {
  DeliveryReport delivery;             ///< non-access nodes (the paper's metric)
  DeliveryReport accessDelivery;       ///< access nodes (sanity ~ 1.0)
  DeliveryReport contributorDelivery;  ///< non-access, non-free-riding
  DeliveryReport freeRiderDelivery;    ///< non-access free-riders
  EngineTotals totals;
};

/// Trace-driven simulation engine with incremental execution.
///
/// The run can be driven three ways, all producing byte-identical results:
///   * `run()` — the classic single shot (a thin wrapper over finish()).
///   * `runUntil(t)` repeatedly, then `finish()` — advance in time slices,
///     inspecting nodes / metrics / `currentResult()` between slices (this
///     is how obs::runSampled records delivery-ratio trajectories).
///   * `step()` in a loop — one simulation event at a time.
/// `run()` / `finish()` return the final result exactly once; a second call
/// throws std::logic_error. An optional obs::EngineObserver receives typed
/// events (see src/obs/events.hpp); with none attached the event hooks cost
/// one branch.
class Engine : private AccessSync::Host {
 public:
  /// Throws std::invalid_argument when params.validate() reports errors.
  Engine(const trace::ContactTrace& trace, EngineParams params);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the whole trace and returns the final metrics. Equivalent to
  /// finish(); throws std::logic_error when the run already finished.
  EngineResult run();

  /// Executes exactly one pending simulation event (a publication instant
  /// or one contact). Returns false when no events remain. Throws
  /// std::logic_error after finish().
  bool step();

  /// Executes every event strictly before `horizon` (same semantics as
  /// sim::Simulator::runUntil). Throws std::logic_error after finish().
  void runUntil(SimTime horizon);

  /// Drains the remaining events and returns the final metrics. At most
  /// one of run()/finish() may complete; a second call throws
  /// std::logic_error.
  EngineResult finish();

  /// True once run()/finish() returned the final result.
  [[nodiscard]] bool finished() const { return finished_; }

  /// Simulation clock: time of the last executed event.
  [[nodiscard]] SimTime now() const { return sim_.now(); }

  /// End of the driving trace (the natural horizon of the run).
  [[nodiscard]] SimTime endTime() const { return trace_.endTime(); }

  /// Events not yet executed; 0 before the first step and after finish().
  [[nodiscard]] std::size_t pendingEvents() const {
    return sim_.pendingEvents();
  }

  /// Snapshot of the metrics as of the current clock — the same structure
  /// run() returns, computable at any point of a stepped run.
  [[nodiscard]] EngineResult currentResult() const;

  /// Attaches (or detaches, with nullptr) the event observer. Non-owning;
  /// the observer must outlive the run. Attach before stepping to see the
  /// whole stream.
  void setObserver(obs::EngineObserver* observer);

  // Introspection (tests, examples).
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] std::size_t nodeCount() const { return nodes_.size(); }
  [[nodiscard]] const InternetServices& internet() const { return internet_; }
  [[nodiscard]] const MetricsCollector& metrics() const { return metrics_; }
  [[nodiscard]] const EngineParams& params() const { return params_; }
  [[nodiscard]] const EngineTotals& totals() const { return totals_; }
  [[nodiscard]] std::vector<NodeId> accessNodes() const;
  /// The run's fault schedule; nullptr when faults are disabled.
  [[nodiscard]] const faults::FaultPlan* faultPlan() const {
    return faults_.get();
  }
  /// Cross-contact recovery state (pending retransmissions); nullptr when
  /// recovery is disabled.
  [[nodiscard]] const RecoveryState* recoveryState() const {
    return recovery_.get();
  }
  /// The run's Byzantine adversary; nullptr when the adversary is off.
  [[nodiscard]] const faults::AdversaryPlan* adversaryPlan() const {
    return adversary_.get();
  }
  /// The defense layer's suspicion tracker; nullptr when the defense is off.
  [[nodiscard]] const ReputationTracker* reputationTracker() const {
    return reputation_.get();
  }

  // --- checkpoint/restore (src/core/checkpoint.cpp) -----------------------

  /// Writes a versioned, checksummed snapshot of the complete engine state
  /// to `path` (atomically, via temp file + rename). Legal at any step
  /// boundary, including before the first step and after the last event;
  /// throws std::logic_error after finish(). `extra` is an opaque
  /// caller-supplied blob stored alongside the state (e.g. output-sink byte
  /// offsets; see readCheckpointInfo); throws CheckpointError on I/O
  /// failure. See docs/CHECKPOINT.md for the format and guarantees.
  void saveCheckpoint(const std::string& path,
                      std::string_view extra = {}) const;

  /// Restores the state saved by saveCheckpoint into this engine, which
  /// must be freshly constructed (same trace and params, not yet stepped,
  /// no observer attached — attach sinks after restoring). Finishing the
  /// restored run is byte-identical to the uninterrupted run; an observer
  /// attached after the restore sees the events an uninterrupted observed
  /// run emits after the restored clock, file expiries included. Throws
  /// CheckpointError on a corrupt, truncated, version-mismatched, or
  /// configuration-mismatched file — the engine is only mutated after the
  /// payload checksum and the configuration fingerprint both verify.
  void restoreCheckpoint(const std::string& path);

  /// SHA-1 over the engine configuration (params + trace identity); stored
  /// in checkpoints so a restore into a different run fails loudly.
  [[nodiscard]] Sha1Digest configFingerprint() const;

  // --- sharded / streaming support (see core/sharded_engine.hpp) ----------
  //
  // A sharded run decomposes the trace into contact-connected components
  // and runs one Engine per component. These hooks give the component
  // engines the two properties the decomposition needs: a publication
  // stream shared by every component (identical daily catalogs) and a
  // publish horizon independent of the component's own last contact.

  /// Draws publication randomness (the daily synthetic batch) from an
  /// independent stream seeded with `seed` instead of the engine stream.
  /// Every component engine of a sharded run receives the same publish
  /// seed, so all components publish the identical catalog no matter how
  /// many node/query draws their own streams consumed. Must be called
  /// before the first advance.
  void usePublishStream(std::uint64_t seed);

  /// Extends the daily publication schedule through `horizon` when the
  /// trace (or component sub-trace) ends earlier, so every component
  /// publishes the same number of days and users keep issuing queries
  /// through the global horizon. Must be called before the first advance.
  void setPublishHorizon(SimTime horizon);

  /// Feed mode: schedules publications (and churn observations) only; the
  /// caller then pushes contacts one at a time in ascending start order
  /// with feedContact(), and finish() drains the tail. The trace passed to
  /// the constructor acts as the node universe (typically contact-less);
  /// consequences: the frequent-contact relation is empty (MBT query
  /// proxying is inert) and fault churn intervals are empty (the plan
  /// horizon is the placeholder trace's end). Message loss, truncation,
  /// and corruption faults still apply per contact.
  void beginFeed();

  /// Runs every event up to and including the contact's start instant
  /// (publications first at equal instants, as in a scheduled run), then
  /// the contact itself. With replay=true the events are skipped, not run
  /// — checkpoint restore rebuilds the schedule position this way.
  void feedContact(const trace::Contact& contact, bool replay = false);

  /// Replay companion to runUntil(horizon): discards every remaining
  /// scheduled event strictly before `horizon` without running it.
  void skipReplayUntil(SimTime horizon);

 private:
  friend class ShardedEngine;  // component (de)serialization, sim position

  void setupNodes();
  /// Builds the event schedule lazily, on the first advance.
  void ensureScheduled();
  /// Daily 2 PM publication events through max(trace end, publish horizon).
  void schedulePublications();
  /// The last publication instant at or before `t`; 0 before the first.
  [[nodiscard]] SimTime lastPublishAtOrBefore(SimTime t) const;
  /// Churn transition observation events (no-op without a fault plan).
  void scheduleChurnEvents();
  void throwIfFinished(const char* what) const;
  /// Forwards to the attached observer; no-op (one branch) when detached.
  void emit(const obs::SimEvent& event);
  void publishDay(SimTime now);
  void processContact(const trace::Contact& contact);
  /// The access sync, created on first use (a checkpoint records whether
  /// it exists).
  AccessSync& accessSync();
  // AccessSync::Host.
  void gotMetadata(const Node& node, FileId file, SimTime now) override;
  void deliverWholeFile(Node& node, FileId file, SimTime now) override;
  void expireNodeData(Node& node, SimTime now);
  void runDiscoveryPhase(const std::vector<Node*>& members, SimTime now,
                         int metadataBudget, RecoverySession* session);
  void runDownloadPhase(const std::vector<Node*>& members, SimTime now,
                        int pieceBudget, RecoverySession* session);
  /// What the link did with one frame for one receiver.
  enum class Link {
    kDelivered,  ///< the receiver gets the frame
    kLost,       ///< the channel dropped it
    kRejected,   ///< it arrived but failed its checksum (corruption, a lie)
  };
  /// True when a frame can fail to arrive (faults or the adversary on); the
  /// clean path tests this inline and never calls transmit.
  [[nodiscard]] bool linkCanFail() const {
    return faults_ != nullptr || adversary_ != nullptr;
  }
  /// The link model: decides whether `frame` (metadata, named piece, or
  /// coded frame; see LostFrame) reaches its receiver. Per receiver it draws
  /// metadata: loss; named piece: the Byzantine lie, then loss, then
  /// corruption; coded frame: loss, then corruption. Owns the counters,
  /// fault/attack events and lie evidence those draws produce; the caller
  /// owns recovery bookkeeping (docs/FAULTS.md, "Link model").
  Link transmit(const LostFrame& frame, SimTime now);
  /// First transmission of `frame`: returns true when delivered. A frame
  /// the channel drops is noted in `session` (when attached) and counted in
  /// recoveryFramesLost; a rejected one is not (the receiver re-requests it).
  bool sendFirst(const LostFrame& frame, RecoverySession* session,
                 SimTime now);
  /// Delivers one planned coded broadcast: draws a coefficient seed per
  /// frame, folds the frame into every incomplete member's decoder, credits
  /// innovative receptions, and converts full-rank decoders into stored
  /// pieces. Only called in coded mode (coded_ non-null).
  void deliverCodedBroadcast(const CodedBroadcast& cb,
                             const std::vector<Node*>& members, SimTime now,
                             RecoverySession* session);
  /// One coded frame as its sender emits it.
  struct CodedFrame {
    std::vector<std::uint8_t> coefficients;
    /// Byzantine junk: injected by this sender or relayed from a tainted
    /// row space.
    bool polluted = false;
    /// The injecting attacker, or GenerationDecoder::kNoOrigin.
    std::uint32_t origin = 0;
  };
  /// The sender-side draws for one coded frame from coefficient seed
  /// `seed`: the pollution draw (counted and evented when a Byzantine
  /// sender pollutes), then a fresh sparse combination from a complete
  /// holder or a recoded row-space mix from a partial one.
  CodedFrame codedFrame(Node& sender, FileId file,
                        std::uint32_t generationSize, std::uint64_t seed,
                        SimTime now);
  /// Folds one coded frame into `receiver`'s decoder with full accounting
  /// (innovation counters, credits, decode-at-full-rank). Returns true when
  /// the frame was innovative. Shared by the broadcast and recovery paths.
  /// At full rank a tainted decoder is rolled back (defense on) or delivers
  /// garbage (defense off).
  bool deliverCodedFrameTo(Node& receiver, NodeId sender, FileId file,
                           std::uint32_t generationSize, bool requested,
                           const CodedFrame& frame, const FileInfo& info,
                           SimTime now);
  /// Stores `md` at `node`, verifying it first when params_.verifyMetadata
  /// is on (every node but a forger checks the authentication tag against
  /// the publisher registry, paper Section III-B field (f)): a forgery is
  /// counted and remembered as rejected instead. A record the node's
  /// bounded store sheds to make room is counted and evented. Returns true
  /// when the node did not hold `md`'s file and now does.
  bool storeMetadata(Node& node, const SharedMetadata& md,
                     SimTime now) override;
  /// Counts and events one record `node`'s bounded store shed.
  void noteMetadataEvicted(const Node& node, const Metadata& md);
  /// Stores one metadata record at `receiver` with full accounting
  /// (reception counter, verification/rejection handling, credits, metrics,
  /// events). Shared by the discovery, retransmission, and repair paths;
  /// the receiver's store shares `md` with the sender's.
  void deliverMetadataTo(Node& receiver, NodeId sender,
                         const SharedMetadata& md, SimTime now);
  /// Stores one piece at `receiver` with full accounting. Shared by the
  /// download, retransmission, and repair paths.
  void deliverPieceTo(Node& receiver, NodeId sender, FileId file,
                      std::uint32_t piece, const FileInfo& info,
                      bool requested, SimTime now);
  /// One retransmission attempt of `frame` (counted + evented): sends it
  /// through the link again and delivers on success; any failure re-queues
  /// it into `session` (when attached and retries remain).
  void attemptRedelivery(LostFrame frame, RecoverySession* session,
                         SimTime now);
  /// Serves every cross-contact pending frame whose sender and receiver
  /// both attend this contact.
  void servePendingRecoveries(const std::vector<Node*>& members,
                              RecoverySession* session, SimTime now);
  /// Anti-entropy repair: receivers summarise their holdings in a Bloom
  /// summary vector; peers push query-matching metadata and wanted pieces
  /// the summary proves missing, under params_.recovery.repairPerContact.
  void runRepairPhase(const std::vector<Node*>& members, SimTime now,
                      RecoverySession* session);
  /// Charges one anomaly against `suspect` (no-op when the defense is off);
  /// counts/events newly entered quarantines and ground-truth false ones.
  void noteEvidence(NodeId suspect, EvidenceKind kind, SimTime now);
  /// True while `node` is quarantined by the defense layer (always false
  /// when the defense is off). Applies lazy suspicion decay and
  /// counts/events releases.
  bool isQuarantined(NodeId node, SimTime now);
  // Checkpoint internals. Component (de)serialization lives in engine.cpp
  // (it touches the file-local CodedEngineState); the file format,
  // checksum, fingerprint, and schedule-replay logic live in checkpoint.cpp.
  // `version` is the file's format version (kOldestCheckpointVersion to
  // kCheckpointVersion); saves write kCheckpointVersion.
  void saveComponentState(Serializer& out) const;
  void loadComponentState(Deserializer& in, std::uint32_t version);

  const trace::ContactTrace& trace_;
  EngineParams params_;
  std::uint32_t nextForgedId_ = 1u << 24;  // kForgedIdBase in engine.cpp
  Rng rng_;
  InternetServices internet_;
  MetricsCollector metrics_;
  NodePool nodes_;
  /// Null when params_.faults is disabled (the zero-cost clean path: every
  /// fault site costs one pointer test, like the observer hooks).
  std::unique_ptr<faults::FaultPlan> faults_;
  /// Null when params_.recovery is disabled (same zero-cost discipline).
  std::unique_ptr<RecoveryState> recovery_;
  /// RLNC decoders + dedicated coefficient-seed stream; null outside coded
  /// mode (same zero-cost discipline as faults_/recovery_).
  std::unique_ptr<CodedEngineState> coded_;
  /// Null when params_.adversary is disabled (same zero-cost discipline).
  std::unique_ptr<faults::AdversaryPlan> adversary_;
  /// Null when params_.reputation (the defense) is disabled.
  std::unique_ptr<ReputationTracker> reputation_;
  /// Resolved once from the download-mode registry; never null after
  /// construction.
  const DownloadPlanner* planner_ = nullptr;
  EngineTotals totals_;
  std::unique_ptr<AccessSync> access_;
  /// Per-contact scratch: the member views one contact (or one access
  /// sync) asks for repeatedly. Owned by this engine alone.
  ContactViews views_;
  /// The discovery and download planners' working arrays, reused from
  /// contact to contact. Owned by this engine alone, like views_.
  DiscoveryScratch discoveryScratch_;
  DownloadScratch downloadScratch_;
  sim::Simulator sim_;
  obs::EngineObserver* observer_ = nullptr;
  /// Files whose expiry was already evented (advanced at publish instants
  /// while an observer listens; checkpointed).
  SimTime expiryScanUpTo_ = 0;
  /// A restore's last publish instant at or before the restored clock: the
  /// run it resumes evented every expiry up to there. Not checkpointed, so
  /// a save writes what the uninterrupted run would.
  SimTime expiryScanFloor_ = 0;
  /// Independent publication stream; engaged by usePublishStream (sharded
  /// runs share one publish seed across every component engine).
  Rng publishRng_{0};
  bool hasPublishRng_ = false;
  /// Extends the publication schedule past the trace end; see
  /// setPublishHorizon.
  SimTime publishHorizon_ = 0;
  /// Feed mode: contacts arrive via feedContact instead of the trace.
  bool feeding_ = false;
  bool scheduled_ = false;
  bool finished_ = false;
  /// Size of the last checkpoint file saved, to reserve the next one's
  /// buffer up front. Not part of the checkpointed state.
  mutable std::size_t checkpointSizeHint_ = 0;
};

/// Convenience: builds, runs, and returns the result in one call.
EngineResult runSimulation(const trace::ContactTrace& trace,
                           const EngineParams& params);

}  // namespace hdtn::core
