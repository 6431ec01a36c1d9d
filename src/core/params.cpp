// The parameter tables: one row per field of EngineParams and of every
// struct nested in it, of TraceSpec, and of the Scenario's own settings. A
// row names the field as messages spell it, its scenario key (which is also
// its hdtn_sim flag) when it has one, the field itself, its single-field
// range rule and its help line. Everything that lists fields reads these
// rows: Scenario::apply, knownKeys and keyHelp, each params struct's
// validate(), and the configuration half of the checkpoint fingerprint
// (hashParams). Only rules that relate two fields are written out as code,
// in the validate() of the struct that owns them.
//
// EngineParams rows, nested ones included, are listed in fingerprint order:
// hashParams writes the fields in row order, so moving, adding or removing
// a row changes the checkpoint format (docs/CHECKPOINT.md). A field that
// became a constant keeps its place as a Fixed row, which hashParams writes
// like the field it replaces and every other walker skips.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/access_sync.hpp"
#include "src/core/download_planner.hpp"
#include "src/core/engine.hpp"
#include "src/core/scenario.hpp"
#include "src/faults/adversary.hpp"
#include "src/util/args.hpp"
#include "src/util/serialize.hpp"

namespace hdtn::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A single-field rule. A number outside [lo, hi] (an open end excludes its
/// bound) reads "<name> must be <text>, got <value>"; a text field must be
/// one of the '|'-separated alternatives of `text`; a nonzero `mask` allows
/// only those bits and reads "<name> <text><unknown bits>".
struct Range {
  const char* text = nullptr;  ///< nullptr: the field has no rule
  double lo = -kInf;
  double hi = kInf;
  bool loOpen = false;
  bool hiOpen = false;
  bool showValue = true;  ///< false: the message ends after the rule
  std::uint32_t mask = 0;
};

/// The most hours whose seconds fit an int64: for any double up to it,
/// hours * kHour rounds below 2^63, so its cast to a duration is defined.
constexpr double kMaxHours = 2562047788015215.0;
static_assert(kMaxHours * kHour < 0x1p63 && (kMaxHours + 1) * kHour > 0x1p63);

constexpr Range kFraction{"in [0, 1]", 0.0, 1.0};
constexpr Range kAtLeastOne{">= 1", 1.0};
constexpr Range kAtLeastZero{">= 0", 0.0};
constexpr Range kBudget{"a positive budget", 1.0};
constexpr Range kPositive{"positive", 0.0, kInf, true};
constexpr Range kPositiveCadence{"positive", 0.0, kInf, true, false, false};

/// How a key's text becomes the field's value when the field's type alone
/// (boolean, integer, number, enum name or verbatim text) does not say.
enum class Form : std::uint8_t {
  kPlain,
  kCount,          ///< an integer >= 0 for an unsigned field
  kPositiveCount,  ///< an integer >= 1
  kDays,           ///< an integer number of days, stored in seconds
  kHours,          ///< a positive number of hours, stored in seconds
};

template <class S, class T>
struct Row {
  using Value = T;

  /// The field as messages spell it; "" for a nested struct whose
  /// messages carry no prefix.
  const char* name;
  /// Scenario key and hdtn_sim flag; nullptr when the field has none.
  const char* key = nullptr;
  T S::*field = nullptr;
  Range rule{};
  const char* help = nullptr;
  Form form = Form::kPlain;
  /// Enum fields: the key's spellings of values 0, 1, ... ("mbt|mbt-q").
  const char* names = nullptr;
  /// A key whose text is not one value of the field's type: sets the field
  /// (and whatever else the key means) or returns the error.
  std::string (*set)(S&, const std::string& key,
                     const std::string& value) = nullptr;
  /// The help line's spelling of such a key's current value.
  std::string (*show)(const S&) = nullptr;
};

/// A retired field: the constant that replaced it, hashed at the field's
/// old position with the field's old encoding, so every configuration that
/// can still be expressed keeps its fingerprint and every saved checkpoint
/// still restores.
template <class T>
struct Fixed {
  using Value = T;

  const char* name;  ///< the retired field
  T value;
};

std::string badValue(const std::string& key, const std::string& value,
                     const char* expected) {
  return "key '" + key + "': expected " + expected + ", got '" + value + "'";
}

// --- the tables -------------------------------------------------------------

constexpr std::tuple kProtocolRows{
    Row{.name = "kind", .key = "protocol", .field = &ProtocolConfig::kind,
        .help = "protocol variant", .names = "mbt|mbt-q|mbt-qm"},
    Row{.name = "scheduling", .key = "scheduling",
        .field = &ProtocolConfig::scheduling, .help = "download scheduling",
        .names = "coop|tft"},
};

constexpr std::tuple kFaultRows{
    Row{.name = "messageLossRate", .key = "loss-rate",
        .field = &faults::FaultParams::messageLossRate, .rule = kFraction,
        .help = "fault: per-message loss probability"},
    Row{.name = "contactTruncationRate", .key = "truncation-rate",
        .field = &faults::FaultParams::contactTruncationRate,
        .rule = kFraction, .help = "fault: contact truncation probability"},
    Row{.name = "truncationKeepMin", .key = "truncation-keep-min",
        .field = &faults::FaultParams::truncationKeepMin,
        .help = "fault: least budget share a truncated contact keeps"},
    Row{.name = "truncationKeepMax", .key = "truncation-keep-max",
        .field = &faults::FaultParams::truncationKeepMax,
        .help = "fault: most budget share a truncated contact keeps"},
    Row{.name = "pieceCorruptionRate", .key = "corruption-rate",
        .field = &faults::FaultParams::pieceCorruptionRate,
        .rule = kFraction, .help = "fault: piece corruption probability"},
    Row{.name = "churnDownFraction", .key = "churn-fraction",
        .field = &faults::FaultParams::churnDownFraction,
        .rule = {"in [0, 1)", 0.0, 1.0, false, true},
        .help = "fault: long-run down-time fraction"},
    Row{.name = "churnMeanDowntime", .key = "churn-downtime-hours",
        .field = &faults::FaultParams::churnMeanDowntime,
        .help = "fault: mean length of one down interval, hours",
        .form = Form::kHours},
};

constexpr std::tuple kRecoveryRows{
    Row{.name = "maxRetries", .key = "recovery-retries",
        .field = &RecoveryParams::maxRetries, .rule = kAtLeastZero,
        .help = "recovery: retransmission attempts per frame"},
    Row{.name = "retransmitBudget", .key = "recovery-retransmit-budget",
        .field = &RecoveryParams::retransmitBudget,
        .help = "recovery: resend slots per contact"},
    Row{.name = "repairPerContact", .key = "recovery-repair",
        .field = &RecoveryParams::repairPerContact, .rule = kAtLeastZero,
        .help = "recovery: anti-entropy requests per contact"},
    Row{.name = "repairQueueLimit", .key = "recovery-queue-limit",
        .field = &RecoveryParams::repairQueueLimit, .rule = kAtLeastOne,
        .help = "recovery: pending retransmissions kept per sender",
        .form = Form::kPositiveCount},
    Row{.name = "coordinatorFailover", .key = "recovery-failover",
        .field = &RecoveryParams::coordinatorFailover,
        .help = "recovery: elect a new clique coordinator"},
};

constexpr std::tuple kCodedRows{
    Row{.name = "redundancy", .key = "coded-redundancy",
        .field = &CodedParams::redundancy, .rule = {"in [0, 4]", 0.0, 4.0},
        .help = "coded: extra frames per deficit fraction"},
    Row{.name = "sparsity", .key = "coded-sparsity",
        .field = &CodedParams::sparsity,
        .rule = {"in (0, 1]", 0.0, 1.0, true},
        .help = "coded: coefficient-vector density"},
};

constexpr std::tuple kAdversaryRows{
    Row{.name = "byzantineFraction", .key = "adversary-fraction",
        .field = &faults::AdversaryParams::byzantineFraction,
        .rule = kFraction, .help = "Byzantine fraction (docs/ADVERSARY.md)"},
    Row{.name = "attacks", .key = "adversary-attacks",
        .field = &faults::AdversaryParams::attacks,
        .rule = {.text = "mask has unknown bits set: ",
                 .mask = faults::kAllAttacks},
        .help = "attack mask: pollution,piece-lie,false-summary,ack-spoof,"
                "coordinator",
        .set = +[](faults::AdversaryParams& p, const std::string& key,
                   const std::string& value) -> std::string {
          // A bare switch names no attack; "none" turns them all off.
          std::string offender;
          if (value.empty() ||
              !faults::parseAttackMask(value, &p.attacks, &offender)) {
            return badValue(key, offender.empty() ? value : offender,
                            "a comma-separated attack list "
                            "(pollution|piece-lie|false-summary|ack-spoof|"
                            "coordinator), 'all', or 'none'");
          }
          return "";
        },
        .show = +[](const faults::AdversaryParams& p) {
          return faults::attackMaskName(p.attacks);
        }},
};

constexpr std::tuple kReputationRows{
    Row{.name = "defense", .key = "defense",
        .field = &ReputationParams::defense,
        .help = "enable verification + quarantine defenses"},
    Row{.name = "quarantineThreshold", .key = "quarantine-threshold",
        .field = &ReputationParams::quarantineThreshold, .rule = kPositive,
        .help = "suspicion level that quarantines a node"},
    Fixed{.name = "decayPerDay", .value = kSuspicionDecayPerDay},
};

constexpr std::tuple kEngineRows{
    Row{.name = "protocol", .field = &EngineParams::protocol},
    Row{.name = "downloadMode", .key = "download-mode",
        .field = &EngineParams::downloadMode,
        .help = "download mode: coop|tft|popularity|pairwise|coded "
                "(docs/CODING.md)",
        .set = +[](EngineParams& p, const std::string& key,
                   const std::string& value) -> std::string {
          const DownloadModeInfo* info = findDownloadMode(value);
          if (info == nullptr) {
            return badValue(key, value, "coop|tft|popularity|pairwise|coded");
          }
          p.downloadMode = info->mode;
          p.protocol.scheduling = info->scheduling;
          return "";
        },
        .show = +[](const EngineParams& p) -> std::string {
          return downloadModeName(p.downloadMode, p.protocol.scheduling);
        }},
    Row{.name = "internetAccessFraction", .key = "access",
        .field = &EngineParams::internetAccessFraction, .rule = kFraction,
        .help = "Internet-access fraction"},
    Row{.name = "newFilesPerDay", .key = "files-per-day",
        .field = &EngineParams::newFilesPerDay, .rule = kAtLeastOne,
        .help = "files published per day"},
    Row{.name = "fileTtlDays", .key = "ttl-days",
        .field = &EngineParams::fileTtlDays, .rule = kAtLeastOne,
        .help = "file/query time-to-live, days"},
    Row{.name = "metadataPerContact", .key = "md-per-contact",
        .field = &EngineParams::metadataPerContact, .rule = kBudget,
        .help = "metadata budget per contact"},
    Row{.name = "filesPerContact", .key = "files-per-contact",
        .field = &EngineParams::filesPerContact, .rule = kBudget,
        .help = "file budget per contact"},
    // Budgets are fixed per contact (the paper's model): they do not scale
    // with the contact's duration.
    Fixed{.name = "scaleBudgetsWithDuration", .value = false},
    Fixed{.name = "referenceContactDuration", .value = Duration{10 * kMinute}},
    Row{.name = "pushOrder", .field = &EngineParams::pushOrder},
    Row{.name = "piecesPerFile", .key = "pieces-per-file",
        .field = &EngineParams::piecesPerFile, .rule = kAtLeastOne,
        .help = "pieces per published file", .form = Form::kCount},
    Fixed{.name = "pieceSizeBytes", .value = kSyntheticPieceSizeBytes},
    Row{.name = "frequentContactPeriod", .key = "frequent-days",
        .field = &EngineParams::frequentContactPeriod,
        .rule = {"positive seconds", 0.0, kInf, true},
        .help = "frequent-contact window, days", .form = Form::kDays},
    Row{.name = "freeRiderFraction", .key = "free-riders",
        .field = &EngineParams::freeRiderFraction, .rule = kFraction,
        .help = "free-riding fraction"},
    Row{.name = "accessFetchesPeerRequests",
        .field = &EngineParams::accessFetchesPeerRequests},
    Row{.name = "nodePieceCapacity",
        .field = &EngineParams::nodePieceCapacity},
    Row{.name = "forgerFraction", .field = &EngineParams::forgerFraction,
        .rule = kFraction},
    Fixed{.name = "forgeriesPerForgerPerDay",
          .value = kForgeriesPerForgerPerDay},
    Row{.name = "verifyMetadata", .field = &EngineParams::verifyMetadata},
    Row{.name = "useObservedPopularity", .key = "observed-popularity",
        .field = &EngineParams::useObservedPopularity,
        .help = "rank by server-observed popularity"},
    Row{.name = "explicitAccessNodes",
        .field = &EngineParams::explicitAccessNodes},
    // No list names free riders: they come from freeRiderFraction alone.
    Fixed{.name = "explicitFreeRiders", .value = std::span<const NodeId>{}},
    Fixed{.name = "accessMetadataSyncFraction",
          .value = AccessSync::kStockFraction},
    Fixed{.name = "accessMetadataSyncLimit", .value = AccessSync::kStockLimit},
    Row{.name = "faults", .field = &EngineParams::faults},
    Row{.name = "nodeMetadataCapacity", .key = "md-capacity",
        .field = &EngineParams::nodeMetadataCapacity,
        .help = "metadata records per node (0 = unbounded)",
        .form = Form::kCount},
    Row{.name = "recovery", .field = &EngineParams::recovery},
    Row{.name = "coded", .field = &EngineParams::coded},
    Row{.name = "adversary", .field = &EngineParams::adversary},
    Row{.name = "reputation", .field = &EngineParams::reputation},
    Row{.name = "seed", .key = "seed", .field = &EngineParams::seed,
        .help = "simulation seed"},
};

// TraceSpec's messages spell its fields by key. `trace` comes before
// `trace-family`, so a flag naming a family overrides a file's trace path.
constexpr std::tuple kTraceRows{
    Row{.name = "trace", .key = "trace", .field = &TraceSpec::path,
        .help = "contact trace file (or trace-family=nus|dieselnet|rwp)",
        .set = +[](TraceSpec& t, const std::string&,
                   const std::string& value) -> std::string {
          t.family = "file";
          t.path = value;
          return "";
        }},
    Row{.name = "trace-family", .key = "trace-family",
        .field = &TraceSpec::family, .rule = {"file|nus|dieselnet|rwp"},
        .help = "trace source"},
    Row{.name = "trace-seed", .key = "trace-seed", .field = &TraceSpec::seed,
        .help = "generator seed"},
    Row{.name = "trace-days", .key = "trace-days", .field = &TraceSpec::days,
        .rule = {">= 0 (0 = default)", 0.0, kInf, false, false, false},
        .help = "generator days (0 = family default)"},
    Row{.name = "trace-students", .key = "trace-students",
        .field = &TraceSpec::students, .help = "nus: students"},
    Row{.name = "trace-courses", .key = "trace-courses",
        .field = &TraceSpec::courses, .help = "nus: courses"},
    Row{.name = "trace-courses-per-student",
        .key = "trace-courses-per-student",
        .field = &TraceSpec::coursesPerStudent,
        .help = "nus: courses each student takes"},
    Row{.name = "trace-attendance", .key = "trace-attendance",
        .field = &TraceSpec::attendance, .rule = kFraction,
        .help = "nus: probability a student attends a session"},
    Row{.name = "trace-buses", .key = "trace-buses",
        .field = &TraceSpec::buses, .help = "dieselnet: buses"},
    Row{.name = "trace-routes", .key = "trace-routes",
        .field = &TraceSpec::routes, .help = "dieselnet: routes"},
    Row{.name = "trace-nodes", .key = "trace-nodes",
        .field = &TraceSpec::nodes, .help = "rwp: nodes"},
    Row{.name = "trace-hours", .key = "trace-hours",
        .field = &TraceSpec::hours,
        .rule = {"at most 2562047788015215", -kInf, kMaxHours, false, false,
                 false},
        .help = "rwp: simulated hours"},
    Row{.name = "trace-range", .key = "trace-range",
        .field = &TraceSpec::radioRange, .rule = kPositive,
        .help = "rwp: radio range, m"},
    Row{.name = "trace-field", .key = "trace-field",
        .field = &TraceSpec::fieldSize, .rule = kPositive,
        .help = "rwp: square field side, m"},
};

constexpr std::tuple kScenarioRows{
    Row{.name = "name", .key = "name", .field = &Scenario::name,
        .help = "run name"},
    Row{.name = "", .field = &Scenario::trace},
    Row{.name = "", .field = &Scenario::params},
    Row{.name = "events-out", .key = "events-out",
        .field = &Scenario::eventsOut,
        .help = "JSONL event trace (docs/OBSERVABILITY.md)"},
    Row{.name = "timeseries-out", .key = "timeseries-out",
        .field = &Scenario::timeseriesOut,
        .help = "sampled delivery/totals CSV"},
    Row{.name = "sample-every", .key = "sample-every",
        .field = &Scenario::sampleEvery, .rule = kPositiveCadence,
        .help = "time-series cadence, sim seconds"},
    Row{.name = "checkpoint-out", .key = "checkpoint-out",
        .field = &Scenario::checkpointOut,
        .help = "periodic checkpoint (docs/CHECKPOINT.md)"},
    Row{.name = "checkpoint-every", .key = "checkpoint-every",
        .field = &Scenario::checkpointEvery, .rule = kPositiveCadence,
        .help = "checkpoint cadence, sim seconds"},
    Row{.name = "resume", .key = "resume", .field = &Scenario::resume,
        .help = "restore from checkpoint-out if it exists"},
};

constexpr const auto& rowsOf(std::type_identity<ProtocolConfig>) {
  return kProtocolRows;
}
constexpr const auto& rowsOf(std::type_identity<faults::FaultParams>) {
  return kFaultRows;
}
constexpr const auto& rowsOf(std::type_identity<RecoveryParams>) {
  return kRecoveryRows;
}
constexpr const auto& rowsOf(std::type_identity<CodedParams>) {
  return kCodedRows;
}
constexpr const auto& rowsOf(std::type_identity<faults::AdversaryParams>) {
  return kAdversaryRows;
}
constexpr const auto& rowsOf(std::type_identity<ReputationParams>) {
  return kReputationRows;
}
constexpr const auto& rowsOf(std::type_identity<EngineParams>) {
  return kEngineRows;
}
constexpr const auto& rowsOf(std::type_identity<TraceSpec>) {
  return kTraceRows;
}
constexpr const auto& rowsOf(std::type_identity<Scenario>) {
  return kScenarioRows;
}

// --- walking the tables -----------------------------------------------------

/// A field that is itself a struct with rows.
template <class T>
concept Nested = requires { rowsOf(std::type_identity<T>{}); };

/// A field that holds one number, switch or text: what a range rule checks.
template <class T>
concept Ranged = std::is_arithmetic_v<T> || std::is_same_v<T, std::string>;

/// A field a key can set: a ranged one or an enum.
template <class T>
concept Keyed = Ranged<T> || std::is_enum_v<T>;

template <class R>
using ValueOf = typename std::remove_cvref_t<R>::Value;

template <class R>
concept FixedRow = std::is_same_v<std::remove_cvref_t<R>, Fixed<ValueOf<R>>>;

/// Visits every row of S's table in order, Fixed rows included.
template <class S, class Visit>
void forEachRow(Visit&& visit) {
  std::apply([&](const auto&... row) { (visit(row), ...); },
             rowsOf(std::type_identity<S>{}));
}

/// Visits the rows that name a field of S: all but the Fixed ones.
template <class S, class Visit>
void forEachField(Visit&& visit) {
  forEachRow<S>([&](const auto& row) {
    if constexpr (!FixedRow<decltype(row)>) visit(row);
  });
}

/// Position of `value` in a '|'-separated list ("mbt|mbt-q"), or -1.
int choiceIndex(std::string_view choices, std::string_view value) {
  for (int index = 0;; ++index) {
    const std::size_t bar = choices.find('|');
    if (choices.substr(0, bar) == value) return index;
    if (bar == std::string_view::npos) return -1;
    choices.remove_prefix(bar + 1);
  }
}

std::string_view choiceAt(std::string_view choices, int index) {
  for (; index > 0; --index) choices.remove_prefix(choices.find('|') + 1);
  return choices.substr(0, choices.find('|'));
}

/// The message for `value` breaking `rule`, or "" when it keeps it.
template <class T>
std::string violation(const char* name, const Range& rule, const T& value) {
  const std::string must = std::string(name) + " must be " + rule.text;
  if constexpr (std::is_same_v<T, std::string>) {
    if (choiceIndex(rule.text, value) >= 0) return "";
    return must + ", got '" + value + "'";
  } else {
    if constexpr (std::is_integral_v<T>) {
      if (rule.mask != 0) {
        const auto unknown = value & ~rule.mask;
        if (unknown == 0) return "";
        return std::string(name) + " " + rule.text + std::to_string(unknown);
      }
    }
    const auto v = static_cast<double>(value);
    if ((rule.loOpen ? v > rule.lo : v >= rule.lo) &&
        (rule.hiOpen ? v < rule.hi : v <= rule.hi)) {
      return "";
    }
    return rule.showValue ? must + ", got " + std::to_string(value) : must;
  }
}

/// Appends one message per field of `s` that breaks its row's rule, and
/// the messages of each nested struct's validate() under its prefix.
template <class S>
std::vector<std::string> checkRows(const S& s) {
  std::vector<std::string> errors;
  forEachField<S>([&](const auto& row) {
    const auto& value = s.*row.field;
    if constexpr (requires { value.validate(); }) {
      const std::string prefix = *row.name ? std::string(row.name) + "." : "";
      for (std::string& error : value.validate()) {
        errors.push_back(prefix + std::move(error));
      }
    } else if constexpr (Ranged<ValueOf<decltype(row)>>) {
      if (row.rule.text == nullptr) return;
      std::string error = violation(row.name, row.rule, value);
      if (!error.empty()) errors.push_back(std::move(error));
    }
  });
  return errors;
}

template <class T>
void put(Serializer& out, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out.boolean(value);
  } else if constexpr (std::is_enum_v<T>) {
    out.u32(static_cast<std::uint32_t>(value));
  } else if constexpr (std::is_floating_point_v<T>) {
    out.f64(value);
  } else if constexpr (std::is_convertible_v<T, std::span<const NodeId>>) {
    out.u64(value.size());
    for (const NodeId id : value) out.u32(id.value);
  } else if constexpr (std::is_signed_v<T>) {
    out.i64(value);
  } else if constexpr (sizeof(T) == sizeof(std::uint32_t)) {
    out.u32(value);
  } else {
    static_assert(sizeof(T) == sizeof(std::uint64_t));
    out.u64(value);
  }
}

template <class S>
void hashRows(Serializer& out, const S& s) {
  forEachRow<S>([&](const auto& row) {
    if constexpr (FixedRow<decltype(row)>) {
      put(out, row.value);
    } else if constexpr (Nested<ValueOf<decltype(row)>>) {
      hashRows(out, s.*row.field);
    } else {
      put(out, s.*row.field);
    }
  });
}

bool parseInteger(const std::string& text, std::int64_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// A finite number: "nan" and "inf" (and "1e999", which reads as inf) name
/// no value a field can use.
bool parseNumber(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(*out);
}

/// The integers a key's text may name for a field of integer type T that
/// stores the text times `scale` (kDay for a days key): T's range, within
/// the int64 the text parses to.
template <class T>
std::pair<std::int64_t, std::int64_t> integerRange(std::int64_t scale) {
  using Wide = std::numeric_limits<std::int64_t>;
  using Field = std::numeric_limits<T>;
  const std::int64_t lo = std::in_range<std::int64_t>(Field::min())
                              ? static_cast<std::int64_t>(Field::min())
                              : Wide::min();
  const std::int64_t hi = std::in_range<std::int64_t>(Field::max())
                              ? static_cast<std::int64_t>(Field::max())
                              : Wide::max();
  return {lo / scale, hi / scale};
}

/// Bare switches ("--observed-popularity") arrive with an empty value.
bool parseBoolean(const std::string& text, bool* out) {
  if (text.empty() || text == "true" || text == "1" || text == "on" ||
      text == "yes") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "off" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

/// Sets the row's field of `s` from a key's text; returns the error, or ""
/// on success.
template <class S, class T>
std::string setFromText(const Row<S, T>& row, S& s, const std::string& key,
                        const std::string& value) {
  if (row.set != nullptr) return row.set(s, key, value);
  T& field = s.*row.field;
  if constexpr (std::is_same_v<T, std::string>) {
    field = value;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!parseBoolean(value, &field)) {
      return badValue(key, value, "a boolean");
    }
  } else if constexpr (std::is_enum_v<T>) {
    const int index = choiceIndex(row.names, value);
    if (index < 0) return badValue(key, value, row.names);
    field = static_cast<T>(index);
  } else if constexpr (std::is_floating_point_v<T>) {
    double parsed = 0.0;
    if (!parseNumber(value, &parsed)) return badValue(key, value, "a number");
    field = parsed;
  } else if (row.form == Form::kHours) {
    double hours = 0.0;
    if (!parseNumber(value, &hours)) return badValue(key, value, "a number");
    if (hours <= 0.0) {
      return badValue(key, value, "a positive number of hours");
    }
    if (hours > kMaxHours) {
      return badValue(key, value, "at most 2562047788015215 hours");
    }
    field = static_cast<T>(hours * kHour);
  } else {
    std::int64_t parsed = 0;
    if (!parseInteger(value, &parsed)) {
      return badValue(key, value, "an integer");
    }
    if (row.form == Form::kCount && parsed < 0) {
      return badValue(key, value, "a non-negative integer");
    }
    if (row.form == Form::kPositiveCount && parsed < 1) {
      return badValue(key, value, "a positive integer");
    }
    const std::int64_t scale = row.form == Form::kDays ? kDay : 1;
    const auto [lo, hi] = integerRange<T>(scale);
    if (parsed < lo || parsed > hi) {
      const std::string range = "an integer in [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]";
      return badValue(key, value, range.c_str());
    }
    field = static_cast<T>(parsed * scale);
  }
  return "";
}

/// Applies `key` to the first row of `s` (nested rows included) that owns
/// it. Returns false when no row does.
template <class S>
bool applyKey(S& s, const std::string& key, const std::string& value,
              std::string* error) {
  bool found = false;
  forEachField<S>([&](const auto& row) {
    using T = ValueOf<decltype(row)>;
    if (found) return;
    if constexpr (Nested<T>) {
      found = applyKey(s.*row.field, key, value, error);
    } else if constexpr (Keyed<T>) {
      if (row.key == nullptr || key != row.key) return;
      found = true;
      *error = setFromText(row, s, key, value);
    }
  });
  return found;
}

/// The key's spelling of a field's value, for the help line's default.
template <class S, class T>
std::string keyText(const Row<S, T>& row, const S& s) {
  if (row.show != nullptr) return row.show(s);
  const T& value = s.*row.field;
  char buf[32];
  if constexpr (std::is_same_v<T, std::string>) {
    return value.empty() ? "PATH" : value;
  } else if constexpr (std::is_enum_v<T>) {
    return std::string(choiceAt(row.names, static_cast<int>(value)));
  } else if constexpr (std::is_floating_point_v<T>) {
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
  } else if (row.form == Form::kHours) {
    std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(value) / kHour);
    return buf;
  } else {
    return std::to_string(row.form == Form::kDays ? value / kDay : value);
  }
}

/// Appends every key of `s`, in row order, with its help line.
template <class S>
void collectKeys(const S& s, std::vector<FlagHelp>& out) {
  forEachField<S>([&](const auto& row) {
    using T = ValueOf<decltype(row)>;
    if constexpr (Nested<T>) {
      collectKeys(s.*row.field, out);
    } else if constexpr (Keyed<T>) {
      if (row.key == nullptr) return;
      std::string flag = row.key;
      if constexpr (!std::is_same_v<T, bool>) flag += "=" + keyText(row, s);
      // Enum keys, and text keys with a rule, take one of a listed few.
      const char* choices = row.names;
      if constexpr (std::is_same_v<T, std::string>) choices = row.rule.text;
      std::string text = row.help;
      if (choices != nullptr) text = text + ": " + choices;
      out.push_back({std::move(flag), std::move(text)});
    }
  });
}

}  // namespace

// --- what reads the tables --------------------------------------------------

void hashParams(Serializer& out, const EngineParams& params) {
  hashRows(out, params);
}

std::string Scenario::apply(const std::string& key, const std::string& value) {
  std::string error;
  if (!applyKey(*this, key, value, &error)) return "unknown key '" + key + "'";
  return error;
}

const std::vector<FlagHelp>& Scenario::keyHelp() {
  static const std::vector<FlagHelp> kHelp = [] {
    std::vector<FlagHelp> help;
    collectKeys(Scenario{}, help);
    return help;
  }();
  return kHelp;
}

const std::vector<std::string>& Scenario::knownKeys() {
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> keys;
    for (const FlagHelp& line : keyHelp()) {
      keys.push_back(line.flag.substr(0, line.flag.find('=')));
    }
    return keys;
  }();
  return kKeys;
}

// Each validate() checks its rows, then the rules that relate two fields.

std::vector<std::string> RecoveryParams::validate() const {
  std::vector<std::string> errors = checkRows(*this);
  if (maxRetries > 0 && retransmitBudget < 1) {
    errors.push_back(
        "retransmitBudget must be >= 1 when maxRetries is set, got " +
        std::to_string(retransmitBudget));
  }
  return errors;
}

std::vector<std::string> CodedParams::validate() const {
  return checkRows(*this);
}

std::vector<std::string> ReputationParams::validate() const {
  return checkRows(*this);
}

std::vector<std::string> EngineParams::validate() const {
  std::vector<std::string> errors = checkRows(*this);
  // Free-riders and forgers are both carved out of the *non-access*
  // population (a forger must transmit, so it cannot also free-ride):
  // their fractions must jointly fit into that population, independent of
  // internetAccessFraction. Checked only when each is individually valid so
  // out-of-range values keep their own message.
  if (freeRiderFraction >= 0.0 && freeRiderFraction <= 1.0 &&
      forgerFraction >= 0.0 && forgerFraction <= 1.0 &&
      freeRiderFraction + forgerFraction > 1.0) {
    errors.push_back(
        "freeRiderFraction + forgerFraction must not exceed 1 (both are "
        "fractions of the non-access population), got " +
        std::to_string(freeRiderFraction) + " + " +
        std::to_string(forgerFraction));
  }
  return errors;
}

std::vector<std::string> TraceSpec::validate() const {
  std::vector<std::string> errors = checkRows(*this);
  if (family == "file" && path.empty()) {
    errors.push_back("trace family 'file' requires a trace path (key 'trace')");
  }
  if (family == "nus" && (students < 2 || courses < 1)) {
    errors.push_back("nus trace needs >= 2 students and >= 1 course");
  }
  if (family == "dieselnet" && (buses < 2 || routes < 1)) {
    errors.push_back("dieselnet trace needs >= 2 buses and >= 1 route");
  }
  if (family == "rwp" && (nodes < 2 || hours <= 0.0)) {
    errors.push_back("rwp trace needs >= 2 nodes and positive hours");
  }
  // The rwp generator buckets positions into grid cells one radio range
  // wide, indexed (with the neighbouring cell) by int.
  if (family == "rwp" && radioRange > 0.0 && fieldSize > 0.0 &&
      fieldSize / radioRange >=
          static_cast<double>(std::numeric_limits<int>::max())) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "got %g / %g", fieldSize, radioRange);
    errors.push_back(
        "rwp trace needs trace-field / trace-range below 2147483647 (the "
        "contact grid indexes its cells by int), " +
        std::string(buf));
  }
  return errors;
}

std::vector<std::string> Scenario::validate() const {
  std::vector<std::string> errors = checkRows(*this);
  if (resume && checkpointOut.empty()) {
    errors.push_back("resume requires checkpoint-out");
  }
  return errors;
}

}  // namespace hdtn::core

// The fault structs live in hdtn::faults; their rows are above.
namespace hdtn {

std::vector<std::string> faults::FaultParams::validate() const {
  std::vector<std::string> errors = core::checkRows(*this);
  const auto isFraction = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!isFraction(truncationKeepMin) || !isFraction(truncationKeepMax) ||
      truncationKeepMin > truncationKeepMax) {
    errors.push_back(
        "truncationKeepMin/truncationKeepMax must satisfy 0 <= min <= max "
        "<= 1, got [" +
        std::to_string(truncationKeepMin) + ", " +
        std::to_string(truncationKeepMax) + "]");
  }
  if (churnDownFraction > 0.0 && churnMeanDowntime <= 0) {
    errors.push_back(
        "churnMeanDowntime must be positive seconds when churnDownFraction "
        "is set, got " +
        std::to_string(churnMeanDowntime));
  }
  return errors;
}

std::vector<std::string> faults::AdversaryParams::validate() const {
  return core::checkRows(*this);
}

}  // namespace hdtn
