#include "src/core/coding.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace hdtn::core::coding {

namespace {

constexpr std::uint32_t kPoly = 0x11d;  // x^8 + x^4 + x^3 + x^2 + 1

constexpr std::uint8_t mulBitwise(std::uint32_t a, std::uint32_t b) {
  std::uint32_t acc = 0;
  while (b != 0) {
    if (b & 1) acc ^= a;
    a <<= 1;
    if (a & 0x100) a ^= kPoly;
    b >>= 1;
  }
  return static_cast<std::uint8_t>(acc);
}

// Every product and every inverse, computed at compile time.
struct FieldTables {
  /// product[c][b] = c * b; the row kernel reads the row of its factor.
  std::uint8_t product[256][256];
  /// inverse[a] * a = 1 for a != 0; inverse[0] is unused.
  std::uint8_t inverse[256];
};

constexpr FieldTables buildFieldTables() {
  FieldTables t{};
  for (std::uint32_t a = 0; a < 256; ++a) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t.product[a][b] = mulBitwise(a, b);
      if (t.product[a][b] == 1) t.inverse[a] = static_cast<std::uint8_t>(b);
    }
  }
  return t;
}

constexpr FieldTables kField = buildFieldTables();

/// SplitMix64 — self-contained so coefficient expansion does not depend on
/// the engine's Rng and can be reproduced from a wire-carried seed alone.
std::uint64_t splitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint8_t gfMul(std::uint8_t a, std::uint8_t b) {
  return kField.product[a][b];
}

std::uint8_t gfMulSlow(std::uint8_t a, std::uint8_t b) {
  return mulBitwise(a, b);
}

std::uint8_t gfInv(std::uint8_t a) {
  assert(a != 0 && "gfInv(0) is undefined");
  return kField.inverse[a];
}

namespace detail {

void mulAddRow(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
               std::size_t n) {
  const std::uint8_t* product = kField.product[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= product[src[i]];
}

}  // namespace detail

std::vector<std::uint8_t> sparseCoefficients(std::uint32_t k,
                                             std::uint64_t seed,
                                             double sparsity) {
  if (sparsity <= 0.0 || sparsity > 1.0) sparsity = 1.0;
  std::vector<std::uint8_t> coeffs(k, 0);
  if (k == 0) return coeffs;
  std::uint64_t state = seed;
  bool anyNonZero = false;
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::uint64_t draw = splitMix64(state);
    // Top 53 bits -> uniform double in [0, 1); low bits pick the value.
    const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
    if (u < sparsity) {
      coeffs[i] = static_cast<std::uint8_t>(1 + (draw & 0xff) % 255);
      anyNonZero = true;
    }
  }
  if (!anyNonZero) {
    // A zero vector carries no information; force one deterministic entry.
    coeffs[seed % k] = static_cast<std::uint8_t>(1 + (seed >> 8) % 255);
  }
  return coeffs;
}

GenerationDecoder::GenerationDecoder(std::uint32_t generationSize,
                                     std::uint32_t payloadBytes)
    : k_(generationSize),
      payloadBytes_(payloadBytes),
      pivot_(generationSize, kNoPivot) {
  if (generationSize == 0) {
    throw std::invalid_argument("GenerationDecoder: empty generation");
  }
}

bool GenerationDecoder::addFrame(std::span<const std::uint8_t> coefficients,
                                 std::span<const std::uint8_t> payload,
                                 bool polluted, std::uint32_t origin) {
  // Over-length rows are degenerate input (a malformed or hostile encoder),
  // not a caller bug: reject and count before any row operation.
  if (coefficients.size() > k_) {
    ++degenerateFrames_;
    return false;
  }
  if (coefficients.size() != k_ || payload.size() != payloadBytes_) {
    throw std::invalid_argument("GenerationDecoder: frame shape mismatch");
  }
  if (std::all_of(coefficients.begin(), coefficients.end(),
                  [](std::uint8_t c) { return c == 0; })) {
    // A zero vector can never raise the rank; folding it would only burn
    // rowOps on forward elimination of nothing.
    ++degenerateFrames_;
    return false;
  }
  scratch_.resize(static_cast<std::size_t>(k_) + payloadBytes_);
  std::copy(coefficients.begin(), coefficients.end(), scratch_.begin());
  std::copy(payload.begin(), payload.end(), scratch_.begin() + k_);
  return fold(polluted, origin);
}

bool GenerationDecoder::addSourcePiece(std::uint32_t piece,
                                       std::span<const std::uint8_t> payload) {
  if (piece >= k_ || payload.size() != payloadBytes_) {
    throw std::invalid_argument("GenerationDecoder: bad source piece");
  }
  scratch_.resize(static_cast<std::size_t>(k_) + payloadBytes_);
  std::fill_n(scratch_.begin(), k_, std::uint8_t{0});
  scratch_[piece] = 1;
  std::copy(payload.begin(), payload.end(), scratch_.begin() + k_);
  return fold(false, kNoOrigin);
}

bool GenerationDecoder::fold(bool polluted, std::uint32_t origin) {
  std::uint8_t* coeffs = scratch_.data();
  std::uint8_t* data = coeffs + k_;
  // A frame is tainted when it arrived polluted or when elimination mixes
  // in a tainted stored row — pollution spreads exactly like information.
  bool tainted = polluted;
  // Forward-eliminate against every existing pivot.
  for (std::uint32_t col = 0; col < k_; ++col) {
    const std::uint8_t factor = coeffs[col];
    if (factor == 0 || pivot_[col] == kNoPivot) continue;
    const std::uint32_t prow = pivot_[col];
    if (flags_[prow].tainted) tainted = true;
    detail::mulAddRow(coeffs, rowCoeffs(prow), factor, k_);
    if (payloadBytes_ != 0) {
      detail::mulAddRow(data, rowPayload(prow), factor, payloadBytes_);
    }
    ++rowOps_;
  }
  // First surviving nonzero column becomes the pivot.
  const std::uint8_t* lead =
      std::find_if(coeffs, coeffs + k_, [](std::uint8_t c) { return c != 0; });
  if (lead == coeffs + k_) return false;  // redundant frame
  const auto pivotCol = static_cast<std::uint32_t>(lead - coeffs);

  // Append the new row normalized to a leading 1: the kernel writes
  // inv * frame into the zeroed row.
  const std::uint32_t newIndex = rank_;
  coeffs_.resize(coeffs_.size() + k_);
  payloads_.resize(payloads_.size() + payloadBytes_);
  std::uint8_t* newCoeffs = rowCoeffs(newIndex);
  std::uint8_t* newData = rowPayload(newIndex);
  const std::uint8_t inv = gfInv(*lead);
  if (inv != 1) {
    detail::mulAddRow(newCoeffs, coeffs, inv, k_);
    if (payloadBytes_ != 0) {
      detail::mulAddRow(newData, data, inv, payloadBytes_);
    }
    ++rowOps_;
  } else {
    std::memcpy(newCoeffs, coeffs, k_);
    if (payloadBytes_ != 0) std::memcpy(newData, data, payloadBytes_);
  }
  // Back-substitute: clear this column from every stored row so the matrix
  // stays fully reduced (identity at full rank).
  for (std::uint32_t r = 0; r < newIndex; ++r) {
    std::uint8_t* row = rowCoeffs(r);
    const std::uint8_t factor = row[pivotCol];
    if (factor == 0) continue;
    if (tainted) flags_[r].tainted = true;
    detail::mulAddRow(row, newCoeffs, factor, k_);
    if (payloadBytes_ != 0) {
      detail::mulAddRow(rowPayload(r), newData, factor, payloadBytes_);
    }
    ++rowOps_;
  }
  flags_.push_back({polluted ? origin : kNoOrigin, tainted, polluted});
  pivot_[pivotCol] = newIndex;
  ++rank_;
  return true;
}

bool GenerationDecoder::tainted() const {
  return std::any_of(flags_.begin(), flags_.end(),
                     [](const RowFlags& row) { return row.tainted; });
}

std::uint32_t GenerationDecoder::pollutedRows() const {
  return static_cast<std::uint32_t>(
      std::count_if(flags_.begin(), flags_.end(),
                    [](const RowFlags& row) { return row.polluted; }));
}

std::vector<std::uint32_t> GenerationDecoder::pollutedOrigins() const {
  std::vector<std::uint32_t> origins;
  for (const RowFlags& row : flags_) {
    if (row.polluted && row.origin != kNoOrigin) {
      origins.push_back(row.origin);
    }
  }
  std::sort(origins.begin(), origins.end());
  origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
  return origins;
}

std::vector<std::uint8_t> GenerationDecoder::recodeCoefficients(
    std::uint64_t seed, double sparsity,
    std::vector<std::uint8_t>* payloadOut, bool* taintedOut) const {
  std::vector<std::uint8_t> out(k_, 0);
  if (payloadOut != nullptr) payloadOut->assign(payloadBytes_, 0);
  if (taintedOut != nullptr) *taintedOut = false;
  if (rank_ == 0) return out;
  // Mix over the stored (independent) rows: any nonzero mix of independent
  // rows is itself nonzero, so the recoded frame always carries information
  // from this node's subspace.
  const std::vector<std::uint8_t> mix =
      sparseCoefficients(rank_, seed, sparsity);
  for (std::uint32_t i = 0; i < rank_; ++i) {
    const std::uint8_t factor = mix[i];
    if (factor == 0) continue;
    if (taintedOut != nullptr && flags_[i].tainted) *taintedOut = true;
    detail::mulAddRow(out.data(), rowCoeffs(i), factor, k_);
    if (payloadOut != nullptr) {
      detail::mulAddRow(payloadOut->data(), rowPayload(i), factor,
                        payloadBytes_);
    }
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> GenerationDecoder::decode() const {
  if (!complete()) {
    throw std::logic_error("GenerationDecoder::decode before full rank");
  }
  std::vector<std::vector<std::uint8_t>> pieces(k_);
  // Fully reduced at full rank: the row owning pivot column p is the unit
  // vector e_p, so its payload is piece p verbatim.
  for (std::uint32_t col = 0; col < k_; ++col) {
    const std::uint8_t* payload = rowPayload(pivot_[col]);
    pieces[col].assign(payload, payload + payloadBytes_);
  }
  return pieces;
}

void GenerationDecoder::saveState(Serializer& out) const {
  out.u32(k_);
  out.u32(payloadBytes_);
  out.u32(rank_);
  out.u64(rowOps_);
  out.u64(degenerateFrames_);
  out.u64(flags_.size());
  for (std::uint32_t r = 0; r < rank_; ++r) {
    out.raw(rowCoeffs(r), k_);
    out.raw(rowPayload(r), payloadBytes_);
    out.u8(flags_[r].tainted ? 1 : 0);
    out.u8(flags_[r].polluted ? 1 : 0);
    out.u32(flags_[r].origin);
  }
  for (std::uint32_t col = 0; col < k_; ++col) out.u32(pivot_[col]);
}

void GenerationDecoder::loadState(Deserializer& in) {
  GenerationDecoder loaded;
  loaded.k_ = in.u32();
  loaded.payloadBytes_ = in.u32();
  loaded.rank_ = in.u32();
  loaded.rowOps_ = in.u64();
  loaded.degenerateFrames_ = in.u64();
  const std::uint32_t k = loaded.k_;
  const std::uint32_t payloadBytes = loaded.payloadBytes_;
  if (k == 0 || loaded.rank_ > k) {
    throw SerializeError("GenerationDecoder: corrupt shape");
  }
  const std::size_t rowBytes = static_cast<std::size_t>(k) + payloadBytes + 6;
  const std::uint64_t rowCount = in.length(rowBytes);
  if (rowCount != loaded.rank_) {
    throw SerializeError("GenerationDecoder: row count != rank");
  }
  // in.length() bounded rowCount * rowBytes by the remaining bytes; the k
  // pivots must fit behind the rows too, or a forged k would size the
  // allocations below.
  if ((in.remaining() - rowCount * rowBytes) / 4 < k) {
    throw SerializeError("GenerationDecoder: state exceeds the payload");
  }
  loaded.coeffs_.resize(rowCount * k);
  loaded.payloads_.resize(rowCount * payloadBytes);
  loaded.flags_.resize(rowCount);
  for (std::uint32_t r = 0; r < loaded.rank_; ++r) {
    in.raw(loaded.rowCoeffs(r), k);
    in.raw(loaded.rowPayload(r), payloadBytes);
    loaded.flags_[r].tainted = in.u8() != 0;
    loaded.flags_[r].polluted = in.u8() != 0;
    loaded.flags_[r].origin = in.u32();
  }
  loaded.pivot_.resize(k);
  for (std::uint32_t& pivot : loaded.pivot_) {
    pivot = in.u32();
    if (pivot != kNoPivot && pivot >= rowCount) {
      throw SerializeError("GenerationDecoder: pivot out of range");
    }
  }
  *this = std::move(loaded);
}

CodedEncoder::CodedEncoder(std::vector<std::vector<std::uint8_t>> pieces)
    : pieces_(std::move(pieces)) {
  if (pieces_.empty()) {
    throw std::invalid_argument("CodedEncoder: empty generation");
  }
  for (const auto& piece : pieces_) {
    if (piece.size() != pieces_.front().size()) {
      throw std::invalid_argument("CodedEncoder: unequal piece sizes");
    }
  }
}

CodedEncoder::Frame CodedEncoder::frame(std::uint64_t seed,
                                        double sparsity) const {
  Frame f;
  f.coefficients = sparseCoefficients(generationSize(), seed, sparsity);
  f.payload = payloadFor(f.coefficients);
  return f;
}

std::vector<std::uint8_t> CodedEncoder::payloadFor(
    std::span<const std::uint8_t> coefficients) const {
  if (coefficients.size() != pieces_.size()) {
    throw std::invalid_argument("CodedEncoder: coefficient count mismatch");
  }
  std::vector<std::uint8_t> payload(payloadBytes(), 0);
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    if (coefficients[i] == 0) continue;
    detail::mulAddRow(payload.data(), pieces_[i].data(), coefficients[i],
                      payload.size());
  }
  return payload;
}

}  // namespace hdtn::core::coding
