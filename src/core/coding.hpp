// Sparse random linear network coding (RLNC) over GF(2^8).
//
// The coded download mode (docs/CODING.md) broadcasts random linear
// combinations of a file's pieces instead of named pieces: a file's pieces
// form one *generation*, every coded frame carries a coefficient vector
// over GF(2^8), and any `pieceCount` linearly independent frames decode the
// whole generation. Losses therefore cost redundancy (one more frame from
// anybody) instead of a selective-ack replay round-trip.
//
// Everything here is deterministic: coefficient vectors are expanded from a
// 64-bit seed with a self-contained SplitMix64 (so a frame on the wire only
// needs the seed, and any receiver regenerates the same vector), and the
// incremental Gauss-Jordan decoder's row layout is a pure function of its
// frame arrival order — which makes its state checkpointable byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/util/serialize.hpp"

namespace hdtn::core::coding {

// --- GF(2^8) field arithmetic -------------------------------------------
// The field is GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1), i.e. the classic
// Reed-Solomon polynomial 0x11d, with generator alpha = 2. Multiplication
// and inversion read product and inverse tables computed at compile time.

/// Addition and subtraction coincide (characteristic 2).
[[nodiscard]] constexpr std::uint8_t gfAdd(std::uint8_t a, std::uint8_t b) {
  return a ^ b;
}

/// Table-backed product.
[[nodiscard]] std::uint8_t gfMul(std::uint8_t a, std::uint8_t b);

/// Bitwise shift-and-add product (no tables); cross-checks gfMul in tests.
[[nodiscard]] std::uint8_t gfMulSlow(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse; `a` must be nonzero.
[[nodiscard]] std::uint8_t gfInv(std::uint8_t a);

// --- row kernel ---------------------------------------------------------

namespace detail {

/// `dst[i] ^= c * src[i]` for i < n. Every row operation of elimination,
/// recoding and encoding is one call: it reads the 256-byte product row of
/// `c` once, then does one table load per byte.
void mulAddRow(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
               std::size_t n);

}  // namespace detail

// --- coefficient vectors ------------------------------------------------

/// Expands `seed` into a sparse coefficient vector of length `k`: each
/// position is nonzero with probability `sparsity` (clamped to (0, 1]), and
/// the vector is guaranteed to have at least one nonzero entry. The same
/// (k, seed, sparsity) always yields the same vector on every platform.
[[nodiscard]] std::vector<std::uint8_t> sparseCoefficients(
    std::uint32_t k, std::uint64_t seed, double sparsity);

// --- incremental decoder ------------------------------------------------

/// Incremental Gauss-Jordan eliminator over one generation.
///
/// Frames are folded in as they arrive; each fold either raises the rank by
/// one (*innovative*) or reduces to zero and is discarded (*redundant*).
/// Rows are kept fully reduced (leading 1, the pivot column eliminated from
/// every other row), so at full rank the rows ARE the unit vectors and the
/// payloads ARE the decoded pieces — decode() is a table lookup.
///
/// Constructed with payloadBytes == 0 the decoder tracks coefficients only
/// (rank bookkeeping inside the engine, where pieces are abstract); with a
/// payload size it additionally carries and decodes real piece bytes.
class GenerationDecoder {
 public:
  GenerationDecoder() = default;
  explicit GenerationDecoder(std::uint32_t generationSize,
                             std::uint32_t payloadBytes = 0);

  /// Sentinel origin for frames with no attributable source (honest
  /// traffic, or pollution relayed by an innocent recoder).
  static constexpr std::uint32_t kNoOrigin = 0xffffffffu;

  /// Folds one coded frame. Truncated frames (`coefficients.size()` under
  /// the generation size, or a payload that does not match payloadBytes())
  /// throw; degenerate frames — over-length coefficient vectors or all-zero
  /// vectors — are rejected *before any row operation* and counted in
  /// degenerateFrames(), since they can never raise the rank but would
  /// otherwise burn rowOps. Returns true when the frame was innovative.
  ///
  /// `polluted` marks a frame whose payload is known-junk (a Byzantine
  /// pollution attack, docs/ADVERSARY.md); `origin` is the attacker's node
  /// id for blame attribution. Folding a polluted frame taints every row it
  /// touches — see tainted().
  bool addFrame(std::span<const std::uint8_t> coefficients,
                std::span<const std::uint8_t> payload = {},
                bool polluted = false, std::uint32_t origin = kNoOrigin);

  /// Folds source piece `piece` held in the clear (unit coefficient
  /// vector). Returns true when it raised the rank.
  bool addSourcePiece(std::uint32_t piece,
                      std::span<const std::uint8_t> payload = {});

  /// A fresh combination of this decoder's row space — what a partial
  /// holder re-broadcasts (recoding). Deterministic in (state, seed);
  /// nonzero whenever rank() > 0. Returns a generation-sized coefficient
  /// vector; with payloads tracked, `payloadOut` (if non-null) receives the
  /// matching combined payload. `taintedOut` (if non-null) is set to
  /// whether the mix touched any tainted row — i.e. whether the recoded
  /// frame itself relays pollution.
  [[nodiscard]] std::vector<std::uint8_t> recodeCoefficients(
      std::uint64_t seed, double sparsity,
      std::vector<std::uint8_t>* payloadOut = nullptr,
      bool* taintedOut = nullptr) const;

  [[nodiscard]] std::uint32_t generationSize() const { return k_; }
  [[nodiscard]] std::uint32_t payloadBytes() const { return payloadBytes_; }
  [[nodiscard]] std::uint32_t rank() const { return rank_; }
  [[nodiscard]] bool complete() const { return k_ > 0 && rank_ == k_; }

  /// Row operations performed so far (one unit per row-times-scalar fold);
  /// a deterministic, platform-independent proxy for decode CPU cost.
  [[nodiscard]] std::uint64_t rowOps() const { return rowOps_; }

  /// Degenerate frames rejected before any row operation (all-zero
  /// coefficient vectors, over-length rows).
  [[nodiscard]] std::uint64_t degenerateFrames() const {
    return degenerateFrames_;
  }

  /// True when any stored row mixes in a polluted frame: at full rank the
  /// "decoded" generation would be garbage and must be rolled back
  /// (docs/ADVERSARY.md).
  [[nodiscard]] bool tainted() const;

  /// Stored rows whose frame arrived polluted (not merely contaminated by
  /// later elimination).
  [[nodiscard]] std::uint32_t pollutedRows() const;

  /// Sorted, unique origins of the arrival-polluted rows (kNoOrigin
  /// excluded) — the ground-truth blame list for a rollback.
  [[nodiscard]] std::vector<std::uint32_t> pollutedOrigins() const;

  /// The decoded pieces, in piece order. Requires complete() and payload
  /// tracking.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> decode() const;

  /// Checkpoints the full elimination state; a restored decoder continues
  /// byte-identically (docs/CHECKPOINT.md, payload v4). loadState checks
  /// that the remaining bytes hold every row and pivot before it allocates,
  /// and leaves the decoder untouched when it throws.
  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

 private:
  struct RowFlags {
    std::uint32_t origin = kNoOrigin;  ///< attacker id when polluted
    bool tainted = false;    ///< mixes in at least one polluted frame
    bool polluted = false;   ///< the frame itself arrived polluted
  };

  /// Eliminates the frame in scratch_ against the stored rows and, when it
  /// survives, appends it as a new reduced row.
  bool fold(bool polluted, std::uint32_t origin);

  [[nodiscard]] std::uint8_t* rowCoeffs(std::uint32_t row) {
    return coeffs_.data() + static_cast<std::size_t>(row) * k_;
  }
  [[nodiscard]] const std::uint8_t* rowCoeffs(std::uint32_t row) const {
    return coeffs_.data() + static_cast<std::size_t>(row) * k_;
  }
  [[nodiscard]] std::uint8_t* rowPayload(std::uint32_t row) {
    return payloads_.data() + static_cast<std::size_t>(row) * payloadBytes_;
  }
  [[nodiscard]] const std::uint8_t* rowPayload(std::uint32_t row) const {
    return payloads_.data() + static_cast<std::size_t>(row) * payloadBytes_;
  }

  std::uint32_t k_ = 0;
  std::uint32_t payloadBytes_ = 0;
  std::uint32_t rank_ = 0;
  std::uint64_t rowOps_ = 0;
  std::uint64_t degenerateFrames_ = 0;
  // The reduced rows, one per innovative frame, in arrival order: row r's
  // coefficients are coeffs_[r * k_, (r + 1) * k_), its payload likewise
  // in payloads_. Both grow by one row per innovative frame.
  std::vector<std::uint8_t> coeffs_;
  std::vector<std::uint8_t> payloads_;
  std::vector<RowFlags> flags_;       ///< one per row
  std::vector<std::uint32_t> pivot_;  ///< column -> row index (kNoPivot)
  /// The frame being folded: k_ coefficients, then payloadBytes_ bytes.
  /// Sized by addFrame/addSourcePiece, whose caller holds a payload of
  /// that size, never by loadState: a checkpoint's payloadBytes is not
  /// bounded by the bytes that carry it when the rank is 0.
  std::vector<std::uint8_t> scratch_;
  static constexpr std::uint32_t kNoPivot = 0xffffffffu;
};

// --- encoder ------------------------------------------------------------

/// Source-side encoder over a complete generation of real piece bytes
/// (equal-sized pieces). Frames pair a seed-expanded coefficient vector
/// with the matching combined payload.
class CodedEncoder {
 public:
  explicit CodedEncoder(std::vector<std::vector<std::uint8_t>> pieces);

  struct Frame {
    std::vector<std::uint8_t> coefficients;
    std::vector<std::uint8_t> payload;
  };

  /// The frame for a seed-expanded sparse coefficient vector.
  [[nodiscard]] Frame frame(std::uint64_t seed, double sparsity) const;

  /// The payload matching an arbitrary coefficient vector.
  [[nodiscard]] std::vector<std::uint8_t> payloadFor(
      std::span<const std::uint8_t> coefficients) const;

  [[nodiscard]] std::uint32_t generationSize() const {
    return static_cast<std::uint32_t>(pieces_.size());
  }
  [[nodiscard]] std::uint32_t payloadBytes() const {
    return pieces_.empty()
               ? 0
               : static_cast<std::uint32_t>(pieces_.front().size());
  }

 private:
  std::vector<std::vector<std::uint8_t>> pieces_;
};

}  // namespace hdtn::core::coding
