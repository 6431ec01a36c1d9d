#include "src/core/piece_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/random.hpp"
#include "tests/reference_oracles.hpp"

namespace hdtn::core {
namespace {

std::vector<FileId> filesOf(const PieceStore& store) {
  return {store.files().begin(), store.files().end()};
}

TEST(PieceStore, RegisterAndAdd) {
  PieceStore store;
  EXPECT_TRUE(store.registerFile(FileId(1), 3));
  EXPECT_TRUE(store.isRegistered(FileId(1)));
  EXPECT_FALSE(store.isRegistered(FileId(2)));
  EXPECT_TRUE(store.addPiece(FileId(1), 0));
  EXPECT_FALSE(store.addPiece(FileId(1), 0));  // duplicate
  EXPECT_TRUE(store.hasPiece(FileId(1), 0));
  EXPECT_FALSE(store.hasPiece(FileId(1), 1));
  EXPECT_EQ(store.piecesHeld(FileId(1)), 1u);
  EXPECT_EQ(store.pieceCount(FileId(1)), 3u);
  EXPECT_EQ(store.totalPiecesHeld(), 1u);
}

TEST(PieceStore, RegisterIdempotentSameCount) {
  PieceStore store;
  EXPECT_TRUE(store.registerFile(FileId(1), 3));
  EXPECT_TRUE(store.registerFile(FileId(1), 3));
  EXPECT_FALSE(store.registerFile(FileId(1), 4));  // conflicting count
}

TEST(PieceStore, CompletionDetection) {
  PieceStore store;
  store.registerFile(FileId(5), 2);
  EXPECT_FALSE(store.isComplete(FileId(5)));
  store.addPiece(FileId(5), 1);
  EXPECT_FALSE(store.isComplete(FileId(5)));
  store.addPiece(FileId(5), 0);
  EXPECT_TRUE(store.isComplete(FileId(5)));
  EXPECT_EQ(store.completeFiles(), (std::vector<FileId>{FileId(5)}));
}

TEST(PieceStore, AddWholeFile) {
  PieceStore store;
  store.registerFile(FileId(3), 5);
  store.addPiece(FileId(3), 2);
  EXPECT_EQ(store.addWholeFile(FileId(3)), 4u);
  EXPECT_TRUE(store.isComplete(FileId(3)));
  EXPECT_EQ(store.addWholeFile(FileId(3)), 0u);
}

TEST(PieceStore, RemoveFile) {
  PieceStore store;
  store.registerFile(FileId(1), 2);
  store.addWholeFile(FileId(1));
  store.registerFile(FileId(2), 2);
  store.addPiece(FileId(2), 0);
  store.removeFile(FileId(1));
  EXPECT_FALSE(store.isRegistered(FileId(1)));
  EXPECT_EQ(store.totalPiecesHeld(), 1u);
  store.removeFile(FileId(42));  // unknown: no-op
}

TEST(PieceStore, FilesSorted) {
  PieceStore store;
  store.registerFile(FileId(9), 1);
  store.registerFile(FileId(2), 1);
  store.registerFile(FileId(5), 1);
  EXPECT_EQ(filesOf(store),
            (std::vector<FileId>{FileId(2), FileId(5), FileId(9)}));
}

TEST(PieceStore, FilesViewFollowsRegisterRemoveAndLoad) {
  PieceStore store;
  store.registerFile(FileId(5), 1);
  EXPECT_EQ(filesOf(store), (std::vector<FileId>{FileId(5)}));
  store.registerFile(FileId(2), 1);
  EXPECT_EQ(filesOf(store), (std::vector<FileId>{FileId(2), FileId(5)}));
  store.addPiece(FileId(2), 0);  // pieces do not change the file set
  EXPECT_EQ(filesOf(store), (std::vector<FileId>{FileId(2), FileId(5)}));
  store.removeFile(FileId(5));
  EXPECT_EQ(filesOf(store), (std::vector<FileId>{FileId(2)}));

  PieceStore other;
  other.registerFile(FileId(7), 2);
  other.registerFile(FileId(3), 1);
  Serializer out;
  other.saveState(out);
  Deserializer in(out.bytes());
  store.loadState(in);
  EXPECT_EQ(filesOf(store), (std::vector<FileId>{FileId(3), FileId(7)}));
}

TEST(PieceStore, UnregisteredQueriesAreSafe) {
  PieceStore store;
  EXPECT_FALSE(store.hasPiece(FileId(1), 0));
  EXPECT_FALSE(store.isComplete(FileId(1)));
  EXPECT_EQ(store.piecesHeld(FileId(1)), 0u);
  EXPECT_EQ(store.pieceCount(FileId(1)), 0u);
}

TEST(PieceStore, BoundedStoreEvictsLowestPriorityIncomplete) {
  PieceStore store(2);  // capacity: 2 pieces
  store.registerFile(FileId(1), 2);
  store.setPriority(FileId(1), 0.9);
  store.registerFile(FileId(2), 2);
  store.setPriority(FileId(2), 0.1);
  store.addPiece(FileId(1), 0);
  store.addPiece(FileId(2), 0);
  EXPECT_EQ(store.totalPiecesHeld(), 2u);
  // Adding a third piece evicts from the low-priority incomplete file 2.
  store.addPiece(FileId(1), 1);
  EXPECT_EQ(store.totalPiecesHeld(), 2u);
  EXPECT_EQ(store.piecesHeld(FileId(2)), 0u);
  EXPECT_TRUE(store.isComplete(FileId(1)));
}

TEST(PieceStore, BoundedStorePrefersEvictingIncompleteOverComplete) {
  PieceStore store(3);
  store.registerFile(FileId(1), 2);
  store.setPriority(FileId(1), 0.05);  // complete but lowest priority
  store.addWholeFile(FileId(1));
  store.registerFile(FileId(2), 2);
  store.setPriority(FileId(2), 0.5);
  store.addPiece(FileId(2), 0);
  store.registerFile(FileId(3), 1);
  store.setPriority(FileId(3), 0.8);
  store.addPiece(FileId(3), 0);  // store full: evicts incomplete file 2
  EXPECT_TRUE(store.isComplete(FileId(1)));
  EXPECT_EQ(store.piecesHeld(FileId(2)), 0u);
  EXPECT_TRUE(store.hasPiece(FileId(3), 0));
}

TEST(PieceStore, BoundedStoreFallsBackToCompleteFiles) {
  PieceStore store(1);
  store.registerFile(FileId(1), 1);
  store.setPriority(FileId(1), 0.2);
  store.addPiece(FileId(1), 0);
  store.registerFile(FileId(2), 1);
  store.setPriority(FileId(2), 0.7);
  store.addPiece(FileId(2), 0);  // only candidate is the complete file 1
  EXPECT_EQ(store.piecesHeld(FileId(1)), 0u);
  EXPECT_TRUE(store.isComplete(FileId(2)));
  EXPECT_EQ(store.totalPiecesHeld(), 1u);
}

TEST(PieceStore, BoundedEvictionTieBreaksByInsertionOrder) {
  // At equal priority the victim is the *oldest registration*, regardless
  // of file id or hash-map iteration order. Register in descending-id
  // order so an id-based or map-order tie-break would pick differently.
  PieceStore store(2);
  store.registerFile(FileId(9), 1);  // oldest
  store.setPriority(FileId(9), 0.4);
  store.registerFile(FileId(1), 1);
  store.setPriority(FileId(1), 0.4);
  store.addPiece(FileId(9), 0);
  store.addPiece(FileId(1), 0);
  store.registerFile(FileId(5), 1);
  store.setPriority(FileId(5), 0.9);
  store.addPiece(FileId(5), 0);  // full: evicts the tied pair's oldest
  EXPECT_EQ(store.piecesHeld(FileId(9)), 0u);
  EXPECT_TRUE(store.hasPiece(FileId(1), 0));
  EXPECT_TRUE(store.hasPiece(FileId(5), 0));
  EXPECT_EQ(store.totalPiecesHeld(), 2u);
}

TEST(PieceStore, EvictionTieBreakSurvivesSaveLoad) {
  PieceStore store(2);
  store.registerFile(FileId(9), 1);
  store.setPriority(FileId(9), 0.4);
  store.registerFile(FileId(1), 1);
  store.setPriority(FileId(1), 0.4);
  store.addPiece(FileId(9), 0);
  store.addPiece(FileId(1), 0);
  Serializer out;
  store.saveState(out);
  PieceStore restored(2);
  Deserializer in(out.bytes());
  restored.loadState(in);
  restored.registerFile(FileId(5), 1);
  restored.setPriority(FileId(5), 0.9);
  restored.addPiece(FileId(5), 0);
  // Same victim as the live store would choose: registration order is
  // checkpoint state, not an accident of the session.
  EXPECT_EQ(restored.piecesHeld(FileId(9)), 0u);
  EXPECT_TRUE(restored.hasPiece(FileId(1), 0));
}

TEST(PieceStore, ArenaReusesFreedBlocks) {
  PieceStore store;
  store.registerFile(FileId(1), 64);
  store.registerFile(FileId(2), 64);
  const std::size_t words = store.arenaWords();
  // Register/remove churn of same-sized bitmaps must recycle arena blocks
  // instead of growing the arena.
  for (int round = 0; round < 20; ++round) {
    store.removeFile(FileId(1));
    store.registerFile(FileId(1), 64);
    store.addPiece(FileId(1), 63);
  }
  EXPECT_EQ(store.arenaWords(), words);
  EXPECT_TRUE(store.hasPiece(FileId(1), 63));
  EXPECT_FALSE(store.hasPiece(FileId(1), 0));  // freed blocks come back zeroed
}

TEST(PieceStore, ArenaBlocksAreZeroedOnReuse) {
  PieceStore store;
  store.registerFile(FileId(1), 128);
  for (std::uint32_t p = 0; p < 128; ++p) store.addPiece(FileId(1), p);
  store.removeFile(FileId(1));
  store.registerFile(FileId(2), 128);  // reuses the freed block
  EXPECT_EQ(store.piecesHeld(FileId(2)), 0u);
  for (std::uint32_t p = 0; p < 128; ++p) {
    EXPECT_FALSE(store.hasPiece(FileId(2), p));
  }
}

TEST(PieceStore, ForEachHeldPieceWalksFilesThenPiecesAscending) {
  PieceStore store;
  store.registerFile(FileId(9), 2);
  store.registerFile(FileId(3), 130);
  store.addPiece(FileId(9), 1);
  store.addPiece(FileId(3), 129);
  store.addPiece(FileId(3), 0);
  store.addPiece(FileId(3), 64);
  std::vector<std::pair<FileId, std::uint32_t>> held;
  store.forEachHeldPiece(
      [&](FileId file, std::uint32_t piece) { held.emplace_back(file, piece); });
  EXPECT_EQ(held, (std::vector<std::pair<FileId, std::uint32_t>>{
                      {FileId(3), 0},
                      {FileId(3), 64},
                      {FileId(3), 129},
                      {FileId(9), 1}}));
}

TEST(PieceStore, ZeroPieceFileIsNotRegistered) {
  PieceStore store;
  EXPECT_FALSE(store.registerFile(FileId(4), 0));
  EXPECT_FALSE(store.isRegistered(FileId(4)));
  EXPECT_EQ(store.files().size(), 0u);
}

// One hand-built saveState record per file: id, piece count, one held flag
// per piece, priority, registration seq.
struct RecordFile {
  std::uint32_t id;
  std::vector<bool> held;
  std::uint64_t seq;
};

std::string storeRecord(const std::vector<RecordFile>& files,
                         std::uint64_t nextSeq) {
  Serializer out;
  out.u64(files.size());
  for (const RecordFile& f : files) {
    out.u32(f.id);
    out.u64(f.held.size());
    for (const bool h : f.held) out.boolean(h);
    out.f64(0.5);
    out.u64(f.seq);
  }
  out.u64(nextSeq);
  return out.bytes();
}

// A file listed twice used to load as one file while totalPiecesHeld()
// counted both copies' pieces (4 for a 2-piece file), and a store bounded at
// 3 pieces then evicted at the next addPiece although it held only 2.
TEST(PieceStore, LoadStateRejectsRepeatedFileId) {
  const auto bytes =
      storeRecord({{7, {true, true}, 1}, {7, {true, true}, 2}}, 3);
  PieceStore store(3);
  Deserializer in(bytes);
  EXPECT_THROW(store.loadState(in), SerializeError);
}

TEST(PieceStore, LoadStateRejectsDescendingFileIds) {
  const auto bytes = storeRecord({{9, {true}, 1}, {4, {false, true}, 2}}, 3);
  PieceStore store;
  Deserializer in(bytes);
  EXPECT_THROW(store.loadState(in), SerializeError);
}

TEST(PieceStore, LoadStateRejectsFileWithNoPieces) {
  const auto bytes = storeRecord({{2, {true}, 1}, {5, {}, 2}}, 3);
  PieceStore store;
  Deserializer in(bytes);
  EXPECT_THROW(store.loadState(in), SerializeError);
}

TEST(PieceStore, LoadStateAcceptsAscendingRecord) {
  const auto bytes =
      storeRecord({{2, {true, false, true}, 4}, {5, {false}, 1}}, 6);
  PieceStore store;
  Deserializer in(bytes);
  store.loadState(in);
  EXPECT_EQ(filesOf(store), (std::vector<FileId>{FileId(2), FileId(5)}));
  EXPECT_EQ(store.totalPiecesHeld(), 2u);
  Serializer out;
  store.saveState(out);
  EXPECT_EQ(out.bytes(), bytes);
}

// Drives PieceStore and the hash-map reference store through one random
// operation sequence and compares every query and the saveState bytes after
// each operation.
void expectStoresAgree(const PieceStore& store,
                       const PieceStoreReference& reference,
                       std::uint32_t filePool, std::uint32_t maxPieces) {
  ASSERT_EQ(filesOf(store), reference.files());
  EXPECT_EQ(store.completeFiles(), reference.completeFiles());
  EXPECT_EQ(store.totalPiecesHeld(), reference.totalPiecesHeld());
  EXPECT_EQ(store.arenaWords(), reference.arenaWords());
  for (std::uint32_t f = 0; f < filePool; ++f) {
    const FileId file(f);
    ASSERT_EQ(store.isRegistered(file), reference.isRegistered(file)) << f;
    EXPECT_EQ(store.isComplete(file), reference.isComplete(file)) << f;
    EXPECT_EQ(store.piecesHeld(file), reference.piecesHeld(file)) << f;
    EXPECT_EQ(store.pieceCount(file), reference.pieceCount(file)) << f;
    for (std::uint32_t p = 0; p <= maxPieces; ++p) {
      ASSERT_EQ(store.hasPiece(file, p), reference.hasPiece(file, p))
          << f << " " << p;
    }
  }
  std::vector<std::pair<FileId, std::uint32_t>> held;
  store.forEachHeldPiece(
      [&](FileId file, std::uint32_t piece) { held.emplace_back(file, piece); });
  std::vector<std::pair<FileId, std::uint32_t>> expected;
  for (const FileId file : reference.files()) {
    for (std::uint32_t p = 0; p < reference.pieceCount(file); ++p) {
      if (reference.hasPiece(file, p)) expected.emplace_back(file, p);
    }
  }
  EXPECT_EQ(held, expected);
  Serializer mine;
  store.saveState(mine);
  Serializer theirs;
  reference.saveState(theirs);
  ASSERT_EQ(mine.bytes(), theirs.bytes());
}

class PieceStoreEquivalence : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PieceStoreEquivalence, RandomOperationsMatchReference) {
  Rng rng(GetParam());
  constexpr std::uint32_t kFilePool = 24;
  constexpr std::uint32_t kMaxPieces = 70;
  // Unbounded, and bounded tightly enough that most additions evict.
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{6},
                                     std::size_t{40}}) {
    PieceStore store = capacity == 0 ? PieceStore() : PieceStore(capacity);
    PieceStoreReference reference =
        capacity == 0 ? PieceStoreReference() : PieceStoreReference(capacity);
    for (int op = 0; op < 600; ++op) {
      const FileId file(static_cast<std::uint32_t>(rng.pickIndex(kFilePool)));
      const std::uint32_t count = reference.pieceCount(file);
      switch (rng.pickIndex(7)) {
        case 0: {
          // Often a file's usual count, so removals re-register it with the
          // same count and recycle its arena block; sometimes a clash.
          const std::uint32_t pieces =
              rng.chance(0.8) ? 1 + file.value * 3 % kMaxPieces
                              : 1 + static_cast<std::uint32_t>(
                                        rng.pickIndex(kMaxPieces));
          ASSERT_EQ(store.registerFile(file, pieces),
                    reference.registerFile(file, pieces));
          break;
        }
        case 1:
        case 2:
          if (count > 0) {
            const auto piece =
                static_cast<std::uint32_t>(rng.pickIndex(count));
            ASSERT_EQ(store.addPiece(file, piece),
                      reference.addPiece(file, piece));
          }
          break;
        case 3:
          if (count > 0 && rng.chance(0.3)) {
            ASSERT_EQ(store.addWholeFile(file), reference.addWholeFile(file));
          }
          break;
        case 4:
          store.removeFile(file);
          reference.removeFile(file);
          break;
        case 5: {
          // Few distinct priorities, so eviction ties break by seq.
          const double priority =
              static_cast<double>(rng.pickIndex(3)) / 2.0;
          store.setPriority(file, priority);
          reference.setPriority(file, priority);
          break;
        }
        case 6: {
          // A save/load round trip leaves the bytes alone.
          Serializer out;
          store.saveState(out);
          PieceStore restored =
              capacity == 0 ? PieceStore() : PieceStore(capacity);
          Deserializer in(out.bytes());
          restored.loadState(in);
          Serializer again;
          restored.saveState(again);
          ASSERT_EQ(again.bytes(), out.bytes());
          break;
        }
      }
      expectStoresAgree(store, reference, kFilePool, kMaxPieces);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PieceStoreEquivalence,
                         testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace hdtn::core
