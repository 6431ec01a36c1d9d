#include "src/core/piece_store.hpp"

#include <gtest/gtest.h>

namespace hdtn::core {
namespace {

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

TEST(PieceStore, MissingPieces) {
  PieceStore store;
  store.registerFile(FileId(2), 4);
  store.addPiece(FileId(2), 1);
  store.addPiece(FileId(2), 3);
  EXPECT_EQ(store.missingPieces(FileId(2)),
            (std::vector<std::uint32_t>{0, 2}));
  EXPECT_TRUE(store.missingPieces(FileId(9)).empty());
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
  EXPECT_EQ(store.files(),
            (std::vector<FileId>{FileId(2), FileId(5), FileId(9)}));
}

TEST(PieceStore, FilesViewFollowsRegisterRemoveAndLoad) {
  PieceStore store;
  store.registerFile(FileId(5), 1);
  EXPECT_EQ(store.files(), (std::vector<FileId>{FileId(5)}));
  store.registerFile(FileId(2), 1);
  EXPECT_EQ(store.files(), (std::vector<FileId>{FileId(2), FileId(5)}));
  store.addPiece(FileId(2), 0);  // pieces do not change the file set
  EXPECT_EQ(store.files(), (std::vector<FileId>{FileId(2), FileId(5)}));
  store.removeFile(FileId(5));
  EXPECT_EQ(store.files(), (std::vector<FileId>{FileId(2)}));

  PieceStore other;
  other.registerFile(FileId(7), 2);
  other.registerFile(FileId(3), 1);
  Serializer out;
  other.saveState(out);
  Deserializer in(out.bytes());
  store.loadState(in);
  EXPECT_EQ(store.files(), (std::vector<FileId>{FileId(3), FileId(7)}));
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

}  // namespace
}  // namespace hdtn::core
