// Equivalence of the linear hello exchange (exchangeHellos) with the
// pairwise loop it replaced, over randomized cliques: every member's
// checkpointed state must come out byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/internet.hpp"
#include "src/core/node.hpp"
#include "src/core/protocol.hpp"
#include "src/core/state_refs.hpp"
#include "src/util/random.hpp"
#include "src/util/serialize.hpp"

namespace hdtn::core {
namespace {

// The reference: every member stores every other member's hello in turn,
// O(n^2 * W) stores for n members advertising W URIs each.
void exchangeHellosPairwise(const std::vector<Node*>& members,
                            const ProtocolConfig& protocol,
                            const FileCatalog& catalog, SimTime now) {
  std::vector<std::vector<SharedQuery>> queries(members.size());
  std::vector<std::vector<Uri>> wantedUris(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    queries[i] = members[i]->activeQueries(now);
    for (FileId file : members[i]->wantedFilesView(now)) {
      const FileInfo* info = catalog.find(file);
      if (info != nullptr) wantedUris[i].push_back(info->uri);
    }
    if (protocol.distributesQueries()) {
      for (const Uri& uri : members[i]->peerWantedUris(now)) {
        wantedUris[i].push_back(uri);
      }
    }
  }
  if (protocol.distributesQueries()) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (i == j || !members[j]->contributes()) continue;
        members[i]->storePeerQueries(members[j]->id(), queries[j], now);
      }
    }
  }
  if (protocol.distributesMetadata()) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (i == j) continue;
        members[i]->storePeerWants(wantedUris[j], now);
      }
    }
  }
}

std::string stateBytes(const Node& node) {
  Serializer out;
  StateRefWriter refs;
  node.saveState(out, refs);
  return out.bytes();
}

constexpr Duration kTtl = kDay;

// A clique of `size` nodes with overlapping, self-advertised, stale and
// empty hello contents, some of them free-riders.
std::vector<Node> randomClique(Rng& rng, const InternetServices& internet,
                               const std::vector<FileId>& files,
                               std::size_t size, SimTime now) {
  auto pickFile = [&]() -> const FileInfo& {
    return *internet.catalog().find(files[rng.pickIndex(files.size())]);
  };
  std::vector<Node> nodes;
  nodes.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    Node node(NodeId(static_cast<std::uint32_t>(i)),
              {.freeRider = rng.chance(0.2)});
    node.setCooperativeStateTtl(kTtl);
    node.setCatalog(&internet.catalog());
    std::vector<NodeId> frequent;
    for (std::size_t j = 0; j < size; ++j) {
      if (j != i && rng.chance(0.5)) {
        frequent.push_back(NodeId(static_cast<std::uint32_t>(j)));
      }
    }
    node.setFrequentContacts(frequent);
    if (rng.chance(0.15)) {  // advertises nothing at all
      nodes.push_back(std::move(node));
      continue;
    }
    const auto queries = rng.uniformInt(0, 4);
    for (std::int64_t q = 0; q < queries; ++q) {
      const FileInfo& info = pickFile();
      Query query;
      query.id = QueryId(static_cast<std::uint32_t>(q));
      query.owner = node.id();
      query.text = canonicalQueryText(info);
      query.target = info.id;
      query.issuedAt = 0;
      query.ttl = 3 * kDay;
      node.addQuery(query);
      // Some queries already selected their file: it is wanted.
      if (rng.chance(0.6)) {
        node.acceptMetadata(internet.catalog().metadataFor(info.id), 0);
      }
    }
    // Requesting URIs heard earlier: fresh or stale, catalog URIs (possibly
    // the node's own wanted files) or URIs the catalog does not know, which
    // the node drops.
    const auto wants = rng.uniformInt(0, 12);
    for (std::int64_t w = 0; w < wants; ++w) {
      const SimTime stamp = now - rng.uniformInt(0, 2 * kTtl);
      const Uri uri = rng.chance(0.1) ? "dtn://ghost/" + std::to_string(w)
                                      : pickFile().uri;
      node.storePeerWants({uri}, stamp);
    }
    for (const FileId file : node.wantedFilesView(0)) {
      if (rng.chance(0.3)) {
        node.storePeerWants({internet.catalog().find(file)->uri}, now - 1);
      }
    }
    if (!frequent.empty() && rng.chance(0.5)) {
      const SharedQuery old = std::make_shared<const FileQuery>("old query");
      node.storePeerQueries(frequent.front(), {&old, 1},
                            now - rng.uniformInt(0, 2 * kTtl));
    }
    nodes.push_back(std::move(node));
  }
  return nodes;
}

std::vector<Node*> pointers(std::vector<Node>& nodes,
                            const std::vector<std::size_t>& order) {
  std::vector<Node*> out;
  for (std::size_t i : order) out.push_back(&nodes[i]);
  return out;
}

void expectIdenticalStates(const std::vector<Node>& reference,
                           const std::vector<Node>& fast,
                           const std::string& context) {
  ASSERT_EQ(reference.size(), fast.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(stateBytes(reference[i]), stateBytes(fast[i]))
        << context << ", member " << i;
  }
}

TEST(HelloExchange, MatchesPairwiseReferenceOnRandomCliques) {
  Rng rng(20260808);
  InternetServices internet;
  SyntheticBatchParams batch;
  batch.count = 30;
  batch.ttl = 10 * kDay;
  const std::vector<FileId> files = publishSyntheticBatch(internet, batch, rng);
  const ProtocolKind kinds[] = {ProtocolKind::kMbt, ProtocolKind::kMbtQ,
                                ProtocolKind::kMbtQm};

  for (int trial = 0; trial < 60; ++trial) {
    const ProtocolConfig protocol{.kind = kinds[trial % 3]};
    const auto size = static_cast<std::size_t>(rng.uniformInt(2, 48));
    SimTime now = 2 * kTtl + rng.uniformInt(0, kTtl);
    std::vector<Node> reference =
        randomClique(rng, internet, files, size, now);
    std::vector<Node> fast = reference;

    // Two contacts: the whole clique, then a shuffled sub-clique after time
    // moved on and both sides expired their state.
    std::vector<std::size_t> order(size);
    for (std::size_t i = 0; i < size; ++i) order[i] = i;
    for (int round = 0; round < 2; ++round) {
      exchangeHellosPairwise(pointers(reference, order), protocol,
                             internet.catalog(), now);
      ContactViews views;
      exchangeHellos(pointers(fast, order), protocol, internet.catalog(),
                     now, views);
      const std::string context = "trial " + std::to_string(trial) +
                                  " (" + protocolName(protocol.kind) +
                                  ", " + std::to_string(size) +
                                  " members), round " + std::to_string(round);
      expectIdenticalStates(reference, fast, context);

      now += rng.uniformInt(0, kTtl);
      for (Node& node : reference) node.expire(now);
      for (Node& node : fast) node.expire(now);
      rng.shuffle(order);
      order.resize(static_cast<std::size_t>(
          rng.uniformInt(2, static_cast<std::int64_t>(size))));
    }
  }
}

TEST(HelloExchange, MemberDoesNotStoreWhatOnlyItAdvertised) {
  InternetServices internet;
  Rng rng(7);
  SyntheticBatchParams batch;
  batch.count = 2;
  const auto files = publishSyntheticBatch(internet, batch, rng);
  const Uri mine = internet.catalog().find(files[0])->uri;
  const Uri shared = internet.catalog().find(files[1])->uri;

  Node a(NodeId(0), {});
  Node b(NodeId(1), {});
  Node c(NodeId(2), {});
  for (Node* node : {&a, &b, &c}) {
    node->setCooperativeStateTtl(kTtl);
    node->setCatalog(&internet.catalog());
  }
  a.storePeerWants({mine, shared}, 10);
  c.storePeerWants({shared}, 10);
  std::vector<Node*> members{&a, &b, &c};
  ContactViews views;
  exchangeHellos(members, ProtocolConfig{}, internet.catalog(), 20, views);

  // `mine` was advertised by a alone: a keeps its old stamp, b and c store
  // it fresh. `shared` came from a and c, so every member restamps it.
  std::vector<Uri> both{mine, shared};
  std::sort(both.begin(), both.end());
  EXPECT_EQ(a.peerWantedUris(10 + kTtl + 1), std::vector<Uri>{shared});
  EXPECT_EQ(b.peerWantedUris(20 + kTtl), both);
  EXPECT_EQ(c.peerWantedUris(20 + kTtl), both);
}

}  // namespace
}  // namespace hdtn::core
