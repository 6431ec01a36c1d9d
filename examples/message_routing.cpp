// Message routing over a DTN: the store-carry-forward substrate.
//
// Before files can be shared, a DTN must move *anything* at all; this
// example runs the classic routing family over a random-waypoint pedestrian
// trace and compares each protocol with the space-time-graph optimum, then
// prints one concrete foremost journey, hop by hop.
//
//   ./build/examples/message_routing
#include <cstdio>
#include <iostream>

#include "src/graph/space_time.hpp"
#include "src/routing/routing.hpp"
#include "src/trace/mobility.hpp"
#include "src/util/csv.hpp"
#include "src/util/string_util.hpp"

using namespace hdtn;

int main() {
  trace::RandomWaypointParams mobility;
  mobility.nodes = 30;
  mobility.fieldWidth = mobility.fieldHeight = 800.0;
  mobility.radioRange = 40.0;
  mobility.duration = 6 * kHour;
  mobility.seed = 12;
  const trace::ContactTrace trace = generateRandomWaypoint(mobility);
  std::printf("pedestrian trace: %zu nodes, %zu contacts over 6 h\n\n",
              trace.nodeCount(), trace.contactCount());

  Rng rng(5);
  const auto workload = routing::makeUniformWorkload(
      200, trace.nodeCount(), 4 * kHour, 2 * kHour, rng);

  Table table({"protocol", "delivery", "mean delay (min)", "forwards"});
  for (auto algorithm : {routing::RoutingAlgorithm::kDirectDelivery,
                         routing::RoutingAlgorithm::kSprayAndWait,
                         routing::RoutingAlgorithm::kProphet,
                         routing::RoutingAlgorithm::kEpidemic}) {
    routing::RoutingParams params;
    params.algorithm = algorithm;
    const auto result = routing::simulateRouting(trace, workload, params);
    table.addRow({routing::routingAlgorithmName(algorithm),
                  Table::formatDouble(result.deliveryRatio, 3),
                  Table::formatDouble(result.meanDelay / 60.0, 1),
                  std::to_string(result.forwards)});
  }
  const auto oracle = routing::oracleRouting(trace, workload);
  table.addRow({"oracle", Table::formatDouble(oracle.deliveryRatio, 3),
                Table::formatDouble(oracle.meanDelay / 60.0, 1), "-"});
  table.writeAligned(std::cout);

  // One concrete optimal journey, hop by hop.
  const graph::SpaceTimeGraph stg(trace);
  for (const auto& m : workload) {
    const graph::Journey journey =
        stg.foremostJourney(m.source, m.destination, m.createdAt);
    if (!journey.reachable || journey.hops.size() < 3) continue;
    std::printf(
        "\nforemost journey for message %u (node %u -> node %u, created "
        "%s):\n",
        m.id.value, m.source.value, m.destination.value,
        formatTime(m.createdAt).c_str());
    for (const auto& hop : journey.hops) {
      std::printf("  %s  node %-3u -> node %-3u\n",
                  formatTime(hop.time).c_str(), hop.from.value,
                  hop.to.value);
    }
    std::printf("  arrives %s, %zu hops\n",
                formatTime(journey.arrival).c_str(), journey.hops.size());
    break;
  }
  return 0;
}
