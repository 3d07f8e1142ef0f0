// Reproduces the paper's routing example (Section V-A, Fig. 6): two access
// points (AP1, AP2) and four field devices (#3, #4, #5, #6). Join-in
// messages are exchanged directly through the protocol objects so the ETX
// values can be controlled exactly, and the resulting graph routes are
// printed next to the paper's expected result:
//
//   primary paths:  #3 -> #4 -> #6 -> AP2,  #5 -> AP1
//   backup paths:   #3 -> #5, #4 -> #5, #5 -> AP2, #6 -> AP1
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "routing/digs_routing.h"
#include "sim/simulator.h"

namespace {

using namespace digs;

// Link ETX values chosen to produce the paper's Fig. 6 outcome.
// (The figure annotates links with ETX; the text fixes the selections.)
// Keys are (higher id, lower id).
const std::map<std::pair<int, int>, double> kLinkEtx = {
    {{5, 0}, 1.0},  // #5 - AP1 (good)
    {{5, 1}, 1.6},  // #5 - AP2
    {{6, 1}, 1.0},  // #6 - AP2 (good)
    {{6, 0}, 1.8},  // #6 - AP1
    {{6, 5}, 1.2},  // #5 - #6 (same rank: never used for routing)
    {{6, 4}, 1.0},  // #4 - #6 (best for #4)
    {{5, 4}, 1.7},  // #4 - #5 (backup for #4)
    {{4, 3}, 1.0},  // #3 - #4 (best for #3)
    {{5, 3}, 2.6},  // #3 - #5 (backup for #3)
};

struct ExampleNode {
  NodeId id;
  NeighborTable table;
  std::unique_ptr<DigsRouting> routing;
  std::vector<Frame> outbox;
};

double link_etx(NodeId a, NodeId b) {
  const auto key = std::make_pair(std::max(a.value, b.value),
                                  std::min(a.value, b.value));
  const auto it = kLinkEtx.find({key.first, key.second});
  return it == kLinkEtx.end() ? -1.0 : it->second;
}

/// RSS that seeds exactly the wanted ETX under the paper's mapping
/// (-60 dBm -> 1, -90 dBm -> 3, linear in between).
double rss_for_etx(double etx) { return -60.0 - (etx - 1.0) * 15.0; }

}  // namespace

int main() {
  Simulator sim;
  std::map<std::uint16_t, ExampleNode> nodes;

  // Ids: 0 = AP1, 1 = AP2, 3..6 = field devices (2 unused to keep the
  // paper's numbering).
  for (const std::uint16_t id : {0, 1, 3, 4, 5, 6}) {
    ExampleNode& node = nodes[id];
    node.id = NodeId{id};
    RoutingProtocol::Env env;
    env.send_routing = [&nodes, id](const Frame& frame) {
      nodes[id].outbox.push_back(frame);
    };
    env.on_topology_changed = [](SimTime) {};
    DigsRoutingConfig config;
    config.trickle.imin = milliseconds(100);
    node.routing = std::make_unique<DigsRouting>(
        sim, node.id, /*is_access_point=*/id < 2, node.table, config,
        Rng(id + 1), env);
    node.routing->start(sim.now());
  }

  // Message pump: deliver every queued join-in / joined-callback to the
  // radio neighbors (links present in kLinkEtx), seeding link ETX from the
  // controlled RSS. A fixed number of 1 s rounds covers several Trickle
  // intervals (suppression makes some rounds quiet).
  const auto pump = [&] {
    for (int round = 0; round < 15; ++round) {
      sim.run_until(sim.now() + seconds(static_cast<std::int64_t>(1)));
      for (auto& [id, node] : nodes) {
        std::vector<Frame> outbox;
        outbox.swap(node.outbox);
        for (const Frame& frame : outbox) {
          for (auto& [other_id, other] : nodes) {
            if (other_id == id) continue;
            const double etx = link_etx(node.id, other.id);
            if (etx < 0.0) continue;  // not neighbors
            if (!frame.is_broadcast() && frame.dst != other.id) continue;
            const double rss = rss_for_etx(etx);
            if (frame.type == FrameType::kJoinIn) {
              const auto& payload = frame.as<JoinInPayload>();
              other.table.on_heard(frame.src, rss, payload.rank,
                                   payload.etxw, sim.now());
            } else {
              other.table.on_heard_rss(frame.src, rss, sim.now());
            }
            other.routing->handle_frame(frame, rss, sim.now());
          }
        }
      }
    }
  };
  pump();

  std::printf("Fig. 6 routing example - generated graph routes:\n\n");
  std::printf("node | rank | best parent | second best parent\n");
  std::printf("-----+------+-------------+-------------------\n");
  const auto name = [](NodeId id) -> std::string {
    if (!id.valid()) return "-";
    if (id.value == 0) return "AP1";
    if (id.value == 1) return "AP2";
    std::string label = "#";
    label += std::to_string(id.value);
    return label;
  };
  for (const std::uint16_t id : {3, 4, 5, 6}) {
    const auto& routing = *nodes[id].routing;
    std::printf("  #%u | %4u | %11s | %18s\n", id, routing.rank(),
                name(routing.best_parent()).c_str(),
                name(routing.second_best_parent()).c_str());
  }

  std::printf("\npaper expectation:\n");
  std::printf("   #5 | rank 2 | AP1 | AP2\n");
  std::printf("   #6 | rank 2 | AP2 | AP1\n");
  std::printf("   #4 | rank 3 | #6  | #5\n");
  std::printf("   #3 | rank 4 | #4  | #5\n");
  std::printf(
      "\nNote the #5 - #6 link is never selected: both have rank 2, and\n"
      "equal-rank links are excluded to avoid loops (paper Section V-A).\n");
  return 0;
}
