#include "core/fault_script.h"

#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/network.h"
#include "phy/jammer.h"
#include "phy/reactive_jammer.h"

namespace digs {

std::vector<SimDuration> FaultScript::disturbance_offsets() const {
  std::vector<SimDuration> out;
  for (const FaultEvent& e : events_) {
    if (e.kind != FaultEvent::Kind::kRecover) out.push_back(e.at);
  }
  return out;
}

namespace {

/// Throws std::invalid_argument "<kind> event at <offset> s <problem>".
[[noreturn]] void reject(const FaultEvent& event, const std::string& problem) {
  // Indexed by FaultEvent::Kind.
  constexpr const char* kKindNames[] = {"crash",      "recover",
                                        "blackout",   "burst",
                                        "clock_jump", "reactive_jammer"};
  static_assert(std::size(kKindNames) - 1 ==
                static_cast<std::size_t>(FaultEvent::Kind::kReactiveJammer));
  char head[64];
  std::snprintf(head, sizeof head, "%s event at %+g s ",
                kKindNames[static_cast<int>(event.kind)], event.at.seconds());
  throw std::invalid_argument(head + problem);
}

void check_node(const FaultEvent& event, NodeId id, std::size_t num_nodes) {
  if (id.value >= num_nodes) {
    reject(event, "names node " + std::to_string(id.value) + ", outside the " +
                      std::to_string(num_nodes) + "-node layout");
  }
}

}  // namespace

void FaultScript::validate(std::size_t num_nodes) const {
  for (const FaultEvent& event : events_) {
    // schedule_at clamps a past instant to now, so a negative offset (or a
    // blackout or burst window ending before it starts) fires out of order.
    if (event.at.us < 0) reject(event, "has a negative offset");
    if (event.duration.us < 0) reject(event, "has a negative duration");
    if (event.kind == FaultEvent::Kind::kBlackout) {
      check_node(event, event.link_a, num_nodes);
      check_node(event, event.link_b, num_nodes);
    } else if (event.kind != FaultEvent::Kind::kBurst &&
               event.kind != FaultEvent::Kind::kReactiveJammer) {
      check_node(event, event.node, num_nodes);  // crash, recover, clock jump
    }
  }
}

void FaultScript::install(Network& net) const {
  validate(net.size());
  for (const FaultEvent& event : events_) {
    switch (event.kind) {
      case FaultEvent::Kind::kCrash:
        net.sim().schedule_after(event.at, [&net, node = event.node] {
          net.set_node_alive(node, false);
        });
        break;
      case FaultEvent::Kind::kRecover:
        net.sim().schedule_after(event.at, [&net, node = event.node] {
          net.set_node_alive(node, true);
        });
        break;
      case FaultEvent::Kind::kBlackout:
        net.sim().schedule_after(
            event.at, [&net, a = event.link_a, b = event.link_b] {
              net.medium().set_link_blackout(a, b, true);
            });
        net.sim().schedule_after(
            event.at + event.duration,
            [&net, a = event.link_a, b = event.link_b] {
              net.medium().set_link_blackout(a, b, false);
            });
        break;
      case FaultEvent::Kind::kClockJump:
        net.sim().schedule_after(
            event.at, [&net, node = event.node, off = event.clock_offset_us] {
              net.inject_clock_jump(node, off);
            });
        break;
      case FaultEvent::Kind::kBurst: {
        JammerConfig jam;
        jam.position = event.position;
        jam.tx_power_dbm = event.power_dbm;
        jam.pattern = JammerPattern::kConstant;
        jam.start = net.sim().now() + event.at;
        jam.on_duration = event.duration;
        // One-shot: park the off-phase far beyond any experiment horizon.
        jam.off_duration = seconds(static_cast<std::int64_t>(1) << 40);
        net.add_jammer(jam);
        break;
      }
      case FaultEvent::Kind::kReactiveJammer: {
        ReactiveJammerConfig jam;
        jam.position = event.position;
        jam.tx_power_dbm = event.power_dbm;
        jam.top_k = event.jam_top_k;
        jam.sniff_threshold_dbm = event.sniff_dbm;
        jam.period_slots = event.period_slots;
        jam.epoch_slots = event.epoch_slots;
        jam.start = net.sim().now() + event.at;
        net.add_reactive_jammer(jam);
        break;
      }
    }
  }
}

}  // namespace digs
