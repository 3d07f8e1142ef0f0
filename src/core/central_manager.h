// The centralized WirelessHART Network Manager running live against a
// Network: it computes graph routes globally (src/manager) and installs
// them on the devices — but only after the reaction time the paper's Fig. 3
// measures (collect + compute + disseminate, here taken from the fitted
// ManagerReactionModel). Between a dynamic event and the install, devices
// operate on stale routes; that window is what DiGS eliminates.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "manager/graph_router.h"
#include "manager/manager_model.h"
#include "sim/simulator.h"

namespace digs {

class Network;

struct CentralManagerConfig {
  /// Initial provisioning delay after network start: the first route
  /// installation (commissioning is not the reaction path under study).
  SimDuration initial_install_after = seconds(static_cast<std::int64_t>(60));
  /// Delay until the manager learns of a dynamic event (path-failure
  /// alarms travel over the mesh).
  SimDuration detection_delay = seconds(static_cast<std::int64_t>(15));
  /// When true, the fitted Fig. 3 reaction time elapses between detection
  /// and installation of new routes; when false the manager reacts
  /// instantly (an idealized lower bound, useful for ablations).
  bool model_reaction_time = true;
  /// RSS floor for links the manager considers usable.
  double min_rss_dbm = -89.0;
};

class CentralManager {
 public:
  CentralManager(Network& network, const CentralManagerConfig& config);

  /// Schedules the initial route computation + installation.
  void start();

  /// A dynamic event occurred (node failure/restart). The manager reacts
  /// after detection + reaction time; overlapping events coalesce into the
  /// pending update.
  void notify_dynamics();

  /// Reaction time predicted for the current network (Fig. 3 model).
  [[nodiscard]] SimDuration reaction_time() const;

  [[nodiscard]] std::uint64_t installs() const { return installs_; }

 private:
  /// Builds the alive-topology snapshot, computes routes, installs them.
  void recompute_and_install();

  Network& network_;
  CentralManagerConfig config_;
  ManagerReactionModel model_;
  EventHandle pending_;
  std::uint64_t installs_{0};
};

}  // namespace digs
