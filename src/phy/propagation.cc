#include "phy/propagation.h"

#include <algorithm>
#include <cmath>

namespace digs {

double Propagation::mean_rss_dbm(double tx_power_dbm, NodeId a, NodeId b,
                                 const Position& tx_pos,
                                 const Position& rx_pos,
                                 PhysicalChannel channel) const {
  const double d =
      std::max(distance(tx_pos, rx_pos), config_.reference_distance_m);
  const double path_loss =
      config_.path_loss_ref_db +
      10.0 * config_.path_loss_exponent *
          std::log10(d / config_.reference_distance_m);
  const double floors =
      floors_crossed(tx_pos, rx_pos, config_.floor_height_m) *
      config_.floor_penetration_db;

  const std::uint64_t key = link_key(a, b);
  constexpr std::uint64_t kShadowTag = 0x5AAD;
  constexpr std::uint64_t kChannelTag = 0xC0FF;
  const double shadowing =
      hashed_normal(hash_mix(key, kShadowTag)) * config_.shadowing_sigma_db;
  const double channel_offset =
      hashed_normal(hash_mix(key, kChannelTag, channel)) *
      config_.channel_offset_sigma_db;

  return tx_power_dbm - path_loss - floors + shadowing + channel_offset;
}

double Propagation::fading_db(NodeId a, NodeId b, PhysicalChannel channel,
                              std::uint64_t slot) const {
  // Stateless recompute, no memo: beacon/routing traffic revisits a given
  // (link, channel) on slotframe cadences longer than the coherence block,
  // so a per-(link, channel) block cache misses nearly always and costs a
  // multi-MB random probe per call. The draw itself is one small-table load,
  // one hash, and an inverse-CDF normal.
  const std::uint64_t key =
      link_keys_.empty() || a.value >= num_nodes_ || b.value >= num_nodes_
          ? link_key(a, b)
          : link_keys_[a.value * num_nodes_ + b.value];
  return fading_from_key(key, channel, fading_block(slot));
}

double Propagation::rss_dbm(double tx_power_dbm, NodeId a, NodeId b,
                            const Position& tx_pos, const Position& rx_pos,
                            PhysicalChannel channel,
                            std::uint64_t slot) const {
  return mean_rss_dbm(tx_power_dbm, a, b, tx_pos, rx_pos, channel) +
         fading_db(a, b, channel, slot);
}

}  // namespace digs
