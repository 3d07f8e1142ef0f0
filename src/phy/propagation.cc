#include "phy/propagation.h"

#include <algorithm>
#include <cmath>

namespace digs {

namespace {
constexpr std::uint64_t kShadowTag = 0x5AAD;
constexpr std::uint64_t kChannelTag = 0xC0FF;
}  // namespace

double Propagation::static_rss_dbm(double tx_power_dbm, std::uint64_t key,
                                   const Position& tx_pos,
                                   const Position& rx_pos) const {
  const double d =
      std::max(distance(tx_pos, rx_pos), config_.reference_distance_m);
  const double path_loss =
      config_.path_loss_ref_db +
      10.0 * config_.path_loss_exponent *
          std::log10(d / config_.reference_distance_m);
  const double floors =
      floors_crossed(tx_pos, rx_pos, config_.floor_height_m) *
      config_.floor_penetration_db;
  const double shadowing =
      hashed_normal(hash_mix(key, kShadowTag)) * config_.shadowing_sigma_db;
  return tx_power_dbm - path_loss - floors + shadowing;
}

double Propagation::channel_offset_db(std::uint64_t key,
                                      PhysicalChannel channel) const {
  return hashed_normal(hash_mix(key, kChannelTag, channel)) *
         config_.channel_offset_sigma_db;
}

double Propagation::mean_rss_dbm(double tx_power_dbm, NodeId a, NodeId b,
                                 const Position& tx_pos,
                                 const Position& rx_pos,
                                 PhysicalChannel channel) const {
  const std::uint64_t key = link_key(a, b);
  return static_rss_dbm(tx_power_dbm, key, tx_pos, rx_pos) +
         channel_offset_db(key, channel);
}

void Propagation::mean_rss_channels(double tx_power_dbm, NodeId a, NodeId b,
                                    const Position& tx_pos,
                                    const Position& rx_pos,
                                    double (&out)[kNumChannels]) const {
  const std::uint64_t key = link_key(a, b);
  const double base = static_rss_dbm(tx_power_dbm, key, tx_pos, rx_pos);
  for (PhysicalChannel ch = 0; ch < kNumChannels; ++ch) {
    out[ch] = base + channel_offset_db(key, ch);
  }
}

double Propagation::fading_db(NodeId a, NodeId b, PhysicalChannel channel,
                              std::uint64_t slot) const {
  // Stateless recompute, no memo: beacon/routing traffic revisits a given
  // (link, channel) on slotframe cadences longer than the coherence block,
  // so a per-(link, channel) block cache misses nearly always and costs a
  // multi-MB random probe per call. The draw itself is one hash and an
  // inverse-CDF normal.
  return fading_from_key(link_key(a, b), channel, fading_block(slot));
}

double Propagation::rss_dbm(double tx_power_dbm, NodeId a, NodeId b,
                            const Position& tx_pos, const Position& rx_pos,
                            PhysicalChannel channel,
                            std::uint64_t slot) const {
  return mean_rss_dbm(tx_power_dbm, a, b, tx_pos, rx_pos, channel) +
         fading_db(a, b, channel, slot);
}

}  // namespace digs
