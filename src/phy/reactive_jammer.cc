#include "phy/reactive_jammer.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "phy/jammer.h"

namespace digs {

namespace {

ReactiveJammerConfig sanitize(ReactiveJammerConfig config) {
  // Same emitter-domain rules as sanitize_jammer_config: negative dBm is a
  // legitimate weak emitter, only non-finite values fall back.
  if (!std::isfinite(config.tx_power_dbm)) config.tx_power_dbm = 10.0;
  config.tx_power_dbm = std::clamp(config.tx_power_dbm, -60.0, 36.0);
  if (!std::isfinite(config.sniff_threshold_dbm)) {
    config.sniff_threshold_dbm = -90.0;
  }
  if (config.period_slots == 0) config.period_slots = 1;
  config.epoch_slots = std::max<std::uint32_t>(
      config.epoch_slots, config.period_slots);
  const std::uint32_t cells =
      static_cast<std::uint32_t>(config.period_slots) * kNumChannels;
  config.top_k = std::min(config.top_k, cells);
  return config;
}

}  // namespace

ReactiveJammer::ReactiveJammer(const ReactiveJammerConfig& config,
                               std::uint64_t seed)
    : config_(sanitize(config)),
      seed_(seed),
      sniff_floor_mw_(std::pow(10.0, config_.sniff_threshold_dbm / 10.0)),
      histogram_(static_cast<std::size_t>(config_.period_slots) *
                 kNumChannels),
      jam_set_(histogram_.size(), 0) {}

std::size_t ReactiveJammer::bin(std::uint64_t slot,
                                PhysicalChannel channel) const {
  // hop_channel(asn, offset) = (asn + offset) % 16, so the schedule-fixed
  // channel offset is (channel - slot) mod 16.
  const std::uint32_t choff =
      (static_cast<std::uint32_t>(channel) + kNumChannels -
       static_cast<std::uint32_t>(slot % kNumChannels)) %
      kNumChannels;
  return static_cast<std::size_t>(slot % config_.period_slots) * kNumChannels +
         choff;
}

bool ReactiveJammer::begin_slot(std::uint64_t slot, SimTime slot_start) {
  if (slot_start < config_.start) return false;
  if (!observing_) {
    observing_ = true;
    next_epoch_boundary_ =
        (slot / config_.epoch_slots + 1) * config_.epoch_slots;
  } else if (slot >= next_epoch_boundary_) {
    // Roll the epoch *before* recording this slot: the jam set used while
    // slot `s` executes derives only from observations strictly before the
    // boundary <= s. One rebuild per elapsed boundary (the decay advances
    // per epoch even across idle stretches the wake-heap engine skips, so
    // the polled and engine drivers agree).
    do {
      rebuild_jam_set();
      next_epoch_boundary_ += config_.epoch_slots;
    } while (slot >= next_epoch_boundary_);
  }
  return true;
}

void ReactiveJammer::hear(std::uint64_t slot, PhysicalChannel channel) {
  ++heard_;
  ++histogram_[bin(slot, channel)];
}

void ReactiveJammer::rebuild_jam_set() {
  ++epochs_;
  const std::uint64_t seed = seed_;
  const std::uint32_t epoch = epochs_;
  // Count-descending; ties (notably the all-zero tail before the victim's
  // ladder has been heard) break by a seeded hash so the remainder of the
  // duty budget lands on reproducible pseudo-random cells, then by index.
  // Each cell's key is computed once, and since the order is strict and
  // total its top-K set is unique: a partial selection picks exactly the
  // cells a full sort would put first.
  struct Key {
    std::uint64_t hash;
    std::uint32_t count;
    std::uint32_t cell;
  };
  std::vector<Key> keys(histogram_.size());
  for (std::uint32_t cell = 0; cell < keys.size(); ++cell) {
    keys[cell] = Key{hash_mix(seed, epoch, cell), histogram_[cell], cell};
  }
  jam_cells_ = std::min<std::size_t>(config_.top_k, keys.size());
  const auto top = keys.begin() + static_cast<std::ptrdiff_t>(jam_cells_);
  std::nth_element(keys.begin(), top, keys.end(),
                   [](const Key& a, const Key& b) {
                     if (a.count != b.count) return a.count > b.count;
                     if (a.hash != b.hash) return a.hash < b.hash;
                     return a.cell < b.cell;
                   });
  std::fill(jam_set_.begin(), jam_set_.end(), 0);
  for (auto it = keys.begin(); it != top; ++it) jam_set_[it->cell] = 1;
  // Exponential decay so the histogram tracks a randomizing schedule
  // instead of averaging over every stale epoch.
  for (std::uint32_t& count : histogram_) count >>= 1;
}

bool ReactiveJammer::active(PhysicalChannel channel, std::uint64_t slot,
                            SimTime slot_start) const {
  if (slot_start < config_.start) return false;
  return jam_set_[bin(slot, channel)] != 0;
}

double ReactiveJammer::received_power_mw(const Position& rx,
                                         double path_loss_ref_db,
                                         double path_loss_exponent,
                                         double floor_penetration_db,
                                         double floor_height_m) const {
  return path_loss_power_mw(config_.position, rx, config_.tx_power_dbm,
                            path_loss_ref_db, path_loss_exponent,
                            floor_penetration_db, floor_height_m);
}

}  // namespace digs
