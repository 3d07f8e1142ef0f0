#include "phy/reception.h"

#include <cmath>
#include <stdexcept>

#include "common/rng.h"

namespace digs {

SlotReception::SlotReception(const Medium& medium, std::size_t shards)
    : medium_(&medium), shards_(shards) {
  for (Shard& shard : shards_) shard.tag.assign(medium.num_nodes(), kNotOwned);
}

void SlotReception::begin_slot(std::uint64_t slot, SimTime slot_start,
                               std::span<const TransmissionAttempt> attempts,
                               std::span<const Listener> listeners) {
  // The walk reads every sender's row, and each listener's tag, unchecked.
  const double primed = medium_->primed_power_dbm();
  for (const TransmissionAttempt& tx : attempts) {
    if (medium_->link_row(tx.sender, primed).len == 0 ||
        tx.channel >= kNumChannels) {
      throw std::out_of_range(
          "SlotReception: attempt outside the medium's rows");
    }
  }
  for (const Listener& listener : listeners) {
    if (listener.id.value >= medium_->num_nodes()) {
      throw std::out_of_range("SlotReception: listener outside the medium");
    }
  }
  slot_ = slot;
  slot_start_ = slot_start;
  attempts_ = attempts;
  listeners_ = listeners;
}

void SlotReception::walk(std::size_t shard,
                         std::span<const std::uint32_t> owned,
                         std::span<Outcome> outcomes) {
  Shard& sh = shards_[shard];
  sh.pairs.clear();
  sh.sums.resize(listeners_.size());
  for (const std::uint32_t li : owned) {
    const Listener& listener = listeners_[li];
    // A listener beyond the channel range hears nothing: begin_slot() let
    // no attempt past kNumChannels through.
    if (listener.channel < kNumChannels) {
      sh.tag[listener.id.value] = li << kChannelBits | listener.channel;
    }
    sh.sums[li] = Sums{0.0, -1.0};
  }
  const Propagation& prop = medium_->propagation();
  const double primed = medium_->primed_power_dbm();
  const double sensitivity = medium_->config().sensitivity_dbm;
  const std::uint64_t block = prop.fading_block(slot_);
  for (std::uint32_t t = 0; t < attempts_.size(); ++t) {
    const TransmissionAttempt& tx = attempts_[t];
    const NodeId sender = tx.sender;
    const PhysicalChannel channel = tx.channel;
    // The row at the primed power names the sender's coupled nodes at any
    // power.
    const Medium::LinkRow row = medium_->link_row(sender, primed);
    // Pass 1: the row entries naming an owned listener on the attempt's
    // channel, other than the sender itself, compacted without a branch.
    // The expensive per-pair arithmetic then runs in tight loops over the
    // hits.
    sh.hits.resize(row.len);
    std::uint32_t* hits = sh.hits.data();
    std::uint32_t num_hits = 0;
    for (std::uint32_t i = 0; i < row.len; ++i) {
      const std::uint16_t col = row.cols[i];
      hits[num_hits] = i;
      num_hits += static_cast<std::uint32_t>(
          (sh.tag[col] & kChannelMask) == channel && col != sender.value);
    }
    // Pass 2: each hit's RSS. Row means and keys hold the primed power
    // only; an attempt at another power takes rss_dbm()'s full computation
    // per pair.
    sh.rss.resize(num_hits);
    double* rss = sh.rss.data();
    if (tx.tx_power_dbm == primed) {
      const double* means =
          row.means + static_cast<std::size_t>(channel) * row.len;
      const std::uint64_t tail = prop.fading_tail(channel, block);
      for (std::uint32_t k = 0; k < num_hits; ++k) {
        const std::uint32_t i = hits[k];
        rss[k] = means[i] + prop.fading_from_tail(row.keys[i], tail);
      }
    } else {
      for (std::uint32_t k = 0; k < num_hits; ++k) {
        rss[k] = medium_->rss_dbm(sender, NodeId{row.cols[hits[k]]}, channel,
                                  slot_, tx.tx_power_dbm);
      }
    }
    // Pass 3: each hit's mW.
    sh.mw.resize(num_hits);
    double* mws = sh.mw.data();
    for (std::uint32_t k = 0; k < num_hits; ++k) mws[k] = dbm_to_mw(rss[k]);
    // Pass 4: totals, then the checks that decide which pairs are kept.
    for (std::uint32_t k = 0; k < num_hits; ++k) {
      const NodeId rx{row.cols[hits[k]]};
      const std::uint32_t li = sh.tag[rx.value] >> kChannelBits;
      const double mw = mws[k];
      Sums& sums = sh.sums[li];
      sums.total_mw += mw;
      // Reachability pruning: a pruned pair's probability is exactly 0 on
      // every channel and slot, and its empty decode carries no guard miss.
      if (!medium_->maybe_reachable(sender, rx)) continue;
      const Listener& listener = listeners_[li];
      // Guard check before the sensitivity cut, as in check_reception(): a
      // guard miss is counted even for sub-threshold signals.
      if (std::fabs(tx.clock_offset_us - listener.clock_offset_us) >
          listener.guard_us) {
        ++outcomes[li].guard_misses;
        continue;
      }
      if (rss[k] < sensitivity) continue;
      if (medium_->link_blacked_out(sender, rx)) continue;
      if (sums.jammer_mw < 0.0) {
        sums.jammer_mw = medium_->jammer_mw(rx, channel, slot_, slot_start_);
      }
      sh.pairs.push_back(Pair{li, t, rss[k], mw});
    }
  }
  for (const std::uint32_t li : owned) {
    sh.tag[listeners_[li].id.value] = kNotOwned;
  }
}

void SlotReception::decode(std::size_t shard, std::uint64_t draw_seed,
                           std::span<Outcome> outcomes) const {
  const Shard& sh = shards_[shard];
  const double noise_mw = medium_->noise_floor_mw();
  for (const Pair& pair : sh.pairs) {
    const Sums& sums = sh.sums[pair.li];
    double interf_mw = sums.total_mw - pair.mw;
    if (interf_mw < 0.0) interf_mw = 0.0;  // FP guard for the subtraction
    interf_mw += sums.jammer_mw;
    const double sinr_db =
        10.0 * std::log10(pair.mw / (noise_mw + interf_mw));
    const TransmissionAttempt& tx = attempts_[pair.tx_index];
    const double probability = medium_->prr(tx.frame_bytes, sinr_db);
    // Draw only for decodable pairs: chance(0) is false in any keying, so
    // skipping the hash for the common below-threshold case is outcome-free.
    if (!(probability > 0.0)) continue;
    const double draw = hashed_uniform(
        hash_mix(draw_seed, listeners_[pair.li].id.value, tx.sender.value));
    if (!(draw < probability)) continue;
    Outcome& out = outcomes[pair.li];
    if (pair.rss_dbm > out.rss_dbm) {
      out.rss_dbm = pair.rss_dbm;
      out.tx_index = static_cast<std::int32_t>(pair.tx_index);
    }
  }
}

}  // namespace digs
