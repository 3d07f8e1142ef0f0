#include "phy/reception.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace digs {

void SlotReception::begin_slot(std::uint64_t slot, SimTime slot_start,
                               std::span<const TransmissionAttempt> attempts,
                               const CellAttemptIndex* cells) {
  slot_ = slot;
  slot_start_ = slot_start;
  attempts_ = attempts;
  if (cells != nullptr) {
    cells_ = cells;
  } else {
    own_cells_.build(medium_->grid(), attempts);
    cells_ = &own_cells_;
  }
}

std::span<const std::uint32_t> SlotReception::begin_listener_gather(
    NodeId rx, PhysicalChannel channel, double rx_clock_offset_us,
    double guard_us) {
  rx_ = rx;
  channel_ = channel;
  rx_clock_offset_us_ = rx_clock_offset_us;
  guard_us_ = guard_us;
  // --- candidate gather ---
  // The cell buckets hand back exactly the grid-coupled attempts (plus
  // conservatively-coupled out-of-range senders); sorting restores the
  // ascending attempt order the reference accumulation uses. When the grid
  // filter is inactive every pair couples and the full scan is the gather.
  cand_.clear();
  if (cells_ != nullptr && cells_->active() &&
      rx.value < medium_->num_nodes()) {
    cells_->gather(static_cast<std::uint16_t>(rx.value), channel, cand_);
    // The buckets are channel-native, but overflow entries are not: drop
    // self/cross-channel attempts BEFORE sorting. Same surviving set, same
    // ascending order after the sort.
    std::size_t w = 0;
    for (const std::uint32_t t : cand_) {
      const TransmissionAttempt& other = attempts_[t];
      if (other.sender == rx || other.channel != channel) continue;
      cand_[w++] = t;
    }
    cand_.resize(w);
    // Typical candidate lists are a couple dozen entries (one 3×3 cell
    // neighborhood), where a branch-light insertion sort beats std::sort's
    // introsort dispatch; large lists still go through std::sort.
    if (w <= 32) {
      for (std::size_t j = 1; j < w; ++j) {
        const std::uint32_t v = cand_[j];
        std::size_t k = j;
        for (; k > 0 && cand_[k - 1] > v; --k) cand_[k] = cand_[k - 1];
        cand_[k] = v;
      }
    } else {
      std::sort(cand_.begin(), cand_.end());
    }
  } else {
    for (std::uint32_t t = 0; t < attempts_.size(); ++t) {
      const TransmissionAttempt& other = attempts_[t];
      if (other.sender == rx || other.channel != channel) continue;
      if (!medium_->coupled(other.sender, rx)) continue;
      cand_.push_back(t);
    }
  }
  prime_candidate_rows();
  return cand_;
}

void SlotReception::prime_candidate_rows() {
  const double primed = medium_->primed_power_dbm();
  row_ = channel_ < kNumChannels ? medium_->link_row(rx_, primed)
                                 : Medium::LinkRow{};
  const std::size_t channel_offset =
      static_cast<std::size_t>(channel_) * row_.len;
  // In-engine attempts are ascending in sender id (participant order), so
  // each search starts at the previous hit; a row spanning every node
  // answers from its direct probe without searching.
  const std::size_t num_cand = cand_.size();
  cand_idx_.resize(num_cand);
  std::uint32_t from = 0;
  for (std::size_t i = 0; i < num_cand; ++i) {
    const TransmissionAttempt& other = attempts_[cand_[i]];
    // The row holds means at the primed power only.
    const std::uint32_t idx = other.tx_power_dbm == primed
                                  ? row_.find(other.sender.value, from)
                                  : row_.len;
    cand_idx_[i] = idx;
    if (idx < row_.len) {
      from = idx;
      __builtin_prefetch(row_.means + channel_offset + idx);
      __builtin_prefetch(row_.keys + idx);
    }
  }
}

void SlotReception::accumulate_gathered() {
  const NodeId rx = rx_;
  const PhysicalChannel channel = channel_;
  // --- pass 1: per-candidate (mean, link key), or slow-path RSS ---
  // prime_candidate_rows() already resolved cand_idx_ and prefetched the
  // row entries; the loads here are independent per iteration, so the
  // prefetched lines and the out-of-order window overlap the misses. The
  // row is the one rss_dbm() reads, so mean + fading reproduces its exact
  // doubles; a candidate missing from the row (another TX power) takes
  // rss_dbm()'s full computation.
  const Propagation& prop = medium_->propagation();
  const Medium::LinkRow row = row_;
  const std::size_t channel_offset =
      static_cast<std::size_t>(channel) * row.len;
  const std::uint64_t ftail =
      prop.fading_tail(channel, prop.fading_block(slot_));
  const std::size_t num_cand = cand_.size();
  cand_rss_.resize(num_cand);
  cand_mw_.resize(num_cand);
  cand_mean_.resize(num_cand);
  cand_key_.resize(num_cand);
  cand_fast_.resize(num_cand);
  bool all_fast = true;
  for (std::size_t i = 0; i < num_cand; ++i) {
    const std::uint32_t idx = cand_idx_[i];
    if (idx < row.len) {
      cand_mean_[i] = row.means[channel_offset + idx];
      cand_key_[i] = row.keys[idx];
      cand_fast_[i] = 1;
    } else {
      const TransmissionAttempt& other = attempts_[cand_[i]];
      cand_rss_[i] = medium_->rss_dbm(other.sender, rx, channel, slot_,
                                      other.tx_power_dbm);
      cand_fast_[i] = 0;
      all_fast = false;
    }
  }
  // --- pass 2: batched fading (hash + inverse-CDF) over the candidates ---
  // The draws are stateless per (link key, tail), so batching them changes
  // no double; the all-fast loop is branch-free over the gathered arrays.
  // (A full-hash draw memo was tried here and measured ~0% hits on the
  // city row: channel hopping means a (link, channel) pair almost never
  // recurs within one coherence block, so recomputing is cheaper.)
  if (all_fast) {
    for (std::size_t i = 0; i < num_cand; ++i) {
      cand_rss_[i] = cand_mean_[i] + prop.fading_from_tail(cand_key_[i], ftail);
    }
  } else {
    for (std::size_t i = 0; i < num_cand; ++i) {
      if (cand_fast_[i] != 0) {
        cand_rss_[i] =
            cand_mean_[i] + prop.fading_from_tail(cand_key_[i], ftail);
      }
    }
  }
  // --- pass 3: mW conversion + accumulation, ascending attempt index ---
  // Identical order and per-term arithmetic to Medium::interference_mw()
  // (which skips the same uncoupled terms via `continue` — they were never
  // added there either), so the totals and every decode subtraction match
  // it bit-for-bit.
  double total_mw = 0.0;
  for (std::size_t i = 0; i < num_cand; ++i) {
    const double mw = dbm_to_mw(cand_rss_[i]);
    cand_mw_[i] = mw;
    total_mw += mw;
  }
  total_mw_ = total_mw;
  jammer_mw_ = medium_->jammer_mw(rx, channel, slot_, slot_start_);
}

SlotReception::DecodeOutcome SlotReception::decode_candidates(
    std::uint64_t slot_draw_seed) const {
  DecodeOutcome out;
  // Self, cross-channel and uncoupled attempts were filtered in the gather;
  // the sequence below is Medium::check_reception()'s, term for term.
  const double sensitivity = medium_->config().sensitivity_dbm;
  const double noise_mw = medium_->noise_floor_mw();
  const double total_mw = total_mw_;
  const double jammer_mw = jammer_mw_;
  const double rx_offset_us = rx_clock_offset_us_;
  const double guard_us = guard_us_;
  const NodeId rx = rx_;
  const std::size_t num_cand = cand_.size();
  for (std::size_t i = 0; i < num_cand; ++i) {
    const std::uint32_t t = cand_[i];
    const TransmissionAttempt& tx = attempts_[t];
    // Reachability pruning: a pruned pair's probability is exactly 0 on
    // every channel and slot, and its empty decode carries no guard miss —
    // skipping it changes no outcome.
    if (!medium_->maybe_reachable(tx.sender, rx)) continue;
    const double signal_dbm = cand_rss_[i];
    // Guard check before the sensitivity cut, as in check_reception(): a
    // guard miss is counted even for sub-threshold signals.
    if (std::fabs(tx.clock_offset_us - rx_offset_us) > guard_us) {
      ++out.guard_misses;
      continue;
    }
    if (signal_dbm < sensitivity) continue;
    if (medium_->link_blacked_out(tx.sender, rx)) continue;
    const double signal_mw = cand_mw_[i];
    double interf_mw = total_mw - signal_mw;
    if (interf_mw < 0.0) interf_mw = 0.0;  // FP guard for the subtraction
    interf_mw += jammer_mw;
    const double sinr_db =
        10.0 * std::log10(signal_mw / (noise_mw + interf_mw));
    const double probability = medium_->prr(tx.frame_bytes, sinr_db);
    // Draw only for decodable pairs: chance(0) is false in any keying, so
    // skipping the hash for the common below-threshold case is outcome-free.
    if (!(probability > 0.0)) continue;
    const double draw = hashed_uniform(
        hash_mix(slot_draw_seed, rx.value, tx.sender.value));
    if (!(draw < probability)) continue;
    if (signal_dbm > out.best_rss) {
      out.best_rss = signal_dbm;
      out.best_tx = static_cast<std::int32_t>(t);
    }
  }
  return out;
}

}  // namespace digs
