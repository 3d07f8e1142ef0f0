// Indoor radio propagation: log-distance path loss with per-link lognormal
// shadowing, per-(link, channel) frequency-selective offsets (the reason TSCH
// channel hopping helps), and block temporal fading.
//
// All random components are *hash-derived* from (seed, link, channel, time
// block): the model is stateless and a given run is exactly reproducible.
// Links are symmetric in the static components; temporal fading is symmetric
// too (same coherence block draw both directions), which matches the
// reciprocity of narrowband channels on the timescale of a slot.
//
// Every component is a pure function of its inputs and nothing is memoized
// here: the slot loop reads static means and link keys from Medium's
// per-listener rows, which are built once, so a mean is recomputed only by
// that build and by whole-topology snapshots. The temporal fading draw is
// recomputed statelessly per call: it is one key load, one hash, and an
// inverse-CDF normal — cheaper than the multi-MB cache probe a per-(link,
// channel) block memo costs at realistic revisit cadences.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "phy/geometry.h"

namespace digs {

/// dBm -> mW. The exp2 form of 10^(dbm/10) is several times faster than
/// pow(10, x) on glibc. Every SINR power-summing path converts through this
/// one helper, so the cached per-slot resolver and the reference
/// per-pair evaluation produce identical doubles by construction.
[[nodiscard]] inline double dbm_to_mw(double dbm) {
  constexpr double kLog2Of10Over10 = 0.33219280948873623;  // log2(10)/10
  return std::exp2(dbm * kLog2Of10Over10);
}

struct PropagationConfig {
  /// Path loss at the reference distance (dB). ~40 dB at 1 m for 2.4 GHz.
  double path_loss_ref_db = 40.0;
  double reference_distance_m = 1.0;
  /// Indoor office environments: exponent ~3.
  double path_loss_exponent = 3.0;
  /// Static per-link lognormal shadowing (dB).
  double shadowing_sigma_db = 4.0;
  /// Attenuation per floor boundary crossed (dB).
  double floor_penetration_db = 12.0;
  double floor_height_m = 4.0;
  /// Per-(link, channel) static frequency-selective offset (dB). This is
  /// what makes some channels good and others bad on the same link.
  double channel_offset_sigma_db = 4.0;
  /// Temporal fading sigma (dB), redrawn once per coherence block. Together
  /// with the channel offsets this creates the wide "gray region" of real
  /// indoor 802.15.4 links.
  double temporal_fading_sigma_db = 3.0;
  /// Coherence time of the temporal fading in TSCH slots (100 slots = 1 s).
  std::uint64_t coherence_slots = 100;
};

/// Temporal fading draws are truncated at this many standard deviations
/// (|N| <= 6, P(|N| > 6) ~ 2e-9 for the untruncated normal — beyond any
/// physical multipath gain). The bound is what makes reachability pruning
/// *provable*: instantaneous RSS never exceeds
///   mean_rss_dbm + kFadingNormalBound * temporal_fading_sigma_db,
/// so a pair whose best-channel mean RSS sits below the sensitivity minus
/// that margin can never be decoded.
inline constexpr double kFadingNormalBound = 6.0;

/// Computes received signal strength for a (tx, rx, channel, slot) tuple.
class Propagation {
 public:
  Propagation(const PropagationConfig& config, std::uint64_t seed)
      : config_(config), seed_(seed) {}

  /// RSS in dBm at `rx_pos` for a transmission from `tx_pos` at
  /// `tx_power_dbm`. `a`/`b` identify the link endpoints for the hash-derived
  /// shadowing; channel and slot select the frequency/temporal components.
  [[nodiscard]] double rss_dbm(double tx_power_dbm, NodeId a, NodeId b,
                               const Position& tx_pos, const Position& rx_pos,
                               PhysicalChannel channel,
                               std::uint64_t slot) const;

  /// The temporal-fading component alone (dB) for (link, channel, slot):
  /// the exact value rss_dbm() adds on top of mean_rss_dbm().
  [[nodiscard]] double fading_db(NodeId a, NodeId b, PhysicalChannel channel,
                                 std::uint64_t slot) const;

  /// Coherence block index of `slot` (the temporal unit of fading redraws).
  [[nodiscard]] std::uint64_t fading_block(std::uint64_t slot) const {
    return slot / std::max<std::uint64_t>(config_.coherence_slots, 1);
  }

  /// Pre-mixed (tag, channel, block) suffix of the fading hash; constant
  /// across a listener's pair walk.
  [[nodiscard]] std::uint64_t fading_tail(PhysicalChannel channel,
                                          std::uint64_t block) const {
    constexpr std::uint64_t kFadingTag = 0xFAD0;
    return hash_mix(kFadingTag, channel, block);
  }

  /// The fading draw from a link key and a pre-mixed fading_tail(): exactly
  /// fading_db()'s value at one splitmix64 per call.
  [[nodiscard]] double fading_from_tail(std::uint64_t key,
                                        std::uint64_t tail) const {
    return fading_from_hash(hash_mix_tail(key, tail));
  }

  /// fading_from_tail() with the (key, tail) mix already folded in: the
  /// draw is a pure function of this one 64-bit hash.
  [[nodiscard]] double fading_from_hash(std::uint64_t h) const {
    // Truncated at kFadingNormalBound sigma so the margin in
    // max_fading_db() is a hard guarantee (see the constant's comment).
    const double n = hashed_normal_fast(h);
    return std::clamp(n, -kFadingNormalBound, kFadingNormalBound) *
           config_.temporal_fading_sigma_db;
  }

  /// fading_db() with the link key and coherence block already resolved:
  /// the exact same draw, for callers that hoisted both invariants.
  [[nodiscard]] double fading_from_key(std::uint64_t key,
                                       PhysicalChannel channel,
                                       std::uint64_t block) const {
    return fading_from_tail(key, fading_tail(channel, block));
  }

  /// Deterministic (static-only) RSS with no temporal fading; used for
  /// expected-topology computations and tests.
  [[nodiscard]] double mean_rss_dbm(double tx_power_dbm, NodeId a, NodeId b,
                                    const Position& tx_pos,
                                    const Position& rx_pos,
                                    PhysicalChannel channel) const;

  /// mean_rss_dbm() on every channel at once: `out[ch]` is exactly
  /// mean_rss_dbm(..., ch). The channel-independent terms are evaluated once
  /// and the per-channel offset is the last addition in both, so the doubles
  /// agree bit for bit.
  void mean_rss_channels(double tx_power_dbm, NodeId a, NodeId b,
                         const Position& tx_pos, const Position& rx_pos,
                         double (&out)[kNumChannels]) const;

  [[nodiscard]] const PropagationConfig& config() const { return config_; }

  /// Largest fading excursion any rss_dbm() call can add on top of
  /// mean_rss_dbm() (dB); see kFadingNormalBound.
  [[nodiscard]] double max_fading_db() const {
    return kFadingNormalBound * config_.temporal_fading_sigma_db;
  }

  /// The symmetric per-link hash key all static draws derive from. Public
  /// so Medium's rows can store it per pair for the slot loop's fading
  /// draws.
  [[nodiscard]] std::uint64_t link_key(NodeId a, NodeId b) const {
    // Symmetric: (a, b) and (b, a) share all static draws.
    const std::uint64_t lo = std::min(a.value, b.value);
    const std::uint64_t hi = std::max(a.value, b.value);
    return hash_mix(seed_, lo, hi);
  }

 private:
  /// Every term of mean_rss_dbm() but the channel offset, summed in the
  /// same order.
  [[nodiscard]] double static_rss_dbm(double tx_power_dbm, std::uint64_t key,
                                      const Position& tx_pos,
                                      const Position& rx_pos) const;
  [[nodiscard]] double channel_offset_db(std::uint64_t key,
                                         PhysicalChannel channel) const;

  PropagationConfig config_;
  std::uint64_t seed_;
};

}  // namespace digs
