// The shared wireless medium.
//
// The TSCH network loop is slotted: in each 10 ms slot the MAC layer gathers
// every transmission attempt, and the Medium decides per listener whether the
// frame is received, given
//   - signal RSS (path loss + shadowing + channel offset + temporal fading),
//   - co-channel interference from every other simultaneous transmitter,
//   - jammer interference active on that (channel, slot),
//   - the thermal noise floor and radio sensitivity,
// via the 802.15.4 SINR->PRR model and a Bernoulli draw.
//
// Storage: build_reachability() partitions the deployment into SpatialGrid
// cells sized by the provable decode radius and stores the static means in
// one place at every node count: a CSR row per listener holding the 16
// channel means and the link key of every node in its 3×3 cell
// neighborhood (itself included). While the grid is inactive — every
// paper-scale layout — that neighborhood is every node, so the rows are
// dense and indexed by node id. Pairs outside a node's neighborhood are
// uncoupled by model definition — no decode, no interference — applied
// identically in this reference path and in the per-slot SlotReception
// walk, which reads a sender's row to find the listeners its frame reaches
// (the rows are symmetric), so the cutoff is shard-invariant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "phy/geometry.h"
#include "phy/jammer.h"
#include "phy/propagation.h"
#include "phy/reactive_jammer.h"
#include "phy/prr.h"
#include "phy/spatial_grid.h"

namespace digs {

class CellAttemptIndex;

struct MediumConfig {
  PropagationConfig propagation;
  /// Thermal noise + receiver noise figure (dBm).
  double noise_floor_dbm = -95.0;
  /// CC2420 receiver sensitivity (dBm): frames below this are never decoded.
  double sensitivity_dbm = -94.0;
  /// Spatial-grid cell size override (m); 0 derives it from the decode
  /// radius (TX power, sensitivity, ±6σ fading margin, path loss).
  double grid_cell_size_m = 0.0;
};

/// One frame on the air during a slot.
struct TransmissionAttempt {
  NodeId sender;
  PhysicalChannel channel{0};
  int frame_bytes{127};
  double tx_power_dbm{0.0};
  /// Sender's accumulated clock offset vs. the network reference (µs); used
  /// by the guard-time miss model. 0 whenever drift is disabled.
  double clock_offset_us{0.0};
};

class Medium {
 public:
  /// `positions[i]` is the position of NodeId(i).
  Medium(const MediumConfig& config, std::vector<Position> positions,
         std::uint64_t seed);

  void add_jammer(const JammerConfig& config);
  void add_reactive_jammer(const ReactiveJammerConfig& config);
  void clear_jammers() {
    jammers_.clear();
    reactive_jammers_.clear();
    jammer_masks_.clear();
    reactive_jammer_masks_.clear();
  }
  [[nodiscard]] std::size_t num_jammers() const { return jammers_.size(); }
  [[nodiscard]] std::size_t num_reactive_jammers() const {
    return reactive_jammers_.size();
  }

  /// Feeds every reactive jammer one executed slot's on-air attempts (the
  /// energy-detection sniff: an attempt is overheard iff its pure path-loss
  /// received power at the jammer clears the sniff threshold). Must be
  /// called from serial code once per slot, before any reception on that
  /// slot is resolved — the drivers call it at the on-air seam, which is
  /// serial in the polled loop, the engine, and the sharded pipeline alike,
  /// so the learned jam sets are shard/thread-invariant.
  void observe_slot_attempts(std::uint64_t slot, SimTime slot_start,
                             std::span<const TransmissionAttempt> attempts);

  /// True when any jammer — oblivious or reactive — is active on (channel,
  /// slot), ignoring geometry. Used for the victim slot-hit coverage
  /// metric, not for interference.
  [[nodiscard]] bool any_jammer_active(PhysicalChannel channel,
                                       std::uint64_t slot,
                                       SimTime slot_start) const;

  /// Forces the (a, b) link's decode probability to 0 in both directions
  /// while set (transient blackout, the paper's "link quality changes").
  /// The blacked-out frame still radiates: it keeps contributing
  /// interference at every other listener, only the decode is suppressed.
  void set_link_blackout(NodeId a, NodeId b, bool blacked_out);

  /// True if decoding (tx -> rx) is currently suppressed by a blackout.
  [[nodiscard]] bool link_blacked_out(NodeId tx, NodeId rx) const {
    if (blackouts_active_ == 0) return false;
    const std::size_t n = positions_.size();
    if (tx.value >= n || rx.value >= n) return false;
    return blackouts_[tx.value * n + rx.value] != 0;
  }

  [[nodiscard]] std::size_t num_nodes() const { return positions_.size(); }
  [[nodiscard]] const Position& position(NodeId id) const {
    return positions_[id.value];
  }

  /// Instantaneous RSS of a frame from `tx` at `rx` (dBm).
  [[nodiscard]] double rss_dbm(NodeId tx, NodeId rx, PhysicalChannel channel,
                               std::uint64_t slot,
                               double tx_power_dbm = 0.0) const;

  /// Static expected RSS (no temporal fading), for tests and topology tools.
  [[nodiscard]] double mean_rss_dbm(NodeId tx, NodeId rx,
                                    PhysicalChannel channel,
                                    double tx_power_dbm = 0.0) const;

  /// Total interference power at `rx` on `channel` during `slot` from
  /// jammers and from concurrent transmitters other than `wanted` (mW).
  /// Computed as (sum over ALL concurrent co-channel transmitters) minus the
  /// wanted sender's own contribution, clamped at zero, plus the jammer sum
  /// — exactly the arithmetic the O(L*T) per-slot resolver derives from its
  /// cached accumulators, so both paths produce identical doubles.
  /// Transmitters outside `rx`'s grid neighborhood are uncoupled and skipped
  /// (identically in both paths). `cells`, when given, must be a
  /// CellAttemptIndex built over this same `concurrent` span: the walk then
  /// visits only `rx`'s 3×3-neighborhood buckets (ascending attempt index,
  /// so the accumulation order — and every double — is unchanged).
  [[nodiscard]] double interference_mw(
      NodeId rx, PhysicalChannel channel, std::uint64_t slot,
      SimTime slot_start, std::span<const TransmissionAttempt> concurrent,
      NodeId wanted, const CellAttemptIndex* cells = nullptr) const;

  /// Interference power from active jammers alone at `rx` on `channel` (mW).
  [[nodiscard]] double jammer_mw(NodeId rx, PhysicalChannel channel,
                                 std::uint64_t slot, SimTime slot_start) const;

  /// Noise floor in mW (precomputed from config().noise_floor_dbm).
  [[nodiscard]] double noise_floor_mw() const { return noise_floor_mw_; }

  /// Builds the spatial grid and the static reachability index for
  /// transmissions at `tx_power_dbm`: pair (a, b) is a candidate iff it is
  /// grid-coupled and some channel's mean RSS is within the provable fading
  /// margin of the sensitivity. Pairs outside the index have
  /// reception_probability == 0 on every channel and slot, so reception
  /// resolution never needs to visit them (coupled sub-threshold pairs still
  /// contribute interference). Also builds the per-listener rows (see
  /// link_row()), computing each unordered pair's 16 channel means once for
  /// both of its rows. Safe to rebuild.
  void build_reachability(double tx_power_dbm);

  /// True if (tx -> rx) could ever be decoded at the reachability index's
  /// TX power. Conservatively true when the index was never built or the
  /// pair is out of range. One word load + shift on the packed bitset rows.
  [[nodiscard]] bool maybe_reachable(NodeId tx, NodeId rx) const {
    if (reachable_.empty()) return true;
    const std::size_t n = positions_.size();
    if (tx.value >= n || rx.value >= n) return true;
    return ((reachable_[tx.value * reach_words_ + (rx.value >> 6)] >>
             (rx.value & 63)) &
            1) != 0;
  }

  /// True when `a` and `b` can couple at all under the grid's
  /// 3×3-neighborhood cutoff (always true before build_reachability() or
  /// while the deployment spans fewer than three cells per axis).
  [[nodiscard]] bool coupled(NodeId a, NodeId b) const {
    const std::size_t n = positions_.size();
    if (a.value >= n || b.value >= n) return true;
    return grid_.coupled(a.value, b.value);
  }

  [[nodiscard]] const SpatialGrid& grid() const { return grid_; }

  /// Outcome of a decode check: the Bernoulli success probability and the
  /// instantaneous signal RSS it was computed from. Returning the RSS keeps
  /// callers (capture resolution, neighbor tables) from re-deriving it.
  struct ReceptionCheck {
    double probability{0.0};
    double rss_dbm{-1e9};
    /// True when the TX/RX clock misalignment exceeded the receiver's guard
    /// time, so the frame's preamble fell outside the listen window
    /// (probability is then 0 regardless of SINR).
    bool guard_missed{false};
  };

  /// Probability that `rx`, listening on `tx.channel`, decodes `tx`, plus
  /// the signal RSS used for the SINR. `rx_clock_offset_us` is the
  /// listener's accumulated clock offset and `guard_us` its guard window:
  /// when |tx.clock_offset_us - rx_clock_offset_us| > guard_us the decode
  /// fails (guard miss). The defaults (offset 0, infinite guard) make every
  /// legacy call guard-exempt and bit-identical to the pre-drift model.
  /// `cells` (an index over `concurrent`) prunes the interference walk, see
  /// interference_mw().
  [[nodiscard]] ReceptionCheck check_reception(
      const TransmissionAttempt& tx, NodeId rx, std::uint64_t slot,
      SimTime slot_start, std::span<const TransmissionAttempt> concurrent,
      double rx_clock_offset_us = 0.0,
      double guard_us = std::numeric_limits<double>::infinity(),
      const CellAttemptIndex* cells = nullptr) const;

  /// Probability that `rx`, listening on `tx.channel`, decodes `tx`.
  [[nodiscard]] double reception_probability(
      const TransmissionAttempt& tx, NodeId rx, std::uint64_t slot,
      SimTime slot_start, std::span<const TransmissionAttempt> concurrent,
      double rx_clock_offset_us = 0.0,
      double guard_us = std::numeric_limits<double>::infinity(),
      const CellAttemptIndex* cells = nullptr) const;

  /// Table-based PRR for a frame of `frame_bytes` at `sinr_db`.
  [[nodiscard]] double prr(int frame_bytes, double sinr_db) const {
    return table_for(frame_bytes).prr(sinr_db);
  }

  /// Listener `rx`'s row at the primed power: `cols` lists every node
  /// grid-coupled to `rx` (itself included) in ascending id order,
  /// `means[ch * len + i]` is the exact mean_rss_dbm(cols[i], rx, ch, power)
  /// double and `keys[i]` the pair's link key. Rows are symmetric: row a's
  /// entry for b holds the same key and means as row b's entry for a, so a
  /// sender's row serves every listener it names. `len == 0` when `power`
  /// differs from the primed power, `rx` is outside the layout or no
  /// reachability index was built.
  struct LinkRow {
    const std::uint16_t* cols{nullptr};
    const double* means{nullptr};
    const std::uint64_t* keys{nullptr};
    std::uint32_t len{0};

    /// Index of transmitter `tx` in `cols`, or `len` when the row lacks it.
    /// `cols` is strictly ascending, so cols[i] >= i and cols[tx] == tx
    /// holds only at tx's own entry: that probe answers every lookup in a
    /// row spanning all nodes. Otherwise a binary search runs.
    [[nodiscard]] std::uint32_t find(std::uint16_t tx) const {
      if (tx < len && cols[tx] == tx) return tx;
      const std::uint16_t* it = std::lower_bound(cols, cols + len, tx);
      return it != cols + len && *it == tx
                 ? static_cast<std::uint32_t>(it - cols)
                 : len;
    }
  };
  [[nodiscard]] LinkRow link_row(NodeId rx, double power) const {
    if (csr_offsets_.empty() || power != primed_power_dbm_ ||
        rx.value >= positions_.size()) {
      return {};
    }
    const std::size_t o = csr_offsets_[rx.value];
    const auto len =
        static_cast<std::uint32_t>(csr_offsets_[rx.value + 1] - o);
    return LinkRow{csr_cols_.data() + o, csr_means_.data() + o * kNumChannels,
                   csr_keys_.data() + o, len};
  }

  /// The TX power the reachability index and rows were built for.
  [[nodiscard]] double primed_power_dbm() const { return primed_power_dbm_; }

  [[nodiscard]] const MediumConfig& config() const { return config_; }
  [[nodiscard]] const Propagation& propagation() const { return propagation_; }

 private:
  [[nodiscard]] const PrrTable& table_for(int frame_bytes) const;
  /// Cell size for the spatial grid: the config override, or the pure
  /// path-loss distance at which the mean RSS reaches sensitivity minus the
  /// provable fading margin.
  [[nodiscard]] double grid_cell_size(double tx_power_dbm) const;
  void set_reachable(std::size_t a, std::size_t b) {
    reachable_[a * reach_words_ + (b >> 6)] |= std::uint64_t{1} << (b & 63);
  }
  /// Reachable-cell bitset for an emitter at `pos` with `tx_power_dbm`:
  /// every grid cell within R Chebyshev rings of the emitter's (clamped)
  /// cell, R = max(1, ceil(decode_radius / cell_size)) with the same ±6σ
  /// cutoff radius the grid itself is sized by. Cells beyond R rings are
  /// separated from the emitter by more than the radius, so — like
  /// uncoupled transmitters — their contribution is exactly 0 mW by model
  /// definition. R >= 1 guarantees any layout spanning <= 3×3 cells (every
  /// paper-scale testbed) is fully covered, keeping those runs
  /// bit-identical to the unmasked model. Empty result = no filtering
  /// (grid unbuilt or inactive).
  [[nodiscard]] std::vector<std::uint64_t> emitter_cell_mask(
      const Position& pos, double tx_power_dbm) const;
  void rebuild_jammer_masks();
  [[nodiscard]] static bool mask_covers(const std::vector<std::uint64_t>& mask,
                                        std::uint32_t cell) {
    return mask.empty() || ((mask[cell >> 6] >> (cell & 63)) & 1) != 0;
  }

  MediumConfig config_;
  std::vector<Position> positions_;
  Propagation propagation_;
  std::uint64_t seed_;
  std::vector<Jammer> jammers_;
  std::vector<ReactiveJammer> reactive_jammers_;
  // Per-jammer reachable-cell masks (parallel to the jammer vectors);
  // empty mask = global. Rebuilt by build_reachability() and at add time.
  std::vector<std::vector<std::uint64_t>> jammer_masks_;
  std::vector<std::vector<std::uint64_t>> reactive_jammer_masks_;
  /// Noise floor converted to mW once; used in every SINR evaluation.
  double noise_floor_mw_;
  // PRR lookup tables for every frame length in FrameSizes, built eagerly at
  // construction so the hot path is a lock-free flat scan and const Medium
  // methods are safe to call from concurrent trials. Frame lengths outside
  // the standard set (tool/test inputs) fall back to a mutex-guarded
  // overflow map; std::map nodes are stable, so returned references stay
  // valid.
  std::vector<PrrTable> prr_tables_;
  mutable std::mutex extra_prr_mutex_;
  mutable std::map<int, PrrTable> extra_prr_tables_;
  // Static candidate matrix packed into 64-bit bitset rows
  // [tx * reach_words_ + rx/64]; empty until build_reachability(). One bit
  // per pair: 8× smaller than the former byte matrix.
  std::vector<std::uint64_t> reachable_;
  std::size_t reach_words_{0};
  // Cell partition; rebuilt by build_reachability().
  SpatialGrid grid_;
  // Blackout matrix [tx * N + rx]; empty until the first set_link_blackout().
  // blackouts_active_ counts the set directed entries so the hot-path check
  // is one integer compare when no blackout is scripted.
  std::vector<std::uint8_t> blackouts_;
  int blackouts_active_{0};
  // Per-listener CSR rows over grid neighborhoods (see link_row()).
  // csr_means_ is channel-major per row (offset*kNumChannels + ch*len + i),
  // so a listener's co-channel means are contiguous.
  std::vector<std::size_t> csr_offsets_;   // [n + 1]
  std::vector<std::uint16_t> csr_cols_;    // ascending ids per row
  std::vector<std::uint64_t> csr_keys_;    // link keys per entry
  std::vector<double> csr_means_;          // per entry × channel
  double primed_power_dbm_{0.0};
};

}  // namespace digs
