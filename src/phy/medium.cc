#include "phy/medium.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "phy/cell_index.h"

namespace digs {

Medium::Medium(const MediumConfig& config, std::vector<Position> positions,
               std::uint64_t seed)
    : config_(config),
      positions_(std::move(positions)),
      propagation_(config.propagation, seed),
      seed_(seed),
      noise_floor_mw_(std::pow(10.0, config.noise_floor_dbm / 10.0)) {
  prr_tables_.reserve(kPrebuiltPrrFrameBytes.size());
  for (const int bytes : kPrebuiltPrrFrameBytes) {
    prr_tables_.emplace_back(bytes);
  }
}

void Medium::add_jammer(const JammerConfig& jammer_config) {
  jammers_.emplace_back(jammer_config,
                        hash_mix(seed_, 0x1A33, jammers_.size()));
  jammer_masks_.push_back(
      emitter_cell_mask(jammers_.back().config().position,
                        jammers_.back().config().tx_power_dbm));
}

void Medium::add_reactive_jammer(const ReactiveJammerConfig& jammer_config) {
  reactive_jammers_.emplace_back(
      jammer_config, hash_mix(seed_, 0x5EAC, reactive_jammers_.size()));
  reactive_jammer_masks_.push_back(
      emitter_cell_mask(reactive_jammers_.back().config().position,
                        reactive_jammers_.back().config().tx_power_dbm));
}

void Medium::observe_slot_attempts(
    std::uint64_t slot, SimTime slot_start,
    std::span<const TransmissionAttempt> attempts) {
  const auto& prop = config_.propagation;
  for (ReactiveJammer& jammer : reactive_jammers_) {
    if (!jammer.begin_slot(slot, slot_start)) continue;
    if (attempts.empty()) continue;
    const Position& ear = jammer.config().position;
    const double floor_mw = jammer.sniff_floor_mw();
    for (const TransmissionAttempt& attempt : attempts) {
      if (attempt.sender.value >= positions_.size()) continue;
      const double mw = path_loss_power_mw(
          positions_[attempt.sender.value], ear, attempt.tx_power_dbm,
          prop.path_loss_ref_db, prop.path_loss_exponent,
          prop.floor_penetration_db, prop.floor_height_m);
      if (mw >= floor_mw) jammer.hear(slot, attempt.channel);
    }
  }
}

bool Medium::any_jammer_active(PhysicalChannel channel, std::uint64_t slot,
                               SimTime slot_start) const {
  for (const Jammer& jammer : jammers_) {
    if (jammer.active(channel, slot, slot_start)) return true;
  }
  for (const ReactiveJammer& jammer : reactive_jammers_) {
    if (jammer.active(channel, slot, slot_start)) return true;
  }
  return false;
}

void Medium::set_link_blackout(NodeId a, NodeId b, bool blacked_out) {
  const std::size_t n = positions_.size();
  if (a.value >= n || b.value >= n || a == b) return;
  if (blackouts_.empty()) {
    if (!blacked_out) return;
    blackouts_.assign(n * n, 0);
  }
  const std::uint8_t value = blacked_out ? 1 : 0;
  for (const std::size_t index :
       {a.value * n + b.value, b.value * n + a.value}) {
    if (blackouts_[index] == value) continue;
    blackouts_[index] = value;
    blackouts_active_ += blacked_out ? 1 : -1;
  }
}

double Medium::rss_dbm(NodeId tx, NodeId rx, PhysicalChannel channel,
                       std::uint64_t slot, double tx_power_dbm) const {
  // Fast path: at the primed TX power the mean and link key come from the
  // listener's row (the same doubles mean_rss_dbm() and link_key() return),
  // leaving only the temporal fading draw. Other powers and pairs outside
  // the row (beyond the grid neighborhood) take the full computation, so
  // rss_dbm() stays a pure model query for tools and tests — the coupling
  // cutoff is applied by the reception/interference callers, not here.
  const LinkRow row = link_row(rx, tx_power_dbm);
  const std::uint32_t i = row.find(tx.value);
  if (i < row.len && channel < kNumChannels) {
    return row.means[static_cast<std::size_t>(channel) * row.len + i] +
           propagation_.fading_from_key(row.keys[i], channel,
                                        propagation_.fading_block(slot));
  }
  return propagation_.rss_dbm(tx_power_dbm, tx, rx, positions_[tx.value],
                              positions_[rx.value], channel, slot);
}

double Medium::mean_rss_dbm(NodeId tx, NodeId rx, PhysicalChannel channel,
                            double tx_power_dbm) const {
  return propagation_.mean_rss_dbm(tx_power_dbm, tx, rx, positions_[tx.value],
                                   positions_[rx.value], channel);
}

double Medium::interference_mw(NodeId rx, PhysicalChannel channel,
                               std::uint64_t slot, SimTime slot_start,
                               std::span<const TransmissionAttempt> concurrent,
                               NodeId wanted,
                               const CellAttemptIndex* cells) const {
  // Reference O(T) evaluation with the accumulate-then-subtract structure:
  // the per-slot resolver computes the same total once per (listener,
  // channel) and derives every pair by the same subtraction, so the two
  // paths agree bit-for-bit (see reception_pipeline_test).
  double total_mw = 0.0;
  double wanted_mw = 0.0;
  if (cells != nullptr && cells->active() && rx.value < positions_.size()) {
    // Cell-indexed walk: the buckets hold exactly the grid-coupled attempts
    // (everything else contributes 0.0 here by the cutoff below), sorted
    // back into ascending attempt index so the accumulation order matches
    // the full scan term for term.
    static thread_local std::vector<std::uint32_t> local;
    local.clear();
    cells->gather(static_cast<std::uint16_t>(rx.value), channel, local);
    std::sort(local.begin(), local.end());
    for (const std::uint32_t t : local) {
      const TransmissionAttempt& other = concurrent[t];
      if (other.sender == rx) continue;
      if (other.channel != channel) continue;
      const double rss =
          rss_dbm(other.sender, rx, channel, slot, other.tx_power_dbm);
      const double mw = dbm_to_mw(rss);
      total_mw += mw;
      if (other.sender == wanted) wanted_mw = mw;
    }
  } else {
    for (const auto& other : concurrent) {
      if (other.sender == rx) continue;
      if (other.channel != channel) continue;
      // Transmitters beyond the grid's 3×3-neighborhood cutoff are
      // uncoupled: by model definition they contribute nothing here, exactly
      // as they decode with probability 0. Jammers get the same treatment
      // via per-jammer reachable-cell masks inside jammer_mw().
      if (!coupled(other.sender, rx)) continue;
      const double rss =
          rss_dbm(other.sender, rx, channel, slot, other.tx_power_dbm);
      const double mw = dbm_to_mw(rss);
      total_mw += mw;
      if (other.sender == wanted) wanted_mw = mw;
    }
  }
  double interf_mw = total_mw - wanted_mw;
  if (interf_mw < 0.0) interf_mw = 0.0;  // FP guard for the subtraction
  return interf_mw + jammer_mw(rx, channel, slot, slot_start);
}

double Medium::jammer_mw(NodeId rx, PhysicalChannel channel,
                         std::uint64_t slot, SimTime slot_start) const {
  double total_mw = 0.0;
  const auto& prop = config_.propagation;
  // Per-jammer reachable-cell masks: a listener outside a jammer's mask
  // receives exactly 0 mW from it by model definition (same cutoff family
  // as the transmitter grid coupling), so the per-listener check is one
  // bit test instead of the activity hash + path-loss evaluation. Masks
  // are empty (global) while the grid is unbuilt or inactive — every
  // paper-scale layout — so those runs are bit-identical to the unmasked
  // model.
  const bool masked = grid_.active() && rx.value < grid_.num_nodes();
  const std::uint32_t rx_cell = masked ? grid_.cell_of(rx.value) : 0;
  for (std::size_t i = 0; i < jammers_.size(); ++i) {
    if (masked && i < jammer_masks_.size() &&
        !mask_covers(jammer_masks_[i], rx_cell)) {
      continue;
    }
    const Jammer& jammer = jammers_[i];
    if (!jammer.active(channel, slot, slot_start)) continue;
    total_mw += jammer.received_power_mw(
        positions_[rx.value], prop.path_loss_ref_db, prop.path_loss_exponent,
        prop.floor_penetration_db, prop.floor_height_m);
  }
  for (std::size_t i = 0; i < reactive_jammers_.size(); ++i) {
    if (masked && i < reactive_jammer_masks_.size() &&
        !mask_covers(reactive_jammer_masks_[i], rx_cell)) {
      continue;
    }
    const ReactiveJammer& jammer = reactive_jammers_[i];
    if (!jammer.active(channel, slot, slot_start)) continue;
    total_mw += jammer.received_power_mw(
        positions_[rx.value], prop.path_loss_ref_db, prop.path_loss_exponent,
        prop.floor_penetration_db, prop.floor_height_m);
  }
  return total_mw;
}

std::vector<std::uint64_t> Medium::emitter_cell_mask(
    const Position& pos, double tx_power_dbm) const {
  if (!grid_.built() || !grid_.active()) return {};
  const auto& p = config_.propagation;
  // Same ±6σ cutoff radius the grid cells are sized by, at the emitter's
  // own power: beyond it the pure path-loss mean sits under sensitivity
  // minus the provable fading margin (floors only attenuate further).
  const double floor_dbm =
      config_.sensitivity_dbm - propagation_.max_fading_db();
  const double exponent = (tx_power_dbm - p.path_loss_ref_db - floor_dbm) /
                          (10.0 * p.path_loss_exponent);
  const double radius_m = p.reference_distance_m * std::pow(10.0, exponent);
  // Chebyshev ring count: a cell more than `reach` rings from the
  // emitter's cell is at least (reach * cell_size) >= radius_m away at
  // every point (the emitter's clamped cell coordinates only shrink the
  // per-axis separation for off-map positions, keeping the bound valid).
  // The floor of 1 ring covers any 3×3-cell span outright.
  const auto rings =
      static_cast<std::int64_t>(std::ceil(radius_m / grid_.cell_size_m()));
  const std::int64_t reach = std::max<std::int64_t>(1, rings);
  std::uint32_t jcx = 0;
  std::uint32_t jcy = 0;
  grid_.cell_coords_of(pos, jcx, jcy);
  std::vector<std::uint64_t> mask((grid_.num_cells() + 63) / 64, 0);
  for (std::uint32_t cy = 0; cy < grid_.rows(); ++cy) {
    if (std::abs(static_cast<std::int64_t>(cy) -
                 static_cast<std::int64_t>(jcy)) > reach) {
      continue;
    }
    for (std::uint32_t cx = 0; cx < grid_.cols(); ++cx) {
      if (std::abs(static_cast<std::int64_t>(cx) -
                   static_cast<std::int64_t>(jcx)) > reach) {
        continue;
      }
      const std::size_t cell =
          static_cast<std::size_t>(cy) * grid_.cols() + cx;
      mask[cell >> 6] |= std::uint64_t{1} << (cell & 63);
    }
  }
  return mask;
}

void Medium::rebuild_jammer_masks() {
  jammer_masks_.clear();
  jammer_masks_.reserve(jammers_.size());
  for (const Jammer& jammer : jammers_) {
    jammer_masks_.push_back(emitter_cell_mask(jammer.config().position,
                                              jammer.config().tx_power_dbm));
  }
  reactive_jammer_masks_.clear();
  reactive_jammer_masks_.reserve(reactive_jammers_.size());
  for (const ReactiveJammer& jammer : reactive_jammers_) {
    reactive_jammer_masks_.push_back(emitter_cell_mask(
        jammer.config().position, jammer.config().tx_power_dbm));
  }
}

double Medium::grid_cell_size(double tx_power_dbm) const {
  if (config_.grid_cell_size_m > 0.0) return config_.grid_cell_size_m;
  const auto& p = config_.propagation;
  // Distance at which the pure path-loss mean reaches the candidate floor
  // (sensitivity minus the ±6σ fading margin). Any pair in non-adjacent
  // cells is separated by more than one cell edge, hence beyond this
  // radius. Floors only attenuate further; static shadowing/channel
  // offsets are the model's residual the 3×3 cutoff absorbs — every
  // paper-scale layout stays within 2×2 cells where the cutoff admits all
  // pairs, so their results are unchanged.
  const double floor_dbm =
      config_.sensitivity_dbm - propagation_.max_fading_db();
  const double exponent =
      (tx_power_dbm - p.path_loss_ref_db - floor_dbm) /
      (10.0 * p.path_loss_exponent);
  const double radius_m = p.reference_distance_m * std::pow(10.0, exponent);
  return std::max(10.0, radius_m);
}

void Medium::build_reachability(double tx_power_dbm) {
  const std::size_t n = positions_.size();
  primed_power_dbm_ = tx_power_dbm;
  grid_ = SpatialGrid(positions_, grid_cell_size(tx_power_dbm));
  rebuild_jammer_masks();
  reach_words_ = (n + 63) / 64;
  reachable_.assign(n * reach_words_, 0);
  // A pair is prunable only if EVERY channel's mean RSS sits more than the
  // provable fading excursion below the sensitivity; channels differ by the
  // static frequency-selective offsets, so each must be checked.
  const double floor_dbm =
      config_.sensitivity_dbm - propagation_.max_fading_db();
  // Row rx lists rx's 3×3 neighborhood, itself included, in ascending id
  // order; an inactive grid's neighborhood is every node.
  csr_offsets_.assign(n + 1, 0);
  csr_cols_.clear();
  std::vector<std::uint16_t> hood;
  for (std::size_t rx = 0; rx < n; ++rx) {
    grid_.neighborhood(static_cast<std::uint16_t>(rx), hood);
    csr_cols_.insert(csr_cols_.end(), hood.begin(), hood.end());
    csr_offsets_[rx + 1] = csr_cols_.size();
  }
  csr_keys_.resize(csr_cols_.size());
  csr_means_.resize(csr_cols_.size() * kNumChannels);
  // One pass over the unordered pairs: neighborhoods are symmetric, so the
  // pair (a, b ≥ a) sits in row a and row b, and its means (static
  // components are symmetric) and key are computed once for both. Rows are
  // visited in ascending a, so row b receives its entries below b in
  // ascending order and next[b] is always the slot of the current a.
  std::vector<std::size_t> next(csr_offsets_.begin(), csr_offsets_.end() - 1);
  double means[kNumChannels];
  const auto store = [&](std::size_t row, std::size_t entry,
                         std::uint64_t key) {
    const std::size_t o = csr_offsets_[row];
    const std::size_t len = csr_offsets_[row + 1] - o;
    csr_keys_[entry] = key;
    double* out = csr_means_.data() + o * kNumChannels + (entry - o);
    for (int ch = 0; ch < kNumChannels; ++ch) out[ch * len] = means[ch];
  };
  for (std::size_t a = 0; a < n; ++a) {
    const NodeId a_id{static_cast<std::uint16_t>(a)};
    for (std::size_t entry = next[a]; entry < csr_offsets_[a + 1]; ++entry) {
      const NodeId b_id{csr_cols_[entry]};
      propagation_.mean_rss_channels(tx_power_dbm, a_id, b_id, positions_[a],
                                     positions_[b_id.value], means);
      const std::uint64_t key = propagation_.link_key(a_id, b_id);
      store(a, entry, key);
      if (b_id != a_id) store(b_id.value, next[b_id.value]++, key);
      if (std::any_of(std::begin(means), std::end(means),
                      [&](double m) { return m >= floor_dbm; })) {
        set_reachable(a, b_id.value);
        set_reachable(b_id.value, a);
      }
    }
  }
}

const PrrTable& Medium::table_for(int frame_bytes) const {
  // prr_tables_ is built in kPrebuiltPrrFrameBytes order, so the scan runs
  // over the small constexpr array instead of striding through the tables.
  for (std::size_t i = 0; i < kPrebuiltPrrFrameBytes.size(); ++i) {
    if (kPrebuiltPrrFrameBytes[i] == frame_bytes) return prr_tables_[i];
  }
  const std::lock_guard<std::mutex> lock(extra_prr_mutex_);
  auto it = extra_prr_tables_.find(frame_bytes);
  if (it == extra_prr_tables_.end()) {
    it = extra_prr_tables_.emplace(frame_bytes, PrrTable{frame_bytes}).first;
  }
  return it->second;
}

Medium::ReceptionCheck Medium::check_reception(
    const TransmissionAttempt& tx, NodeId rx, std::uint64_t slot,
    SimTime slot_start, std::span<const TransmissionAttempt> concurrent,
    double rx_clock_offset_us, double guard_us,
    const CellAttemptIndex* cells) const {
  if (tx.sender == rx) return {};
  // Beyond the grid coupling cutoff nothing arrives at all — no preamble,
  // no guard-miss accounting, no interference from this frame here. The
  // per-slot walk applies the identical cutoff (a sender's row names only
  // its coupled nodes), so both paths return the same empty outcome.
  if (!coupled(tx.sender, rx)) return {};
  const double signal_dbm =
      rss_dbm(tx.sender, rx, tx.channel, slot, tx.tx_power_dbm);
  // Guard-time miss: the frame arrived outside the receiver's listen
  // window, so no preamble is detected no matter how strong the signal.
  // The frame still radiates interference at every other listener.
  if (std::fabs(tx.clock_offset_us - rx_clock_offset_us) > guard_us) {
    return {0.0, signal_dbm, true};
  }
  if (signal_dbm < config_.sensitivity_dbm) return {0.0, signal_dbm};
  if (link_blacked_out(tx.sender, rx)) return {0.0, signal_dbm};

  const double interf_mw = interference_mw(rx, tx.channel, slot, slot_start,
                                           concurrent, tx.sender, cells);
  const double signal_mw = dbm_to_mw(signal_dbm);
  const double sinr_db =
      10.0 * std::log10(signal_mw / (noise_floor_mw_ + interf_mw));
  return {table_for(tx.frame_bytes).prr(sinr_db), signal_dbm};
}

double Medium::reception_probability(
    const TransmissionAttempt& tx, NodeId rx, std::uint64_t slot,
    SimTime slot_start, std::span<const TransmissionAttempt> concurrent,
    double rx_clock_offset_us, double guard_us,
    const CellAttemptIndex* cells) const {
  return check_reception(tx, rx, slot, slot_start, concurrent,
                         rx_clock_offset_us, guard_us, cells)
      .probability;
}

}  // namespace digs
