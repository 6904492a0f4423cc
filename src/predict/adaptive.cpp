#include "predict/adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bgl {

namespace {

/// Hour-of-day bucket for a simulation timestamp (day = 86400 s; timestamps
/// may legitimately start before 0 after trace retiming, hence the wrap).
std::size_t tod_bucket(double t) {
  const double day = std::fmod(t, 86400.0);
  const double wrapped = day < 0.0 ? day + 86400.0 : day;
  std::size_t bucket = static_cast<std::size_t>(wrapped / 3600.0);
  return bucket < 24 ? bucket : 23;
}

}  // namespace

AdaptivePredictor::AdaptivePredictor(int num_nodes, const AdaptiveConfig& config)
    : config_(config),
      num_nodes_(num_nodes),
      num_midplanes_((num_nodes + config.midplane_nodes - 1) /
                     std::max(config.midplane_nodes, 1)),
      flagged_(num_nodes),
      flag_until_(static_cast<std::size_t>(num_nodes), 0.0),
      last_fail_(static_cast<std::size_t>(num_nodes), -1.0) {
  BGL_CHECK(num_nodes > 0, "adaptive predictor needs a positive node count");
  BGL_CHECK(config.confidence >= 0.0 && config.confidence <= 1.0,
            "confidence must lie in [0, 1]");
  BGL_CHECK(config.node_flag_window > 0.0, "node_flag_window must be positive");
  BGL_CHECK(config.midplane_nodes > 0, "midplane_nodes must be positive");
  BGL_CHECK(config.midplane_threshold > 0, "midplane_threshold must be positive");
  BGL_CHECK(config.burst_threshold > 0, "burst_threshold must be positive");
  BGL_CHECK(config.repeat_boost >= 1.0 && config.burst_boost >= 1.0 &&
                config.tod_max_boost >= 1.0,
            "boost factors must be >= 1");
  burst_times_.assign(static_cast<std::size_t>(config.burst_threshold), 0.0);
  mp_times_.assign(static_cast<std::size_t>(num_midplanes_) *
                       static_cast<std::size_t>(config.midplane_threshold),
                   0.0);
  mp_pos_.assign(static_cast<std::size_t>(num_midplanes_), 0);
  mp_count_.assign(static_cast<std::size_t>(num_midplanes_), 0);
}

void AdaptivePredictor::flag(int node, double until) {
  double& cur = flag_until_[static_cast<std::size_t>(node)];
  if (until <= cur) return;  // already flagged at least that long
  cur = until;
  flagged_.set(node);
  expiry_heap_.emplace_back(until, node);
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(),
                 std::greater<std::pair<double, int>>{});
}

double AdaptivePredictor::window_multiplier(int node, double t) const {
  double mult = 1.0;
  // Repeat offender: the *previous* failure of this node was recent.
  const double prev = last_fail_[static_cast<std::size_t>(node)];
  if (prev >= 0.0 && t - prev <= config_.repeat_window) {
    mult *= config_.repeat_boost;
  }
  // Burst: the last burst_threshold failures (including this one, already in
  // the ring) span less than burst_window.
  if (burst_count_ >= static_cast<std::uint64_t>(config_.burst_threshold)) {
    // burst_pos_ points at the slot just overwritten + 1 == the oldest entry.
    const double oldest = burst_times_[burst_pos_];
    if (t - oldest <= config_.burst_window) mult *= config_.burst_boost;
  }
  // Time-of-day: relative intensity of this hour's learned rate.
  if (tod_total_ >= config_.tod_min_samples) {
    const double rel = static_cast<double>(tod_counts_[tod_bucket(t)]) * 24.0 /
                       static_cast<double>(tod_total_);
    mult *= std::clamp(rel, 1.0 / config_.tod_max_boost, config_.tod_max_boost);
  }
  return mult;
}

void AdaptivePredictor::observe_failure(int node, double t) {
  if (node < 0 || node >= num_nodes_) return;
  ++failures_seen_;

  // Update the learned features *before* scoring so this failure's own
  // evidence (burst membership, time-of-day) shapes its flag window.
  ++tod_counts_[tod_bucket(t)];
  ++tod_total_;
  burst_times_[burst_pos_] = t;
  burst_pos_ = (burst_pos_ + 1) % burst_times_.size();
  ++burst_count_;

  const double mult = window_multiplier(node, t);
  if (burst_count_ >= static_cast<std::uint64_t>(config_.burst_threshold) &&
      t - burst_times_[burst_pos_] <= config_.burst_window) {
    ++bursts_detected_;
  }
  flag(node, t + config_.node_flag_window * mult);
  last_fail_[static_cast<std::size_t>(node)] = t;

  // Spatially correlated failures: enough hits inside one midplane flag the
  // whole group.
  const int mp = node / config_.midplane_nodes;
  const std::size_t base = static_cast<std::size_t>(mp) *
                           static_cast<std::size_t>(config_.midplane_threshold);
  std::uint32_t& pos = mp_pos_[static_cast<std::size_t>(mp)];
  mp_times_[base + pos] = t;
  pos = (pos + 1) % static_cast<std::uint32_t>(config_.midplane_threshold);
  std::uint64_t& count = mp_count_[static_cast<std::size_t>(mp)];
  ++count;
  if (count >= static_cast<std::uint64_t>(config_.midplane_threshold)) {
    const double oldest = mp_times_[base + pos];  // next overwrite = oldest
    if (t - oldest <= config_.midplane_window) {
      ++midplane_flags_;
      const int lo = mp * config_.midplane_nodes;
      const int hi = std::min(lo + config_.midplane_nodes, num_nodes_);
      const double until = t + config_.midplane_flag_window;
      for (int n = lo; n < hi; ++n) flag(n, until);
    }
  }
}

void AdaptivePredictor::observe_repair(int node, double t) {
  // A repair ends the down-time, not the hazard: freshly repaired nodes are
  // exactly the repeat offenders the flag is watching (Sahoo), so flags
  // persist across repairs. Counted for introspection only.
  (void)node, (void)t;
  ++repairs_seen_;
}

void AdaptivePredictor::advance(double t) {
  while (!expiry_heap_.empty() && expiry_heap_.front().first <= t) {
    const int node = expiry_heap_.front().second;
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(),
                  std::greater<std::pair<double, int>>{});
    expiry_heap_.pop_back();
    // Lazy deletion: an extension pushed a newer entry; only clear the bit
    // when the authoritative expiry really has passed.
    if (flag_until_[static_cast<std::size_t>(node)] <= t) flagged_.reset(node);
  }
}

NodeSet AdaptivePredictor::flagged_nodes(double, double, std::uint64_t) const {
  return flagged_;
}

void AdaptivePredictor::flagged_nodes_into(NodeSet& out, double, double,
                                           std::uint64_t) const {
  out = flagged_;  // word-copy; reuses out's allocation when already sized
}

}  // namespace bgl
