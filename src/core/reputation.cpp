#include "core/reputation.hpp"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>

#include "utils/errors.hpp"

namespace dpbyz {

ReputationBook::ReputationBook(const ExperimentConfig& config, size_t pool_size)
    : enabled_(config.reputation == "distance"),
      scores_(pool_size, 0.5) {
  dist_scratch_.reserve(pool_size);
  median_scratch_.reserve(pool_size);
}

void ReputationBook::update(uint32_t worker, double dist_sq, double threshold) {
  const double verdict = dist_sq <= threshold ? 1.0 : 0.0;
  scores_[worker] = (1.0 - kReputationBeta) * scores_[worker] + kReputationBeta * verdict;
}

void ReputationBook::observe_round(const GradientBatch& batch, size_t live_honest,
                                   std::span<const uint32_t> live_ids,
                                   const GradientBatch& shadow,
                                   std::span<const uint32_t> shadow_ids,
                                   const Vector& aggregate) {
  if (!enabled_ || live_honest == 0) return;
  require(live_ids.size() == live_honest,
          "ReputationBook: live id/row count mismatch");
  const std::span<const double> center(aggregate);

  // Distances of the live (admitted, delivered) rows; their median sets
  // the round's inlier bar.  nth_element reorders median_scratch_, so
  // the per-worker values stay intact in dist_scratch_.
  dist_scratch_.assign(live_honest, 0.0);
  for (size_t k = 0; k < live_honest; ++k)
    dist_scratch_[k] = vec::dist_sq(batch.row(k), center);
  median_scratch_ = dist_scratch_;
  const size_t mid = live_honest / 2;  // upper median for even counts
  std::nth_element(median_scratch_.begin(), median_scratch_.begin() + mid,
                   median_scratch_.end());
  const double threshold = kReputationOutlier * kReputationOutlier * median_scratch_[mid];

  for (size_t k = 0; k < live_honest; ++k)
    update(live_ids[k], dist_scratch_[k], threshold);

  // Quarantined auditionees are judged against the *admitted* roster's
  // spread — the bar above — never against each other.
  require(shadow_ids.size() == shadow.rows(),
          "ReputationBook: shadow id/row count mismatch");
  for (size_t q = 0; q < shadow.rows(); ++q)
    update(shadow_ids[q], vec::dist_sq(shadow.row(q), center), threshold);
}

void ReputationBook::save(std::ostream& os) const {
  os << "rep " << (enabled_ ? 1 : 0) << ' ' << scores_.size();
  for (double s : scores_) os << ' ' << std::bit_cast<uint64_t>(s);
  os << '\n';
}

void ReputationBook::load(std::istream& is) {
  std::string tag;
  int enabled = 0;
  size_t n = 0;
  is >> tag >> enabled >> n;
  // n < scores_.size() happens when the checkpoint was written under a
  // shorter horizon (smaller joiner pool); the tail slots were unborn
  // then and keep the uncommitted 0.5.
  require(is.good() && tag == "rep" && n <= scores_.size(),
          "ReputationBook: checkpoint state does not match this configuration");
  require((enabled != 0) == enabled_,
          "ReputationBook: checkpoint reputation mode mismatch");
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits = 0;
    is >> bits;
    scores_[i] = std::bit_cast<double>(bits);
  }
  for (size_t i = n; i < scores_.size(); ++i) scores_[i] = 0.5;
  require(!is.fail(), "ReputationBook: truncated checkpoint state");
}

}  // namespace dpbyz
