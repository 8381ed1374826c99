#include "aggregate.hpp"

namespace dpbyz::support {

Vector aggregate(const Aggregator& gar, const GradientBatch& batch) {
  AggregatorWorkspace ws;
  const auto view = gar.aggregate(batch, ws);
  return Vector(view.begin(), view.end());
}

Vector aggregate(const Aggregator& gar, std::span<const Vector> gradients) {
  return aggregate(gar, GradientBatch::from_vectors(gradients));
}

}  // namespace dpbyz::support
