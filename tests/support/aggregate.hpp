// aggregate.hpp — test-side shorthand for running a GAR into an owning
// Vector.
//
// The library has one aggregation entry point, Aggregator::aggregate(batch,
// ws), whose result is a view into the workspace.  Tests mostly state
// their inputs as lists of vectors and compare outputs as vectors; these
// helpers pack, aggregate on a fresh workspace and copy the result out.
// They allocate on every call, which is fine off the hot path.
#pragma once

#include <span>

#include "aggregation/aggregator.hpp"

namespace dpbyz::support {

/// gar.aggregate(batch, ws) on a fresh workspace, copied into a Vector.
Vector aggregate(const Aggregator& gar, const GradientBatch& batch);

/// Same for a list of equal-dimension vectors (packed with
/// GradientBatch::from_vectors, which rejects ragged input).
Vector aggregate(const Aggregator& gar, std::span<const Vector> gradients);

}  // namespace dpbyz::support
