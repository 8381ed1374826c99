// model.hpp — the learning-task interface.
//
// A Model binds a parameter vector w in R^d to a per-sample loss
// Q(w, x) and its exact gradient.  Workers compute the mini-batch
// gradient h(xi) = (1/b) sum_j grad Q(w, x_j) (Eq. 4 of the paper) and
// the mean loss on the same batch — the paper's per-step training-loss
// series — in one pass over the batch rows; the trainer evaluates
// test-set accuracy for the reported metrics.  All models here have
// closed-form gradients — no autodiff.
#pragma once

#include <cstddef>
#include <span>

#include "data/dataset.hpp"
#include "math/vector_ops.hpp"

namespace dpbyz {

/// Abstract learning task with exact per-sample gradients.
class Model {
 public:
  virtual ~Model() = default;

  /// Number of trainable parameters d.
  virtual size_t dim() const = 0;

  /// The worker pipeline's hot path: returns the mean loss over `batch`
  /// and writes the mini-batch gradient (1/|batch|) sum over batch of
  /// grad Q(w, x_i) into `out` (length dim()), from one forward pass per
  /// row and without heap allocation.  `out` is typically the worker's
  /// reused clean-gradient buffer.  Both outputs are bit-identical to
  /// batch_loss and batch_gradient_into on the same arguments.
  /// Implementations keep any per-call scratch on the stack or in
  /// thread_local buffers so concurrent calls from distinct threads are
  /// safe (the threaded trainer runs one worker pipeline per thread).
  virtual double batch_loss_and_gradient_into(const Vector& w, const Dataset& data,
                                              std::span<const size_t> batch,
                                              std::span<double> out) const = 0;

  /// The gradient half of batch_loss_and_gradient_into, with the same
  /// allocation and threading guarantees.
  virtual void batch_gradient_into(const Vector& w, const Dataset& data,
                                   std::span<const size_t> batch,
                                   std::span<double> out) const = 0;

  /// Mean loss over the given rows of `data`.
  virtual double batch_loss(const Vector& w, const Dataset& data,
                            std::span<const size_t> batch) const = 0;

  /// Classification accuracy over the entire dataset; NaN for tasks
  /// without a notion of accuracy (e.g. the quadratic estimation task).
  virtual double accuracy(const Vector& w, const Dataset& data) const;

  /// A fresh parameter vector to start training from.  Zeros by default
  /// (fine for convex tasks); models with internal symmetry (MLP) override
  /// with a deterministic random initialization.
  virtual Vector initial_parameters() const { return vec::zeros(dim()); }
};

}  // namespace dpbyz
