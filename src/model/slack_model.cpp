#include "model/slack_model.hpp"

#include <algorithm>
#include <string>

#include "core/error.hpp"

namespace rsd::model {

PenaltyBounds SlackModel::equation3(const std::vector<double>& values,
                                    bool use_kernel_characteristic, int parallelism,
                                    SimDuration slack, BinnedAttribution* attribution) const {
  const auto& points = surface_.points();
  if (points.empty()) throw Error{ErrorCode::kInvalidState, "empty response surface"};

  auto characteristic = [&](const ProxyPoint& p) {
    return use_kernel_characteristic ? p.kernel_us : p.transfer_mib;
  };

  // Per-size penalties at this (parallelism, slack).
  std::vector<double> sp(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    sp[i] = surface_.penalty(points[i].matrix_n, parallelism, slack);
    if (clamp_negative_ && sp[i] < 0.0) sp[i] = 0.0;
  }

  std::vector<std::size_t> up_counts(points.size(), 0);
  std::vector<std::size_t> down_counts(points.size(), 0);

  for (const double v : values) {
    // Index of the smallest proxy point whose characteristic >= v
    // ("round up" — the optimistic / lower-penalty attribution) and of the
    // largest point whose characteristic <= v ("round down" — pessimistic).
    std::size_t up = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (characteristic(points[i]) >= v) {
        up = i;
        break;
      }
    }
    std::size_t down = 0;
    for (std::size_t i = points.size(); i-- > 0;) {
      if (characteristic(points[i]) <= v) {
        down = i;
        break;
      }
    }
    ++up_counts[up];
    ++down_counts[down];
  }

  PenaltyBounds bounds;
  const auto total = static_cast<double>(values.size());
  if (total > 0) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      bounds.lower += sp[i] * static_cast<double>(up_counts[i]) / total;
      bounds.upper += sp[i] * static_cast<double>(down_counts[i]) / total;
    }
  }

  if (attribution != nullptr) {
    attribution->matrix_sizes = surface_.matrix_sizes();
    attribution->round_up_counts = std::move(up_counts);
    attribution->round_down_counts = std::move(down_counts);
    attribution->total = values.size();
  }
  return bounds;
}

SlackPrediction SlackModel::predict(const trace::Trace& app_trace, int parallelism,
                                    SimDuration slack) const {
  // The surface snaps any thread count to its nearest sweep point, so a
  // garbage parallelism would otherwise yield a confident band.
  if (parallelism < 1) {
    throw Error{ErrorCode::kInvalidArgument,
                "SlackModel::predict: parallelism must be >= 1, got " + std::to_string(parallelism)};
  }
  if (slack < SimDuration::zero()) {
    throw Error{ErrorCode::kInvalidArgument,
                "SlackModel::predict: negative slack " + format_duration(slack)};
  }
  SlackPrediction prediction;
  prediction.slack = slack;
  prediction.parallelism = parallelism;
  prediction.fractions = trace::runtime_fractions(app_trace);

  std::vector<double> kernel_us;
  std::vector<double> transfer_mib;
  for (const auto& op : app_trace.ops()) {
    if (op.kind == gpu::OpKind::kKernel) {
      kernel_us.push_back(op.duration().us());
    } else {
      transfer_mib.push_back(to_mib(op.bytes));
    }
  }

  prediction.kernel = equation3(kernel_us, /*use_kernel_characteristic=*/true, parallelism,
                                slack, &prediction.kernel_bins);
  prediction.memory = equation3(transfer_mib, /*use_kernel_characteristic=*/false, parallelism,
                                slack, &prediction.memory_bins);

  // Equation 2.
  prediction.total.lower = prediction.fractions.kernel * prediction.kernel.lower +
                           prediction.fractions.memory * prediction.memory.lower;
  prediction.total.upper = prediction.fractions.kernel * prediction.kernel.upper +
                           prediction.fractions.memory * prediction.memory.upper;
  return prediction;
}

}  // namespace rsd::model
