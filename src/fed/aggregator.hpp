// FedAvg aggregation (McMahan et al., 2017): sample-count-weighted mean of
// client updates. The aggregated model per round is the P1 policy's object.
#pragma once

#include <span>
#include <vector>

#include "fed/metadata.hpp"

namespace flstore::fed {

/// Weighted FedAvg over the round's updates. All updates must share round
/// and dimension; weights are num_samples (must be positive in total).
[[nodiscard]] Tensor fedavg(const std::vector<ClientUpdate>& updates);

/// FedAvg excluding a set of client ids (used by incentive workloads to
/// compute leave-one-out contributions). Throws if everyone is excluded.
[[nodiscard]] Tensor fedavg_excluding(const std::vector<ClientUpdate>& updates,
                                      const std::vector<ClientId>& excluded);

/// The same over borrowed updates, for callers holding a filtered view. No
/// delta is copied: ops::weighted_mean_borrowed reads each included delta in
/// place, in update order, so the result is bit-identical to the overload
/// above.
[[nodiscard]] Tensor fedavg_excluding(
    std::span<const ClientUpdate* const> updates,
    const std::vector<ClientId>& excluded);

}  // namespace flstore::fed
