#include "fed/aggregator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace flstore::fed {

Tensor fedavg(const std::vector<ClientUpdate>& updates) {
  return fedavg_excluding(updates, {});
}

Tensor fedavg_excluding(const std::vector<ClientUpdate>& updates,
                        const std::vector<ClientId>& excluded) {
  std::vector<const ClientUpdate*> view;
  view.reserve(updates.size());
  for (const auto& u : updates) view.push_back(&u);
  return fedavg_excluding(view, excluded);
}

Tensor fedavg_excluding(std::span<const ClientUpdate* const> updates,
                        const std::vector<ClientId>& excluded) {
  FLSTORE_CHECK(!updates.empty());
  std::vector<const Tensor*> deltas;
  std::vector<double> weights;
  deltas.reserve(updates.size());
  weights.reserve(updates.size());
  const RoundId round = updates.front()->round;
  for (const auto* u : updates) {
    FLSTORE_CHECK(u->round == round);
    if (std::find(excluded.begin(), excluded.end(), u->client) !=
        excluded.end()) {
      continue;
    }
    deltas.push_back(&u->delta);
    weights.push_back(static_cast<double>(std::max(u->num_samples, 1)));
  }
  FLSTORE_CHECK(!deltas.empty());
  return ops::weighted_mean_borrowed(deltas, weights);
}

}  // namespace flstore::fed
