#include "core/constraints.h"

namespace wsan::core {

bool conflict_free(const tsch::transmission& tx,
                   const std::vector<tsch::transmission>& slot_txs) {
  for (const auto& other : slot_txs)
    if (tx.conflicts_with(other)) return false;
  return true;
}

}  // namespace wsan::core
