#include "core/constraints.h"

namespace wsan::core {

bool conflict_free(const tsch::transmission& tx, const tsch::schedule& sched,
                   slot_t s) {
  for (offset_t c = 0; c < sched.num_offsets(); ++c)
    if (!conflict_free(tx, sched.cell(s, c))) return false;
  return true;
}

}  // namespace wsan::core
