#include "tsch/render.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace wsan::tsch {

namespace {

std::string cell_text(const std::vector<transmission>& cell) {
  std::ostringstream os;
  for (std::size_t i = 0; i < cell.size(); ++i) {
    if (i > 0) os << '|';
    os << cell[i].sender << "->" << cell[i].receiver;
    if (cell[i].attempt > 0) os << '*';
  }
  return os.str();
}

}  // namespace

void render_schedule(const schedule& sched, std::ostream& os,
                     const render_options& options) {
  WSAN_REQUIRE(options.first_slot >= 0 &&
                   options.first_slot < sched.num_slots(),
               "first slot out of range");
  WSAN_REQUIRE(options.num_slots > 0, "must render at least one slot");
  const slot_t end = std::min<slot_t>(
      sched.num_slots(), options.first_slot + options.num_slots);

  // Collect the slots to draw and the per-column text.
  std::vector<slot_t> slots;
  for (slot_t s = options.first_slot; s < end; ++s) {
    if (options.skip_empty_slots && sched.slot_load(s) == 0) continue;
    slots.push_back(s);
  }
  if (slots.empty()) {
    os << "(no transmissions in the requested window)\n";
    return;
  }

  std::vector<std::vector<std::string>> grid(
      static_cast<std::size_t>(sched.num_offsets()));
  std::vector<std::size_t> width(slots.size());
  for (std::size_t col = 0; col < slots.size(); ++col) {
    width[col] = std::to_string(slots[col]).size();
    for (offset_t c = 0; c < sched.num_offsets(); ++c) {
      const auto text = cell_text(sched.cell(slots[col], c));
      grid[static_cast<std::size_t>(c)].push_back(text);
      width[col] = std::max(width[col], text.size());
    }
  }

  os << "slot   ";
  for (std::size_t col = 0; col < slots.size(); ++col)
    os << std::left << std::setw(static_cast<int>(width[col]) + 2)
       << slots[col];
  os << "\n";
  for (offset_t c = 0; c < sched.num_offsets(); ++c) {
    os << "off " << std::left << std::setw(3) << c;
    for (std::size_t col = 0; col < slots.size(); ++col)
      os << std::left << std::setw(static_cast<int>(width[col]) + 2)
         << grid[static_cast<std::size_t>(c)][col];
    os << "\n";
  }
}

std::string render_schedule(const schedule& sched,
                            const render_options& options) {
  std::ostringstream os;
  render_schedule(sched, os, options);
  return os.str();
}

}  // namespace wsan::tsch
