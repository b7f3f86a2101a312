#include "tsch/schedule_io.h"

#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/record.h"

namespace wsan::tsch {

void save_schedule(const schedule& sched, std::ostream& os) {
  os << "schedule " << sched.num_slots() << ' ' << sched.num_offsets()
     << "\n";
  for (const auto& p : sched.placements()) {
    os << "tx " << p.tx.flow << ' ' << p.tx.instance << ' '
       << p.tx.link_index << ' ' << p.tx.attempt << ' ' << p.tx.sender
       << ' ' << p.tx.receiver << ' ' << p.slot << ' ' << p.offset
       << "\n";
  }
}

schedule load_schedule(std::istream& is) {
  schedule sched;
  bool have_header = false;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    const std::string where = " at line " + std::to_string(line_no);
    if (kind == "schedule") {
      WSAN_REQUIRE(!have_header, "duplicate schedule header" + where);
      slot_t num_slots = 0;
      int num_offsets = 0;
      ls >> num_slots >> num_offsets;
      require_record_end(ls, "malformed header" + where);
      sched = schedule(num_slots, num_offsets);
      have_header = true;
    } else if (kind == "tx") {
      WSAN_REQUIRE(have_header, "tx record before header" + where);
      transmission tx;
      slot_t slot = k_invalid_slot;
      offset_t offset = k_invalid_offset;
      ls >> tx.flow >> tx.instance >> tx.link_index >> tx.attempt >>
          tx.sender >> tx.receiver >> slot >> offset;
      require_record_end(ls, "malformed tx record" + where);
      sched.add(tx, slot, offset);
    } else {
      WSAN_REQUIRE(false, "unknown record kind '" + kind + "'" + where);
    }
  }
  WSAN_REQUIRE(have_header, "stream contained no schedule header");
  return sched;
}

void save_schedule_file(const schedule& sched, const std::string& path) {
  std::ofstream os(path);
  WSAN_REQUIRE(os.good(), "cannot open file for writing: " + path);
  save_schedule(sched, os);
}

schedule load_schedule_file(const std::string& path) {
  std::ifstream is(path);
  WSAN_REQUIRE(is.good(), "cannot open file for reading: " + path);
  return load_schedule(is);
}

}  // namespace wsan::tsch
