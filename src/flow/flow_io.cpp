#include "flow/flow_io.h"

#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/record.h"

namespace wsan::flow {

void save_flow_set(const flow_set& set, std::ostream& os) {
  os << "flowset " << set.flows.size() << "\n";
  for (node_id ap : set.access_points) os << "accesspoint " << ap << "\n";
  for (const auto& f : set.flows) {
    os << "flow " << f.id << ' ' << f.source << ' ' << f.destination
       << ' ' << f.period << ' ' << f.deadline << ' '
       << (f.type == traffic_type::centralized ? "centralized"
                                               : "peer-to-peer")
       << ' ' << f.uplink_links << ' ' << f.route.size();
    for (const auto& l : f.route) os << ' ' << l.sender << ' ' << l.receiver;
    os << "\n";
  }
}

flow_set load_flow_set(std::istream& is) {
  flow_set set;
  bool have_header = false;
  std::size_t declared = 0;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    const std::string where = " at line " + std::to_string(line_no);
    if (kind == "flowset") {
      WSAN_REQUIRE(!have_header, "duplicate flowset header" + where);
      ls >> declared;
      require_record_end(ls, "malformed header" + where);
      have_header = true;
    } else if (kind == "accesspoint") {
      node_id ap = k_invalid_node;
      ls >> ap;
      require_record_end(ls, "malformed accesspoint record" + where);
      set.access_points.push_back(ap);
    } else if (kind == "flow") {
      WSAN_REQUIRE(have_header, "flow record before header" + where);
      flow f;
      std::string type;
      std::size_t nlinks = 0;
      ls >> f.id >> f.source >> f.destination >> f.period >> f.deadline >>
          type >> f.uplink_links >> nlinks;
      WSAN_REQUIRE(static_cast<bool>(ls), "malformed flow record" + where);
      WSAN_REQUIRE(type == "centralized" || type == "peer-to-peer",
                   "unknown traffic type '" + type + "'" + where);
      f.type = type == "centralized" ? traffic_type::centralized
                                     : traffic_type::peer_to_peer;
      for (std::size_t i = 0; i < nlinks; ++i) {
        link l;
        ls >> l.sender >> l.receiver;
        WSAN_REQUIRE(static_cast<bool>(ls),
                     "truncated route in flow record" + where);
        f.route.push_back(l);
      }
      require_record_end(ls, "trailing input after flow route" + where);
      validate_flow(f);
      set.flows.push_back(std::move(f));
    } else {
      WSAN_REQUIRE(false, "unknown record kind '" + kind + "'" + where);
    }
  }
  WSAN_REQUIRE(have_header, "stream contained no flowset header");
  WSAN_REQUIRE(set.flows.size() == declared,
               "flow count does not match the header");
  return set;
}

void save_flow_set_file(const flow_set& set, const std::string& path) {
  std::ofstream os(path);
  WSAN_REQUIRE(os.good(), "cannot open file for writing: " + path);
  save_flow_set(set, os);
}

flow_set load_flow_set_file(const std::string& path) {
  std::ifstream is(path);
  WSAN_REQUIRE(is.good(), "cannot open file for reading: " + path);
  return load_flow_set(is);
}

}  // namespace wsan::flow
