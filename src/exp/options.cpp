#include "exp/options.h"

#include "common/error.h"

namespace wsan::exp {

replay_target parse_replay_target(const std::string& spec) {
  const auto colon = spec.find(':');
  WSAN_REQUIRE(colon != std::string::npos,
               "--replay expects POINT:TRIAL, got: " + spec);
  const std::string what = "--replay expects POINT:TRIAL";
  const auto point = parse_int(spec.substr(0, colon), what);
  const auto trial = parse_int(spec.substr(colon + 1), what);
  WSAN_REQUIRE(point >= 0 && trial >= 0,
               "--replay indices must be non-negative: " + spec);
  return {point, trial};
}

run_options parse_run_options(const cli_args& args) {
  run_options options;
  options.jobs = args.get_int("jobs", 1);
  WSAN_REQUIRE(options.jobs >= 0, "--jobs must be >= 0 (0 = all cores)");
  options.trials = args.get_int("trials", -1);
  WSAN_REQUIRE(!args.has("trials") || options.trials >= 1,
               "--trials must be >= 1");
  options.seed_overridden = args.has("seed");
  options.seed = args.get_uint64("seed", 0);
  options.json_path = args.get("json", "");
  options.metrics_path = args.get("metrics", "");
  options.trace_path = args.get("trace", "");
  options.series_path = args.get("series", "");
  if (args.has("replay"))
    options.replay = parse_replay_target(args.get("replay", ""));
  return options;
}

std::string run_options::series_file_for(const std::string& figure) const {
  if (series_path.empty()) return {};
  const auto dot = series_path.rfind('.');
  const auto slash = series_path.find_last_of("/\\");
  const bool has_ext =
      dot != std::string::npos &&
      (slash == std::string::npos || dot > slash);
  if (!has_ext) return series_path + "." + figure;
  return series_path.substr(0, dot) + "." + figure +
         series_path.substr(dot);
}

}  // namespace wsan::exp
