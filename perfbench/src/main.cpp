// perfbench: runs one BARS workload and prints its metrics as one JSON
// line (the last line of standard output).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --workdir <dir>\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(v);
      } else if (key == "--seconds") {
        a.seconds = std::stod(v);
      } else if (key == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (key == "--workdir") {
        a.workdir = v;
        have_workdir = true;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + key);
    }
  }
  if (!have_workload || !have_workdir) usage("--workload and --workdir are required");
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known = known || w == a.workload;
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Report rep;
  try {
    perfbench::run_workload(args, rep);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const auto& [name, m] : rep.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << name << " is not finite\n";
      return 1;
    }
  }
  const bool correct = rep.attempted > 0 && rep.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed));
  const char* sep = "";
  for (const auto& [name, m] : rep.metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep, name.c_str(),
                m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
