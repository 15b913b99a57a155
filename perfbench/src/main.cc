// perfbench: one end-to-end benchmark for the GuardNN serving fleet.
//
//   perfbench --workload <fleet_emulated|tenant_lifecycle>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints every metric as "metric <name> = <value> <unit>", the operations
// attempted and failed, and as the last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (see README.md for the layer -> metric -> workload map).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet_emulated|tenant_lifecycle> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0 && options.seconds <= 600))
        usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("bad --trace");
      options.trace = value[0] == '1';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.workload != "fleet_emulated" &&
      options.workload != "tenant_lifecycle")
    usage(("unknown workload " + options.workload).c_str());
  return options;
}

void print(const Options& options, Report& report) {
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.first)) report.violation(name + " is not finite");
    std::printf("metric %s = %.9g %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::printf("workload %s seed %llu trace %d: attempted %llu failed %llu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const char* separator = "";
  for (const auto& [name, metric] : report.metrics) {
    const double value = std::isfinite(metric.first) ? metric.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
                name.c_str(), value, metric.second.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Report report;
  try {
    if (options.workload == "tenant_lifecycle")
      perfbench::run_lifecycle(options, report);
    else
      perfbench::run_fleet(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print(options, report);
  return 0;
}
