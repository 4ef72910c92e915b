// perfbench: the repository benchmark. Stands up the sharded UDS
// deployment, drives one workload through it, checks every answer, and
// prints the metrics; the last line of standard output is one JSON object.
//
//   perfbench --workload <read-zipf|read-cold|write-mixed|write-phased>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--inject wrong-answer|drop-wal] [--digest-only]
//
// Usually started through perfbench/run.py, which builds it first.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "passes.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<read-zipf|read-cold|write-mixed|write-phased> --seed <n> "
               "--seconds <s> --trace <0|1> [--inject wrong-answer|drop-wal] "
               "[--digest-only]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--digest-only") {
      options.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      if (!perfbench::ParseWorkload(value, &options.workload)) {
        return Usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--inject") {
      if (value != "wrong-answer" && value != "drop-wal") {
        return Usage(("unknown fault " + value).c_str());
      }
      options.inject = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");
  ::mkdir(perfbench::kRunDir, 0755);
  return perfbench::RunBenchmark(options);
}
