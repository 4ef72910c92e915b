// One benchmark run: set up the deployment, drive a workload through it
// with tracing off (and, with --trace 1, a second time with the
// benchmark's spans on), check every answer, and print the metrics.
#ifndef TSB_PERFBENCH_PASSES_H_
#define TSB_PERFBENCH_PASSES_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

/// Directory, relative to the working directory, for sockets and WALs.
inline constexpr const char* kRunDir = ".bench_run";

struct RunOptions {
  Workload workload = Workload::kReadZipf;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberate faults, so the benchmark's own tests can show that its
  /// checks fail: "wrong-answer" corrupts one expected answer,
  /// "drop-wal" truncates the last WAL record before the WAL check.
  std::string inject;
  /// Print the seed's stream digests and exit without running.
  bool digest_only = false;
};

/// Runs one workload; prints human-readable lines and, last, the JSON
/// result line. Returns the process exit code (0 only when every check
/// passed).
int RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // TSB_PERFBENCH_PASSES_H_
