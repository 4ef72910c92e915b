// Seeded, fixed-work generators: the read catalogue, per-client request
// streams, and the open-loop write schedule. Everything here derives from
// the --seed argument and the generated world's ID ranges (which derive
// from the same seed), so one seed always produces the same work.
#ifndef TSB_PERFBENCH_WORKLOADS_H_
#define TSB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mutation/mutation.h"
#include "storage/catalog.h"

namespace perfbench {

/// kWriteMixed runs its readers beside an open-loop writer; kWritePhased
/// runs the same readers and batches in turns (a round of reads, then a
/// batch), so no read is in flight across ApplyMutations.
enum class Workload { kReadZipf, kReadCold, kWriteMixed, kWritePhased };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

/// Closed-loop clients; the write workloads run one fewer reader beside
/// their writer.
inline constexpr size_t kClients = 4;

/// Fixed work per measured second of --seconds. Chosen so one run takes
/// about --seconds on a 4-core machine; the count, not the clock, ends a
/// run.
inline constexpr size_t kZipfRequestsPerSecond = 15000;
inline constexpr size_t kColdRequestsPerSecond = 3500;
/// write-phased: timed reads, split evenly over the rounds between batches.
inline constexpr size_t kPhasedRequestsPerSecond = 5500;
/// Warm-up requests per client, sent before the clock starts.
inline constexpr size_t kZipfWarmupPerClient = 2000;
inline constexpr size_t kColdWarmupPerClient = 100;
/// Distinct lines in the read-zipf catalogue and the Zipf exponent.
inline constexpr size_t kCatalogueSize = 20000;
inline constexpr double kZipfExponent = 1.0;
/// Write schedule: one batch per interval (write-mixed follows the due
/// times; write-phased only takes the batch count from them); 3 of every 4
/// are structural.
inline constexpr double kWriteIntervalSeconds = 2.0;

/// ID range of each entity set the generators draw predicates over.
struct IdRanges {
  struct Range {
    int64_t lo = 0;
    int64_t hi = 0;
  };
  Range protein, interaction, dna, unigene;
  const Range& Of(const std::string& entity_set) const;
};
IdRanges ReadIdRanges(const tsb::storage::Catalog& db);

/// One client's fixed request list: `warmup` untimed lines, then the timed
/// lines, as text request lines for RequestParser.
struct ClientStream {
  std::vector<std::string> warmup;
  std::vector<std::string> timed;
};

/// The read-zipf catalogue: kCatalogueSize distinct request lines over
/// 8 methods x 3 schemes x k in {1,10,100} x ID-range and keyword
/// predicates x 3 pairs, in Zipf rank order (rank 0 is the hottest).
std::vector<std::string> MakeCatalogue(uint64_t seed, const IdRanges& ids);

/// Zipf-drawn streams over the catalogue for `clients` clients.
std::vector<ClientStream> MakeZipfStreams(
    uint64_t seed, const std::vector<std::string>& catalogue, size_t clients,
    size_t warmup_per_client, size_t timed_total);

/// read-cold streams: every line in every stream is distinct (each draws a
/// fresh Protein ID range), so no request can hit the result cache.
std::vector<ClientStream> MakeColdStreams(uint64_t seed, const IdRanges& ids,
                                          size_t clients,
                                          size_t warmup_per_client,
                                          size_t timed_total);

/// One scheduled write. Batch 0 is the writer's warm-up and is due when
/// the writer starts; batch i >= 1 is due i intervals after the warm-up
/// batch was acknowledged, which starts the timed window.
struct ScheduledBatch {
  double due_seconds = 0.0;
  bool structural = false;
  tsb::mutation::MutationBatch batch;
};

/// The write schedule: `batches` batches, one per
/// kWriteIntervalSeconds; batch i is an attribute update when i % 4 == 3
/// and an AddNode Interaction + AddEdge Interacts_p pair otherwise.
std::vector<ScheduledBatch> MakeWriteSchedule(uint64_t seed,
                                              const IdRanges& ids,
                                              size_t batches);

/// FNV-1a 64 digests (hex) of a line list and of a write schedule.
std::string DigestLines(const std::vector<std::string>& lines);
std::string DigestSchedule(const std::vector<ScheduledBatch>& schedule);

}  // namespace perfbench

#endif  // TSB_PERFBENCH_WORKLOADS_H_
