#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "storage/value.h"

namespace perfbench {

using namespace tsb;

namespace {

// Independent generator streams per purpose, all derived from --seed.
enum Stream : uint64_t {
  kCatalogueStream = 1,
  kZipfStream = 2,
  kColdStream = 3,
  kWriteStream = 4,
};

Rng StreamRng(uint64_t seed, uint64_t stream, uint64_t sub = 0) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + stream * 0x100000001B3ULL + sub);
}

const char* const kMethods[] = {
    "full-top",     "fast-top",     "full-topk",     "fast-topk",
    "full-topk-et", "fast-topk-et", "full-topk-opt", "fast-topk-opt"};
const char* const kSchemes[] = {"freq", "rare", "domain"};
const int kKs[] = {1, 10, 100};
const char* const kPartners[] = {"Interaction", "DNA", "Unigene"};
const char* const kKeywords[] = {"kinase", "binding", "cellular"};
// Width of a drawn ID range as a share of the entity set's ID span.
const double kRangeWidths[] = {0.02, 0.1, 0.3};

template <typename T, size_t N>
const T& Pick(Rng* rng, const T (&items)[N]) {
  return items[rng->NextBounded(N)];
}

std::string RangeClause(Rng* rng, const IdRanges::Range& range) {
  const int64_t span = range.hi - range.lo + 1;
  const int64_t width = std::max<int64_t>(
      1, static_cast<int64_t>(Pick(rng, kRangeWidths) *
                              static_cast<double>(span)));
  const int64_t lo = rng->NextInt(range.lo, range.hi - width + 1);
  return "ID.between(" + std::to_string(lo) + "," +
         std::to_string(lo + width - 1) + ")";
}

/// One request line: method, scheme, k, partner and the two predicates.
/// `pred1` is supplied by the caller (keyword or ID range on Protein).
std::string MakeLine(Rng* rng, const IdRanges& ids, const std::string& pred1) {
  const std::string method = Pick(rng, kMethods);
  const std::string scheme = Pick(rng, kSchemes);
  const int k = Pick(rng, kKs);
  const std::string partner = Pick(rng, kPartners);
  std::string pred2;
  const double shape = rng->NextDouble();
  if (shape < 0.3) {
    pred2 = std::string("DESC.ct('") + Pick(rng, kKeywords) + "')";
  } else if (shape < 0.6) {
    pred2 = RangeClause(rng, ids.Of(partner));
  }
  const bool topk = method.find("topk") != std::string::npos;
  std::string line = topk ? "TOPK k=" + std::to_string(k) + " " : "TOP ";
  line += "method=" + method + " scheme=" + scheme +
          " set1=Protein pred1=" + pred1 + " set2=" + partner;
  if (!pred2.empty()) line += " pred2=" + pred2;
  return line;
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string Hex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

IdRanges::Range RangeOf(const storage::Catalog& db,
                        const std::string& entity_set) {
  const storage::EntitySetDef* def = db.FindEntitySet(entity_set);
  TSB_CHECK(def != nullptr) << entity_set;
  const storage::Table* table = db.GetTable(def->table_name);
  TSB_CHECK(table != nullptr && table->num_rows() > 0) << entity_set;
  const size_t col = *table->schema().FindColumn(def->id_column);
  IdRanges::Range range{table->GetInt64(0, col), table->GetInt64(0, col)};
  for (size_t r = 1; r < table->num_rows(); ++r) {
    range.lo = std::min(range.lo, table->GetInt64(r, col));
    range.hi = std::max(range.hi, table->GetInt64(r, col));
  }
  return range;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kReadZipf:
      return "read-zipf";
    case Workload::kReadCold:
      return "read-cold";
    case Workload::kWriteMixed:
      return "write-mixed";
    case Workload::kWritePhased:
      return "write-phased";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kReadZipf, Workload::kReadCold,
                     Workload::kWriteMixed, Workload::kWritePhased}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const IdRanges::Range& IdRanges::Of(const std::string& entity_set) const {
  if (entity_set == "Protein") return protein;
  if (entity_set == "Interaction") return interaction;
  if (entity_set == "DNA") return dna;
  TSB_CHECK(entity_set == "Unigene") << entity_set;
  return unigene;
}

IdRanges ReadIdRanges(const storage::Catalog& db) {
  IdRanges ids;
  ids.protein = RangeOf(db, "Protein");
  ids.interaction = RangeOf(db, "Interaction");
  ids.dna = RangeOf(db, "DNA");
  ids.unigene = RangeOf(db, "Unigene");
  return ids;
}

std::vector<std::string> MakeCatalogue(uint64_t seed, const IdRanges& ids) {
  Rng rng = StreamRng(seed, kCatalogueStream);
  std::vector<std::string> lines;
  std::unordered_set<std::string> seen;
  lines.reserve(kCatalogueSize);
  while (lines.size() < kCatalogueSize) {
    const std::string pred1 =
        rng.NextBool(0.5)
            ? std::string("DESC.ct('") + Pick(&rng, kKeywords) + "')"
            : RangeClause(&rng, ids.protein);
    std::string line = MakeLine(&rng, ids, pred1);
    if (seen.insert(line).second) lines.push_back(std::move(line));
  }
  // Zipf ranks go to a seeded permutation, so the hot set is not biased
  // toward the lines drawn first.
  rng.Shuffle(&lines);
  return lines;
}

std::vector<ClientStream> MakeZipfStreams(
    uint64_t seed, const std::vector<std::string>& catalogue, size_t clients,
    size_t warmup_per_client, size_t timed_total) {
  const ZipfSampler zipf(catalogue.size(), kZipfExponent);
  std::vector<ClientStream> streams(clients);
  const size_t timed_per_client = (timed_total + clients - 1) / clients;
  for (size_t c = 0; c < clients; ++c) {
    Rng rng = StreamRng(seed, kZipfStream, c);
    for (size_t i = 0; i < warmup_per_client; ++i) {
      streams[c].warmup.push_back(catalogue[zipf.Sample(&rng)]);
    }
    for (size_t i = 0; i < timed_per_client; ++i) {
      streams[c].timed.push_back(catalogue[zipf.Sample(&rng)]);
    }
  }
  return streams;
}

std::vector<ClientStream> MakeColdStreams(uint64_t seed, const IdRanges& ids,
                                          size_t clients,
                                          size_t warmup_per_client,
                                          size_t timed_total) {
  Rng rng = StreamRng(seed, kColdStream);
  std::unordered_set<std::string> seen;
  auto fresh = [&]() {
    while (true) {
      std::string line = MakeLine(&rng, ids, RangeClause(&rng, ids.protein));
      if (seen.insert(line).second) return line;
    }
  };
  std::vector<ClientStream> streams(clients);
  const size_t timed_per_client = (timed_total + clients - 1) / clients;
  for (size_t c = 0; c < clients; ++c) {
    for (size_t i = 0; i < warmup_per_client; ++i) {
      streams[c].warmup.push_back(fresh());
    }
  }
  for (size_t i = 0; i < timed_per_client; ++i) {
    for (size_t c = 0; c < clients; ++c) streams[c].timed.push_back(fresh());
  }
  return streams;
}

std::vector<ScheduledBatch> MakeWriteSchedule(uint64_t seed,
                                              const IdRanges& ids,
                                              size_t batches) {
  Rng rng = StreamRng(seed, kWriteStream);
  // New node and edge IDs sit far above every generated ID.
  int64_t next_id = 50'000'000;
  std::vector<ScheduledBatch> schedule(batches);
  for (size_t i = 0; i < batches; ++i) {
    ScheduledBatch& b = schedule[i];
    b.due_seconds = kWriteIntervalSeconds * static_cast<double>(i);
    b.structural = i % 4 != 3;
    const int64_t protein = rng.NextInt(ids.protein.lo, ids.protein.hi);
    if (b.structural) {
      const int64_t node = next_id++;
      const int64_t edge = next_id++;
      b.batch.ops = {
          mutation::AddNode("Interaction", node,
                            {{"DESC", storage::Value("synthetic interaction " +
                                                     std::to_string(i))}}),
          mutation::AddEdge("Interacts_p", edge, protein, node),
      };
    } else {
      b.batch.ops = {mutation::UpdateAttribute(
          "Protein", protein, "DESC",
          storage::Value(std::string("revised ") + Pick(&rng, kKeywords) +
                         " variant " + std::to_string(i)))};
    }
  }
  return schedule;
}

std::string DigestLines(const std::vector<std::string>& lines) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    h = Fnv1a(h, line.data(), line.size());
    h = Fnv1a(h, "\n", 1);
  }
  return Hex(h);
}

std::string DigestSchedule(const std::vector<ScheduledBatch>& schedule) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const ScheduledBatch& b : schedule) {
    std::string encoded;
    mutation::EncodeMutationBatch(b.batch, &encoded);
    h = Fnv1a(h, &b.due_seconds, sizeof(b.due_seconds));
    h = Fnv1a(h, encoded.data(), encoded.size());
  }
  return Hex(h);
}

}  // namespace perfbench
