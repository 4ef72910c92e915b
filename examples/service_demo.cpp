// Service demo: the Figure-3 micro-database served as a shared,
// concurrent query service (src/service/) driven by text requests.
//
// Shows the full serving loop: build once, serve the store as a 1-shard
// executor, start TopologyService over it, answer Example 2.1 through the
// text frontend, repeat it to hit the result cache, fan out a batch, and
// print the serving metrics.
//
// Build & run:  ./build/examples/service_demo

#include <cstdio>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "service/service.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"

int main() {
  using namespace tsb;

  // 1. Build the database and the precomputed topology artifacts, exactly
  //    as in examples/quickstart.cpp.
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);
  auto store = std::make_shared<core::TopologyStore>();
  core::TopologyBuilder builder(&db, &schema, &view);
  core::BuildConfig build;
  build.max_path_length = 3;
  TSB_CHECK(
      builder.BuildPair(ids.protein, ids.dna, build, store.get()).ok());
  core::PruneConfig prune;
  prune.frequency_threshold = 0;
  TSB_CHECK(core::PruneFrequentTopologies(&db, store.get(), ids.protein,
                                          ids.dna, prune)
                .ok());

  // 2. Serve the store as a 1-shard executor (every query routes to the
  //    one shard engine, inline), then start the service over it: a
  //    worker pool, a sharded result cache, and the text frontend.
  shard::ScatterGatherExecutor executor(
      &db,
      std::make_shared<shard::ShardedTopologyStore>(
          std::vector<std::shared_ptr<core::TopologyStore>>{store}),
      &schema, &view, biozon::MakeBiozonDomainKnowledge(ids));
  executor.PrepareIndexes("Protein", "DNA");
  service::ServiceConfig config;
  config.num_threads = 4;
  service::TopologyService svc(&executor, &db, config);
  std::printf("service up: %zu worker threads, %zuMB cache\n\n",
              svc.num_threads(), config.cache.max_bytes >> 20);

  // 3. Example 2.1 as a text request.
  const char* line =
      "TOPK k=10 method=fast-topk-et scheme=domain "
      "set1=Protein pred1=DESC.ct('enzyme') set2=DNA pred2=TYPE='mRNA'";
  std::printf("> %s\n", line);
  service::ServiceResponse cold = svc.SubmitLine(line).get();
  TSB_CHECK(cold.result.ok()) << cold.result.status();
  for (const auto& entry : cold.result->entries) {
    std::printf("  T%lld  score=%.1f  %s\n",
                static_cast<long long>(entry.tid), entry.score,
                store->catalog().Describe(entry.tid, schema).c_str());
  }
  std::printf("  [cold: %.3f ms, from_cache=%d]\n\n",
              cold.service_seconds * 1e3, cold.from_cache);

  // 4. The same request again: served from the cache, identical entries.
  service::ServiceResponse warm = svc.SubmitLine(line).get();
  TSB_CHECK(warm.result.ok());
  TSB_CHECK(warm.from_cache);
  TSB_CHECK(warm.result->entries == cold.result->entries);
  std::printf("repeat:  [warm: %.3f ms, from_cache=%d, identical entries]\n\n",
              warm.service_seconds * 1e3, warm.from_cache);

  // 5. A batch across methods, with ExecStats totals.
  std::vector<service::ParsedRequest> batch;
  for (const char* batch_line :
       {"TOP method=full-top set1=Protein set2=DNA",
        "TOP method=fast-top set1=Protein pred1=DESC.ct('enzyme') set2=DNA",
        "TOPK k=2 method=fast-topk scheme=freq set1=Protein set2=DNA "
        "pred2=TYPE='mRNA'"}) {
    auto parsed = svc.parser().Parse(batch_line);
    TSB_CHECK(parsed.ok()) << parsed.status();
    batch.push_back(*parsed);
  }
  service::BatchOutcome outcome = svc.ExecuteBatch(batch);
  std::printf("batch: %zu requests, %zu cache hits, %zu failures; "
              "totals: %.3f ms engine time, %llu rows scanned, %llu probes\n\n",
              outcome.responses.size(), outcome.cache_hits, outcome.failures,
              outcome.total.seconds * 1e3,
              static_cast<unsigned long long>(outcome.total.rows_scanned),
              static_cast<unsigned long long>(outcome.total.probes));

  // 6. Invalidation: after any store rebuild the cache must be dropped.
  svc.InvalidateCache();
  std::printf("cache invalidated (entries now %zu)\n\n",
              svc.CacheStats().entries);

  // 7. Serving metrics.
  std::printf("%s", svc.Metrics().ToString().c_str());
  svc.Shutdown();
  return 0;
}
