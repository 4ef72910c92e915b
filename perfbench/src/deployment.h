// The benchmark's deployment: a generated Biozon world, three built and
// pruned pairs sharded N=4 (R=1), one in-process UDS shard server per
// shard reached through a ReplicaSetTransport, and the sharded
// TopologyService on top. Also the single-store reference engine every
// answer is checked against, and the from-scratch rebuild oracle for
// mutated stores.
#ifndef TSB_PERFBENCH_DEPLOYMENT_H_
#define TSB_PERFBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "biozon/schema.h"
#include "core/builder.h"
#include "core/store.h"
#include "engine/engine.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "mutation/mutation.h"
#include "mutation/mutation_engine.h"
#include "net/shard_server.h"
#include "replica/replica_set.h"
#include "service/service.h"
#include "shard/frame_handler.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "storage/catalog.h"

namespace perfbench {

inline constexpr size_t kShards = 4;
inline constexpr size_t kServiceWorkers = 4;

/// The three precomputed pairs, in build order.
const std::vector<std::pair<std::string, std::string>>& Pairs();

/// World generation and build parameters (the WorldConfig defaults of the
/// repository's paper benches: l=3, prune fraction 0.005, build caps).
struct WorldParams {
  uint64_t seed = 1;
  double scale = 0.25;
  size_t max_path_length = 3;
  double prune_fraction = 0.005;
  size_t max_class_representatives = 8;
  size_t max_union_combinations = 512;
  size_t max_paths_per_source = 200000;
};

tsb::core::BuildConfig MakeBuildConfig(const WorldParams& params);

/// Setup-layer timings of one deployment.
struct SetupTimes {
  double generate_s = 0.0;  // GenerateBiozon + graph views.
  double build_s = 0.0;     // Sharded BuildPair: stage, split, commit.
  double prune_s = 0.0;     // PruneFrequentTopologies on every shard.
  double index_s = 0.0;     // ScatterGatherExecutor::PrepareIndexes.
  double total_s = 0.0;     // Generation until the first answered request.
  uint64_t alltops_rows = 0;  // AllTops rows summed over shards.
};

/// One running deployment. Member order is destruction order in reverse:
/// the catalog outlives every store and engine that drops tables from it.
class Deployment {
 public:
  /// Generates, builds and starts everything; `run_dir` holds the UDS
  /// sockets. Aborts the process on any setup failure.
  Deployment(const WorldParams& params, const std::string& run_dir,
             size_t instance);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  tsb::storage::Catalog& db() { return db_; }
  tsb::service::TopologyService& service() { return *service_; }
  tsb::shard::ScatterGatherExecutor& executor() { return *executor_; }
  tsb::replica::ReplicaSetTransport& transport() { return *transport_; }
  const SetupTimes& times() const { return times_; }
  const WorldParams& params() const { return params_; }

  /// The topology catalog of shard 0 (identical on every shard).
  std::shared_ptr<tsb::core::TopologyStore> PrimarySnapshot() const {
    return sharded_->Primary();
  }

 private:
  WorldParams params_;
  tsb::storage::Catalog db_;
  tsb::biozon::BiozonSchema ids_;
  std::unique_ptr<tsb::graph::DataGraphView> view_;
  std::unique_ptr<tsb::graph::SchemaGraph> schema_;
  std::shared_ptr<tsb::shard::ShardedTopologyStore> sharded_;
  std::unique_ptr<tsb::shard::ScatterGatherExecutor> executor_;
  std::vector<std::unique_ptr<tsb::shard::ShardFrameHandler>> handlers_;
  std::vector<std::unique_ptr<tsb::net::ShardServer>> servers_;
  std::vector<std::string> socket_paths_;
  std::unique_ptr<tsb::replica::ReplicaSetTransport> transport_;
  std::unique_ptr<tsb::service::TopologyService> service_;
  SetupTimes times_;
};

/// A single-store world behind a StoreHandle: the reference engine the
/// benchmark checks answers against. Built from the same seed as the
/// deployment, in its own catalog, so it can follow the write schedule
/// with its own MutationEngine without sharing table namespaces.
class ReferenceWorld {
 public:
  explicit ReferenceWorld(const WorldParams& params);

  ReferenceWorld(const ReferenceWorld&) = delete;
  ReferenceWorld& operator=(const ReferenceWorld&) = delete;

  const tsb::engine::Engine& engine() const { return *engine_; }
  tsb::storage::Catalog& db() { return db_; }

  /// Applies one batch to the reference store (single writer).
  void Apply(const tsb::mutation::MutationBatch& batch);

 private:
  WorldParams params_;
  // Declared before everything that drops tables from it.
  tsb::storage::Catalog db_;
  tsb::biozon::BiozonSchema ids_;
  std::unique_ptr<tsb::graph::DataGraphView> view_;
  std::unique_ptr<tsb::graph::SchemaGraph> schema_;
  std::shared_ptr<tsb::core::StoreHandle> handle_;
  std::unique_ptr<tsb::engine::Engine> engine_;
  std::unique_ptr<tsb::mutation::MutationEngine> mutator_;
};

/// The mutation identity oracle (as in mutation_test): the generated world
/// with `history` applied to an in-memory row model, materialized into a
/// fresh catalog and rebuilt from scratch, its topology catalog seeded from
/// `live_store`'s so TIDs line up and each pair pruned at the threshold the
/// live store recorded.
class OracleWorld {
 public:
  OracleWorld(const WorldParams& params,
              const std::vector<tsb::mutation::MutationBatch>& history,
              const tsb::core::TopologyStore& live_store);

  OracleWorld(const OracleWorld&) = delete;
  OracleWorld& operator=(const OracleWorld&) = delete;

  const tsb::engine::Engine& engine() const { return *engine_; }
  tsb::storage::Catalog& db() { return db_; }

 private:
  // Declared before everything that drops tables from it.
  tsb::storage::Catalog db_;
  tsb::biozon::BiozonSchema ids_;
  std::unique_ptr<tsb::graph::DataGraphView> view_;
  std::unique_ptr<tsb::graph::SchemaGraph> schema_;
  std::shared_ptr<tsb::core::StoreHandle> handle_;
  std::unique_ptr<tsb::engine::Engine> engine_;
};

}  // namespace perfbench

#endif  // TSB_PERFBENCH_DEPLOYMENT_H_
