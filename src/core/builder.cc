#include "core/builder.h"

#include <algorithm>
#include <deque>
#include <future>
#include <map>
#include <utility>

#include "columnar/blocks.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "graph/canonical.h"
#include "graph/path_enum.h"

namespace tsb {
namespace core {
namespace {

using graph::EntityId;
using graph::PathInstance;

}  // namespace

Status ValidateBuildConfig(const BuildConfig& config) {
  if (config.max_path_length == 0) {
    return Status::InvalidArgument(
        "BuildConfig.max_path_length must be >= 1 (no path fits length 0)");
  }
  if (config.max_class_representatives == 0) {
    return Status::InvalidArgument(
        "BuildConfig.max_class_representatives must be >= 1 (Definition 2 "
        "needs one representative per class)");
  }
  if (config.max_union_combinations == 0) {
    return Status::InvalidArgument(
        "BuildConfig.max_union_combinations must be >= 1 (no union would "
        "ever be explored)");
  }
  if (config.max_paths_per_source == 0) {
    return Status::InvalidArgument(
        "BuildConfig.max_paths_per_source must be >= 1 (every sweep would "
        "be empty)");
  }
  return Status::OK();
}

Result<PairBuildStaging> TopologyBuilder::StagePair(
    storage::EntityTypeId ta, storage::EntityTypeId tb,
    const BuildConfig& config) const {
  TSB_RETURN_IF_ERROR(ValidateBuildConfig(config));
  auto [t1, t2] = TopologyStore::NormalizePair(ta, tb);

  PairBuildStaging staging;
  PairTopologyData& data = staging.data;
  data.t1 = t1;
  data.t2 = t2;
  data.pair_name =
      schema_->entity_name(t1) + "_" + schema_->entity_name(t2);
  data.max_path_length = config.max_path_length;
  data.build_max_class_representatives = config.max_class_representatives;
  data.build_max_union_combinations = config.max_union_combinations;
  data.table_namespace = config.table_namespace;
  data.alltops_table = config.table_namespace + "AllTops_" + data.pair_name;
  data.pairclasses_table =
      config.table_namespace + "PairClasses_" + data.pair_name;

  // Registers (or fetches) a class id from an instance's schema path.
  auto class_id_for = [&](const PathInstance& p) -> uint32_t {
    graph::SchemaPath sp = p.ToSchemaPath(*view_);
    std::string key = schema_->PathClassKey(sp);
    auto it = data.class_by_key.find(key);
    if (it != data.class_by_key.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(data.classes.size());
    ClassInfo info;
    info.id = id;
    info.key = key;
    // Store the canonical-direction representative (the smaller label
    // sequence, matching ExtractSchemaPath and PathClassKey).
    graph::SchemaPath rev = sp.Reversed();
    auto seq = [](const graph::SchemaPath& q) {
      std::vector<uint32_t> s;
      for (size_t i = 0; i < q.steps.size(); ++i) {
        s.push_back(q.node_types[i]);
        s.push_back(q.steps[i].rel);
      }
      s.push_back(q.node_types.back());
      return s;
    };
    info.path = seq(rev) < seq(sp) ? rev : sp;
    data.classes.push_back(std::move(info));
    data.class_by_key.emplace(std::move(key), id);
    staging.class_path_local_tid.push_back(kNoTid);
    return id;
  };

  // Stages one observation of a topology, merging class keys on local
  // re-observation exactly like the catalog's intern merge path.
  auto stage_topology = [&](ComputedTopology& topo, size_t s) -> size_t {
    auto it = staging.local_by_code.find(topo.code);
    if (it != staging.local_by_code.end()) {
      PairBuildStaging::StagedTopology& existing =
          staging.topologies[it->second];
      for (std::string& key : topo.class_keys) {
        if (std::find(existing.class_keys.begin(), existing.class_keys.end(),
                      key) == existing.class_keys.end()) {
          existing.class_keys.push_back(std::move(key));
        }
      }
      return it->second;
    }
    size_t local = staging.topologies.size();
    PairBuildStaging::StagedTopology staged;
    staged.graph = std::move(topo.graph);
    staged.code = topo.code;
    staged.num_classes = s;
    staged.class_keys = std::move(topo.class_keys);
    staging.topologies.push_back(std::move(staged));
    staging.local_by_code.emplace(std::move(topo.code), local);
    return local;
  };

  const bool self_pair = (t1 == t2);

  SweepLimits sweep_limits;
  sweep_limits.max_path_length = config.max_path_length;
  sweep_limits.max_class_representatives = config.max_class_representatives;
  sweep_limits.max_paths_per_source = config.max_paths_per_source;

  for (EntityId a : view_->EntitiesOfType(t1)) {
    // Enumerate all simple paths from `a` of length <= l ending at type t2,
    // grouped by destination and path class. Paths may pass through
    // t2-typed nodes and keep extending; every prefix landing on a t2 node
    // is recorded.
    SourceSweep sweep =
        SweepFromSource(*view_, *schema_, a, t2, self_pair, sweep_limits);
    if (sweep.source_truncated) ++data.truncated_pairs;
    if (sweep.reps_truncated) ++data.truncated_representatives;

    // Fold each destination into topologies and AllTops rows.
    for (auto& [b, reps_by_key] : sweep.by_dest) {
      std::vector<std::vector<PathInstance>> class_reps;
      std::vector<std::string> class_keys;
      std::vector<uint32_t> class_ids;
      class_reps.reserve(reps_by_key.size());
      for (auto& [key, reps] : reps_by_key) {
        class_ids.push_back(class_id_for(reps.front()));
        class_keys.push_back(key);
        class_reps.push_back(std::move(reps));
      }
      const size_t s = class_reps.size();

      UnionLimits limits;
      limits.max_class_representatives = config.max_class_representatives;
      limits.max_union_combinations = config.max_union_combinations;
      bool union_truncated = false;
      std::vector<ComputedTopology> topologies = UnionTopologies(
          *view_, class_reps, class_keys, limits, &union_truncated);
      if (union_truncated) ++data.truncated_pairs;

      for (ComputedTopology& topo : topologies) {
        size_t local = stage_topology(topo, s);
        staging.alltops_rows.push_back(
            {a, b, static_cast<int64_t>(local)});
        ++staging.topologies[local].frequency;
        // Single-class pairs define the path topology of their class.
        if (s == 1 &&
            staging.class_path_local_tid[class_ids[0]] == kNoTid) {
          staging.class_path_local_tid[class_ids[0]] =
              static_cast<Tid>(local);
        }
      }
      // Exception bookkeeping: remember the class memberships of pairs
      // related by more than one class (Section 4.2.2).
      if (s > 1) {
        for (uint32_t cid : class_ids) {
          staging.pairclasses_rows.push_back(
              {a, b, static_cast<int64_t>(cid)});
          ++data.classes[cid].instance_pairs;
        }
      } else {
        ++data.classes[class_ids[0]].instance_pairs;
      }
      ++data.num_related_pairs;
    }
  }

  // Classes observed only inside multi-class pairs keep path_tid == kNoTid:
  // their path topology is never an observed topology (no pair is related
  // by it alone), so it must not appear in TopInfo — and it can never be
  // pruned, so no lookup needs the TID.

  return staging;
}

Status TopologyBuilder::CommitStaged(PairBuildStaging staging,
                                     TopologyStore* store) {
  PairTopologyData& data = staging.data;
  if (store->FindPair(data.t1, data.t2) != nullptr) {
    return Status::AlreadyExists("pair already built");
  }

  storage::TableSchema alltops_schema({{"E1", storage::ColumnType::kInt64},
                                       {"E2", storage::ColumnType::kInt64},
                                       {"TID", storage::ColumnType::kInt64}});
  storage::TableSchema classes_schema({{"E1", storage::ColumnType::kInt64},
                                       {"E2", storage::ColumnType::kInt64},
                                       {"CID", storage::ColumnType::kInt64}});
  storage::Table* alltops;
  storage::Table* pairclasses;
  {
    auto t = db_->CreateTable(data.alltops_table, std::move(alltops_schema));
    TSB_RETURN_IF_ERROR(t.status());
    alltops = t.value();
  }
  {
    auto t =
        db_->CreateTable(data.pairclasses_table, std::move(classes_schema));
    if (!t.ok()) {
      (void)db_->DropTable(data.alltops_table);
      return t.status();
    }
    pairclasses = t.value();
  }

  // Intern staged topologies in first-encounter order — the exact order a
  // sequential build would have hit the catalog — and remap local TIDs.
  TopologyCatalog* catalog = store->mutable_catalog();
  std::vector<Tid> global_tid(staging.topologies.size(), kNoTid);
  for (size_t local = 0; local < staging.topologies.size(); ++local) {
    PairBuildStaging::StagedTopology& staged = staging.topologies[local];
    global_tid[local] =
        catalog->InternWithCode(staged.graph, std::move(staged.code),
                                staged.num_classes,
                                std::move(staged.class_keys));
    data.freq.emplace(global_tid[local], staged.frequency);
  }
  for (size_t c = 0; c < staging.class_path_local_tid.size(); ++c) {
    Tid local = staging.class_path_local_tid[c];
    if (local != kNoTid) {
      data.classes[c].path_tid = global_tid[static_cast<size_t>(local)];
    }
  }

  for (const PairBuildStaging::Row& row : staging.alltops_rows) {
    alltops->AppendRowOrDie(
        {storage::Value(row.e1), storage::Value(row.e2),
         storage::Value(global_tid[static_cast<size_t>(row.v)])});
  }
  for (const PairBuildStaging::Row& row : staging.pairclasses_rows) {
    pairclasses->AppendRowOrDie({storage::Value(row.e1),
                                 storage::Value(row.e2),
                                 storage::Value(row.v)});
  }

  Result<PairTopologyData*> added = store->AddPair(std::move(data));
  if (!added.ok()) {
    (void)db_->DropTable(alltops->name());
    (void)db_->DropTable(pairclasses->name());
    return added.status();
  }
  PairTopologyData* pair = added.value();
  columnar::AttachSlices(
      *db_, store->catalog(), pair,
      store->ResolveDataTable(db_->entity_set(pair->t1).table_name),
      store->ResolveDataTable(db_->entity_set(pair->t2).table_name));
  return Status::OK();
}

Status TopologyBuilder::BuildPair(storage::EntityTypeId ta,
                                  storage::EntityTypeId tb,
                                  const BuildConfig& config,
                                  TopologyStore* store) {
  TSB_RETURN_IF_ERROR(ValidateBuildConfig(config));
  auto [t1, t2] = TopologyStore::NormalizePair(ta, tb);
  if (store->FindPair(t1, t2) != nullptr) {
    return Status::AlreadyExists("pair already built");
  }
  TSB_ASSIGN_OR_RETURN(PairBuildStaging staging, StagePair(ta, tb, config));
  return CommitStaged(std::move(staging), store);
}

namespace {

Status ValidateShards(const std::vector<TopologyStore*>& shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("sharded build needs at least one shard");
  }
  for (TopologyStore* shard : shards) {
    if (shard == nullptr) {
      return Status::InvalidArgument("sharded build got a null shard store");
    }
  }
  return Status::OK();
}

}  // namespace

Status TopologyBuilder::CommitStagingToShards(
    PairBuildStaging staging, const std::vector<TopologyStore*>& shards) {
  std::vector<PairBuildStaging> slices =
      SplitStagingForShards(staging, shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    TSB_RETURN_IF_ERROR(CommitStaged(std::move(slices[i]), shards[i]));
  }
  return Status::OK();
}

Status TopologyBuilder::BuildPair(storage::EntityTypeId ta,
                                  storage::EntityTypeId tb,
                                  const BuildConfig& config,
                                  const std::vector<TopologyStore*>& shards) {
  TSB_RETURN_IF_ERROR(ValidateBuildConfig(config));
  TSB_RETURN_IF_ERROR(ValidateShards(shards));
  auto [t1, t2] = TopologyStore::NormalizePair(ta, tb);
  if (shards[0]->FindPair(t1, t2) != nullptr) {
    return Status::AlreadyExists("pair already built");
  }
  TSB_ASSIGN_OR_RETURN(PairBuildStaging staging, StagePair(ta, tb, config));
  return CommitStagingToShards(std::move(staging), shards);
}

Status TopologyBuilder::StageAndCommitAll(
    const BuildConfig& config, service::ThreadPool* pool,
    const std::function<bool(storage::EntityTypeId, storage::EntityTypeId)>&
        built,
    const std::function<Status(PairBuildStaging)>& commit) {
  TSB_RETURN_IF_ERROR(ValidateBuildConfig(config));

  // Canonical pair order: commits (and hence TID assignment) follow it in
  // both the sequential and the parallel path.
  std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>> todo;
  const size_t n = schema_->num_entity_types();
  for (storage::EntityTypeId t1 = 0; t1 < n; ++t1) {
    for (storage::EntityTypeId t2 = t1; t2 < n; ++t2) {
      if (schema_->EnumeratePaths(t1, t2, config.max_path_length).empty()) {
        continue;
      }
      if (built(t1, t2)) continue;
      todo.emplace_back(t1, t2);
    }
  }

  if (pool == nullptr || pool->num_threads() <= 1 || todo.size() <= 1) {
    for (const auto& [t1, t2] : todo) {
      TSB_ASSIGN_OR_RETURN(PairBuildStaging staging,
                           StagePair(t1, t2, config));
      TSB_RETURN_IF_ERROR(commit(std::move(staging)));
    }
    return Status::OK();
  }

  // Fan the pure stage steps out over the pool; commit in canonical order
  // on this thread as each stage completes. Submission is windowed (a
  // couple of pairs per worker ahead of the commit cursor) so completed
  // out-of-order stagings never pile up: peak staging memory is O(window),
  // not O(all pairs).
  const size_t window = std::max<size_t>(2 * pool->num_threads(), 2);
  auto submit_stage = [&](size_t index) {
    auto [t1, t2] = todo[index];
    std::future<Result<PairBuildStaging>> future = pool->Submit(
        [this, t1, t2, config]() { return StagePair(t1, t2, config); });
    if (!future.valid()) {
      // Pool shut down under us: stage inline so the build still finishes.
      std::promise<Result<PairBuildStaging>> ready;
      ready.set_value(StagePair(t1, t2, config));
      future = ready.get_future();
    }
    return future;
  };

  std::deque<std::future<Result<PairBuildStaging>>> in_flight;
  size_t next = 0;
  Status status = Status::OK();
  while (next < todo.size() || !in_flight.empty()) {
    while (next < todo.size() && in_flight.size() < window) {
      in_flight.push_back(submit_stage(next++));
    }
    Result<PairBuildStaging> staged =
        in_flight.front().get();  // Drain even on error.
    in_flight.pop_front();
    if (!status.ok()) continue;
    if (!staged.ok()) {
      status = staged.status();
      continue;
    }
    status = commit(std::move(staged).value());
  }
  return status;
}

Status TopologyBuilder::BuildAllPairs(const BuildConfig& config,
                                      TopologyStore* store,
                                      service::ThreadPool* pool) {
  return StageAndCommitAll(
      config, pool,
      [store](storage::EntityTypeId t1, storage::EntityTypeId t2) {
        return store->FindPair(t1, t2) != nullptr;
      },
      [this, store](PairBuildStaging staging) {
        return CommitStaged(std::move(staging), store);
      });
}

Status TopologyBuilder::BuildAllPairs(const BuildConfig& config,
                                      const std::vector<TopologyStore*>& shards,
                                      service::ThreadPool* pool) {
  TSB_RETURN_IF_ERROR(ValidateShards(shards));
  return StageAndCommitAll(
      config, pool,
      // Shards are always built in lockstep; shard 0 is the bellwether.
      [&shards](storage::EntityTypeId t1, storage::EntityTypeId t2) {
        return shards[0]->FindPair(t1, t2) != nullptr;
      },
      [this, &shards](PairBuildStaging staging) {
        return CommitStagingToShards(std::move(staging), shards);
      });
}

std::vector<PairBuildStaging> SplitStagingForShards(
    const PairBuildStaging& staging, size_t num_shards) {
  TSB_CHECK_GE(num_shards, 1u);
  // One row-less template per shard: replicate the pair metadata, global
  // freq counters, the full topology list, class registry, and PairClasses
  // rows, and re-namespace the tables. The AllTops rows — the dominant
  // structure — are partitioned below in a single pass, never copied
  // wholesale.
  PairBuildStaging replicated = staging;
  replicated.alltops_rows.clear();

  std::vector<PairBuildStaging> slices;
  slices.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    PairBuildStaging slice = replicated;
    PairTopologyData& data = slice.data;
    data.table_namespace = storage::ShardNamespace(
        staging.data.table_namespace, i, num_shards);
    data.alltops_table = data.table_namespace + "AllTops_" + data.pair_name;
    data.pairclasses_table =
        data.table_namespace + "PairClasses_" + data.pair_name;
    slices.push_back(std::move(slice));
  }
  for (const PairBuildStaging::Row& row : staging.alltops_rows) {
    slices[ShardOfEntityPair(row.e1, row.e2, num_shards)]
        .alltops_rows.push_back(row);
  }
  return slices;
}

}  // namespace core
}  // namespace tsb
