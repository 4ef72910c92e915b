#include "deployment.h"

#include <cstdio>
#include <map>
#include <utility>

#include "biozon/domain.h"
#include "biozon/generator.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/pruner.h"
#include "core/scorer.h"
#include "net/endpoint_client.h"
#include "wire/message.h"

namespace perfbench {

using namespace tsb;

const std::vector<std::pair<std::string, std::string>>& Pairs() {
  static const std::vector<std::pair<std::string, std::string>> kPairs = {
      {"Protein", "Interaction"}, {"Protein", "DNA"}, {"Protein", "Unigene"}};
  return kPairs;
}

core::BuildConfig MakeBuildConfig(const WorldParams& params) {
  core::BuildConfig build;
  build.max_path_length = params.max_path_length;
  build.max_class_representatives = params.max_class_representatives;
  build.max_union_combinations = params.max_union_combinations;
  build.max_paths_per_source = params.max_paths_per_source;
  return build;
}

namespace {

storage::EntityTypeId TypeOf(const storage::Catalog& db,
                             const std::string& entity_set) {
  const storage::EntitySetDef* def = db.FindEntitySet(entity_set);
  TSB_CHECK(def != nullptr) << entity_set;
  return def->id;
}

biozon::BiozonSchema Generate(const WorldParams& params,
                              storage::Catalog* db) {
  biozon::GeneratorConfig gen;
  gen.seed = params.seed;
  gen.scale = params.scale;
  return biozon::GenerateBiozon(gen, db);
}

/// Builds the three pairs into a single store, prunes them at the
/// configured fraction of each pair's related-pair count, and returns the
/// store. Commit order is Pairs() order in every world, so TIDs agree.
std::shared_ptr<core::TopologyStore> BuildSingleStore(
    const WorldParams& params, storage::Catalog* db,
    const graph::SchemaGraph* schema, const graph::DataGraphView* view) {
  auto store = std::make_shared<core::TopologyStore>();
  core::TopologyBuilder builder(db, schema, view);
  const core::BuildConfig build = MakeBuildConfig(params);
  for (const auto& [a, b] : Pairs()) {
    Status st = builder.BuildPair(TypeOf(*db, a), TypeOf(*db, b), build,
                                  store.get());
    TSB_CHECK(st.ok()) << st;
  }
  for (const auto& [a, b] : Pairs()) {
    const core::PairTopologyData* pair =
        store->FindPair(TypeOf(*db, a), TypeOf(*db, b));
    TSB_CHECK(pair != nullptr);
    core::PruneConfig prune;
    prune.frequency_threshold = static_cast<size_t>(
        params.prune_fraction * static_cast<double>(pair->num_related_pairs));
    auto pruned = core::PruneFrequentTopologies(
        db, store.get(), TypeOf(*db, a), TypeOf(*db, b), prune);
    TSB_CHECK(pruned.ok()) << pruned.status();
  }
  return store;
}

}  // namespace

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

Deployment::Deployment(const WorldParams& params, const std::string& run_dir,
                       size_t instance)
    : params_(params) {
  Stopwatch total;
  Stopwatch phase;
  ids_ = Generate(params_, &db_);
  view_ = std::make_unique<graph::DataGraphView>(db_);
  schema_ = std::make_unique<graph::SchemaGraph>(db_);
  times_.generate_s = phase.ElapsedSeconds();

  phase.Restart();
  sharded_ = std::make_shared<shard::ShardedTopologyStore>(kShards);
  std::vector<std::shared_ptr<core::TopologyStore>> pinned;
  std::vector<core::TopologyStore*> shards;
  for (size_t i = 0; i < kShards; ++i) {
    pinned.push_back(sharded_->Snapshot(i));
    shards.push_back(pinned.back().get());
  }
  core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
  const core::BuildConfig build = MakeBuildConfig(params_);
  for (const auto& [a, b] : Pairs()) {
    Status st =
        builder.BuildPair(TypeOf(db_, a), TypeOf(db_, b), build, shards);
    TSB_CHECK(st.ok()) << st;
  }
  times_.build_s = phase.ElapsedSeconds();

  phase.Restart();
  for (const auto& [a, b] : Pairs()) {
    const storage::EntityTypeId ta = TypeOf(db_, a);
    const storage::EntityTypeId tb = TypeOf(db_, b);
    // Frequencies and related-pair counts are global on every shard.
    const core::PairTopologyData* pair = shards[0]->FindPair(ta, tb);
    TSB_CHECK(pair != nullptr);
    core::PruneConfig prune;
    prune.frequency_threshold = static_cast<size_t>(
        params_.prune_fraction * static_cast<double>(pair->num_related_pairs));
    for (core::TopologyStore* shard : shards) {
      auto pruned = core::PruneFrequentTopologies(&db_, shard, ta, tb, prune);
      TSB_CHECK(pruned.ok()) << pruned.status();
    }
  }
  times_.prune_s = phase.ElapsedSeconds();
  {
    std::vector<const core::TopologyStore*> stores(shards.begin(),
                                                   shards.end());
    for (uint64_t rows : shard::ShardAllTopsRowCounts(db_, stores)) {
      times_.alltops_rows += rows;
    }
  }
  pinned.clear();

  phase.Restart();
  executor_ = std::make_unique<shard::ScatterGatherExecutor>(
      &db_, sharded_, schema_.get(), view_.get(),
      biozon::MakeBiozonDomainKnowledge(ids_));
  for (const auto& [a, b] : Pairs()) executor_->PrepareIndexes(a, b);
  times_.index_s = phase.ElapsedSeconds();

  const shard::ShardedTopologyStore* store = &executor_->store();
  std::vector<std::vector<std::unique_ptr<replica::ReplicaChannel>>> channels(
      kShards);
  for (size_t i = 0; i < kShards; ++i) {
    handlers_.push_back(std::make_unique<shard::ShardFrameHandler>(
        &db_, &executor_->shard_engine(i),
        [store, i]() { return store->Snapshot(i); }));
    net::ShardServerConfig server_config;
    server_config.uds_path = run_dir + "/d" + std::to_string(instance) + "s" +
                             std::to_string(i) + ".sock";
    std::remove(server_config.uds_path.c_str());
    socket_paths_.push_back(server_config.uds_path);
    servers_.push_back(std::make_unique<net::ShardServer>(
        handlers_.back().get(), server_config));
    Status st = servers_.back()->Start();
    TSB_CHECK(st.ok()) << st;
    channels[i].push_back(std::make_unique<replica::SocketReplicaChannel>(
        net::ShardEndpoint::Unix(server_config.uds_path)));
  }
  transport_ = std::make_unique<replica::ReplicaSetTransport>(
      std::move(channels), replica::ReplicaSetConfig{},
      executor_->transport_metrics());
  executor_->set_transport(transport_.get());

  service::ServiceConfig config;
  config.num_threads = kServiceWorkers;
  service_ = std::make_unique<service::TopologyService>(executor_.get(), &db_,
                                                        config);

  // Set-up ends when the service has admitted and answered its first
  // request. The probe's cache entry is dropped so every workload starts
  // from an empty cache.
  service::RequestParser parser(&db_);
  auto probe = parser.Parse("TOPK k=1 method=full-topk set1=Protein set2=DNA");
  TSB_CHECK(probe.ok()) << probe.status();
  wire::WireRequest request;
  request.id = 1;
  request.query = probe->query;
  request.method = probe->method;
  request.options = probe->options;
  wire::CollectingSink sink;
  service_->Submit(request, sink);
  sink.WaitForFrames(1);
  const wire::WireFrame first = sink.Frames().front();
  TSB_CHECK(first.response.error.ok()) << first.response.error.message;
  times_.total_s = total.ElapsedSeconds();
  service_->InvalidateCache();
}

Deployment::~Deployment() {
  service_.reset();
  if (executor_ != nullptr) executor_->set_transport(nullptr);
  transport_.reset();
  for (auto& server : servers_) server->Stop();
  servers_.clear();
  handlers_.clear();
  for (const std::string& path : socket_paths_) std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ReferenceWorld
// ---------------------------------------------------------------------------

ReferenceWorld::ReferenceWorld(const WorldParams& params) : params_(params) {
  ids_ = Generate(params_, &db_);
  view_ = std::make_unique<graph::DataGraphView>(db_);
  schema_ = std::make_unique<graph::SchemaGraph>(db_);
  std::shared_ptr<core::TopologyStore> store =
      BuildSingleStore(params_, &db_, schema_.get(), view_.get());
  handle_ = std::make_shared<core::StoreHandle>(store);
  engine_ = std::make_unique<engine::Engine>(
      &db_, handle_, schema_.get(), view_.get(),
      core::ScoreModel(&store->catalog(),
                       biozon::MakeBiozonDomainKnowledge(ids_)));
  for (const auto& [a, b] : Pairs()) engine_->PrepareIndexes(a, b);
}

void ReferenceWorld::Apply(const mutation::MutationBatch& batch) {
  if (mutator_ == nullptr) {
    mutation::MutationEngine::Options options;
    options.build = MakeBuildConfig(params_);
    mutator_ = std::make_unique<mutation::MutationEngine>(
        &db_, schema_.get(),
        std::vector<std::shared_ptr<core::StoreHandle>>{handle_}, options);
  }
  auto applied = mutator_->Apply(batch);
  TSB_CHECK(applied.ok()) << applied.status();
}

// ---------------------------------------------------------------------------
// OracleWorld
// ---------------------------------------------------------------------------

namespace {

/// Rows of every base table of a generated world with a mutation history
/// applied: original order, updated attributes in place, additions
/// appended — the row order the copy-on-write overlay produces.
class RowModel {
 public:
  explicit RowModel(const WorldParams& params) {
    Generate(params, &generated_);
    for (const storage::EntitySetDef& es : generated_.entity_sets()) {
      Load(es.table_name);
    }
    for (const storage::RelationshipSetDef& rs :
         generated_.relationship_sets()) {
      Load(rs.table_name);
    }
  }

  void Apply(const mutation::Mutation& op) {
    switch (op.kind) {
      case mutation::MutationKind::kAddNode: {
        const storage::EntitySetDef* es = generated_.FindEntitySet(op.set_name);
        TSB_CHECK(es != nullptr) << op.set_name;
        const storage::TableSchema& schema =
            generated_.GetTable(es->table_name)->schema();
        storage::Tuple row(schema.num_columns());
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          row[c] = schema.column(c).name == es->id_column
                       ? storage::Value(op.id)
                       : Zero(schema.column(c).type);
        }
        for (const auto& [column, value] : op.attributes) {
          row[*schema.FindColumn(column)] = value;
        }
        tables_[es->table_name].push_back(std::move(row));
        break;
      }
      case mutation::MutationKind::kAddEdge: {
        const storage::RelationshipSetDef* rs =
            generated_.FindRelationshipSet(op.set_name);
        TSB_CHECK(rs != nullptr) << op.set_name;
        const storage::TableSchema& schema =
            generated_.GetTable(rs->table_name)->schema();
        storage::Tuple row(schema.num_columns());
        row[*schema.FindColumn(rs->id_column)] = storage::Value(op.id);
        row[*schema.FindColumn(rs->from_column)] = storage::Value(op.from);
        row[*schema.FindColumn(rs->to_column)] = storage::Value(op.to);
        tables_[rs->table_name].push_back(std::move(row));
        break;
      }
      case mutation::MutationKind::kUpdateAttribute: {
        const storage::EntitySetDef* es = generated_.FindEntitySet(op.set_name);
        TSB_CHECK(es != nullptr) << op.set_name;
        const storage::TableSchema& schema =
            generated_.GetTable(es->table_name)->schema();
        const size_t id_col = *schema.FindColumn(es->id_column);
        for (storage::Tuple& row : tables_[es->table_name]) {
          if (row[id_col].AsInt64() != op.id) continue;
          for (const auto& [column, value] : op.attributes) {
            row[*schema.FindColumn(column)] = value;
          }
        }
        break;
      }
      default:
        // The write schedule only adds and updates; removals would need
        // the cascade model of mutation_test.
        TSB_CHECK(false) << "oracle model does not handle this mutation kind";
    }
  }

  void Materialize(storage::Catalog* db) const {
    for (const auto& [name, rows] : tables_) {
      storage::Table* table = db->GetTable(name);
      for (const storage::Tuple& row : rows) table->AppendRowOrDie(row);
    }
  }

 private:
  static storage::Value Zero(storage::ColumnType type) {
    switch (type) {
      case storage::ColumnType::kInt64:
        return storage::Value(static_cast<int64_t>(0));
      case storage::ColumnType::kDouble:
        return storage::Value(0.0);
      case storage::ColumnType::kString:
        return storage::Value(std::string());
    }
    return storage::Value(static_cast<int64_t>(0));
  }

  void Load(const std::string& table_name) {
    const storage::Table* table = generated_.GetTable(table_name);
    std::vector<storage::Tuple>& rows = tables_[table_name];
    rows.reserve(table->num_rows());
    for (size_t r = 0; r < table->num_rows(); ++r) {
      rows.push_back(table->GetRow(r));
    }
  }

  storage::Catalog generated_;
  std::map<std::string, std::vector<storage::Tuple>> tables_;
};

}  // namespace

OracleWorld::OracleWorld(
    const WorldParams& params,
    const std::vector<mutation::MutationBatch>& history,
    const core::TopologyStore& live_store) {
  {
    RowModel model(params);
    for (const mutation::MutationBatch& batch : history) {
      for (const mutation::Mutation& op : batch.ops) model.Apply(op);
    }
    ids_ = biozon::CreateBiozonSchema(&db_);
    model.Materialize(&db_);
  }
  view_ = std::make_unique<graph::DataGraphView>(db_);
  schema_ = std::make_unique<graph::SchemaGraph>(db_);

  auto store = std::make_shared<core::TopologyStore>();
  const core::TopologyCatalog& live_catalog = live_store.catalog();
  auto seeded = std::make_shared<core::TopologyCatalog>();
  for (core::Tid tid = 1; tid <= static_cast<core::Tid>(live_catalog.size());
       ++tid) {
    const core::TopologyInfo& info = live_catalog.Get(tid);
    seeded->InternWithCode(info.graph, info.code, info.num_classes,
                           live_catalog.ClassKeysOf(tid));
  }
  store->adopt_catalog(seeded);

  core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
  const core::BuildConfig build = MakeBuildConfig(params);
  for (const auto& [a, b] : Pairs()) {
    Status st = builder.BuildPair(TypeOf(db_, a), TypeOf(db_, b), build,
                                  store.get());
    TSB_CHECK(st.ok()) << st;
  }
  for (const auto& [a, b] : Pairs()) {
    const storage::EntityTypeId ta = TypeOf(db_, a);
    const storage::EntityTypeId tb = TypeOf(db_, b);
    const core::PairTopologyData* live = live_store.FindPair(ta, tb);
    TSB_CHECK(live != nullptr);
    core::PruneConfig prune;
    prune.frequency_threshold = live->prune_threshold;
    auto pruned = core::PruneFrequentTopologies(&db_, store.get(), ta, tb,
                                                prune);
    TSB_CHECK(pruned.ok()) << pruned.status();
  }
  handle_ = std::make_shared<core::StoreHandle>(store);
  engine_ = std::make_unique<engine::Engine>(
      &db_, handle_, schema_.get(), view_.get(),
      core::ScoreModel(&store->catalog(),
                       biozon::MakeBiozonDomainKnowledge(ids_)));
  for (const auto& [a, b] : Pairs()) engine_->PrepareIndexes(a, b);
}

}  // namespace perfbench
