#include "deploy.h"

#include <thread>

#include "hdfs/edit_log.h"
#include "hdfs/namesystem.h"

namespace perfbench {

namespace fs = hops::fs;
namespace kv = hops::kv;

namespace {

class HopsClient final : public FsClient {
 public:
  explicit HopsClient(fs::Client client) : c_(std::move(client)) {}

  hops::Status Mkdirs(const std::string& p) override { return c_.Mkdirs(p); }
  hops::Status CreateFile(const std::string& p) override { return c_.CreateFile(p); }
  hops::Result<fs::LocatedBlock> AddBlock(const std::string& p, int64_t bytes) override {
    return c_.AddBlock(p, bytes);
  }
  hops::Status CompleteFile(const std::string& p) override { return c_.CompleteFile(p); }
  hops::Status Append(const std::string& p) override { return c_.Append(p); }
  hops::Result<std::vector<fs::LocatedBlock>> Read(const std::string& p) override {
    return c_.Read(p);
  }
  hops::Result<fs::FileStatus> Stat(const std::string& p) override { return c_.Stat(p); }
  hops::Result<std::vector<fs::FileStatus>> List(const std::string& p) override {
    return c_.List(p);
  }
  hops::Status SetPermission(const std::string& p, int64_t perm) override {
    return c_.SetPermission(p, perm);
  }
  hops::Status SetOwner(const std::string& p, const std::string& owner,
                        const std::string& group) override {
    return c_.SetOwner(p, owner, group);
  }
  hops::Status SetReplication(const std::string& p, int64_t r) override {
    return c_.SetReplication(p, r);
  }
  hops::Result<fs::ContentSummary> ContentSummaryOf(const std::string& p) override {
    return c_.ContentSummaryOf(p);
  }
  hops::Status Rename(const std::string& src, const std::string& dst) override {
    return c_.Rename(src, dst);
  }
  hops::Status Delete(const std::string& p, bool recursive) override {
    return c_.Delete(p, recursive);
  }

 private:
  fs::Client c_;
};

// What both HopsFS assemblies share once their parts are up.
class HopsDeployment : public Deployment {
 public:
  std::unique_ptr<FsClient> Client(int nn, const std::string& name) override {
    std::vector<fs::Namenode*> targets = parts_.namenodes;
    if (nn >= 0) targets = {targets[static_cast<size_t>(nn)]};
    fs::NamenodePolicy policy = nn >= 0 ? fs::NamenodePolicy::kSticky
                                        : fs::NamenodePolicy::kRoundRobin;
    return std::make_unique<HopsClient>(
        fs::Client([targets] { return targets; }, policy, name));
  }
  int64_t block_locations() const override { return kReplication; }
  double BytesPerInode() override {
    return static_cast<double>(parts_.db->TotalMemoryBytes()) /
           static_cast<double>(parts_.db->TableRowCount(parts_.schema->inodes));
  }
  size_t PendingIntents() override {
    return parts_.db->TableRowCount(parts_.schema->op_intents);
  }
  const HopsParts* hops() const override { return &parts_; }

 protected:
  HopsParts parts_;
};

fs::MiniClusterOptions Options(const Workload& w, size_t cache_capacity) {
  fs::MiniClusterOptions o;
  o.num_namenodes = kNamenodes;
  o.num_datanodes = kDatanodes;
  o.fs.kv_engine = w.engine;
  o.fs.num_handlers = w.num_handlers;
  o.fs.async_metadata_commit = w.async_commit;
  o.fs.intent_apply_batch = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  o.fs.default_replication = kReplication;
  if (cache_capacity > 0) o.fs.hint_cache_capacity = cache_capacity;
  return o;
}

class LiveMiniCluster final : public HopsDeployment {
 public:
  explicit LiveMiniCluster(std::unique_ptr<fs::MiniCluster> cluster)
      : cluster_(std::move(cluster)) {
    parts_.db = &cluster_->db();
    parts_.schema = &cluster_->schema();
    for (int i = 0; i < cluster_->num_namenodes(); ++i) {
      parts_.namenodes.push_back(&cluster_->namenode(i));
    }
  }

  void Tick() override { cluster_->TickHeartbeats(); }
  void Drain() override { cluster_->DrainIntents(); }
  hops::Status PipelineWrite(const fs::LocatedBlock& block) override {
    return cluster_->PipelineWrite(block);
  }

 private:
  std::unique_ptr<fs::MiniCluster> cluster_;
};

// The MiniCluster::Start assembly, on an engine wrapped by the timing
// decorator. Members are destroyed in reverse order: namenodes (and their
// threads) before the engine they use.
class TracedCluster final : public HopsDeployment {
 public:
  static hops::Result<std::unique_ptr<Deployment>> Start(fs::MiniClusterOptions options,
                                                         SpanLog* spans) {
    std::unique_ptr<TracedCluster> c(new TracedCluster);
    c->options_ = std::move(options);
    if (c->options_.db.mux_adaptive_gather_auto) {
      c->options_.db.mux_adaptive_gather =
          c->options_.fs.kv_engine == kv::EngineKind::kNdb && c->options_.fs.num_handlers >= 4;
    }
    c->db_ = MakeTracedEngine(kv::MakeEngine(c->options_.fs.kv_engine, c->options_.db), spans);
    HOPS_ASSIGN_OR_RETURN(schema, fs::MetadataSchema::Format(*c->db_));
    c->schema_ = schema;
    for (int i = 0; i < c->options_.num_datanodes; ++i) {
      c->datanodes_.push_back(std::make_unique<fs::Datanode>(i + 1));
    }
    for (int i = 0; i < c->options_.num_namenodes; ++i) {
      auto nn = std::make_unique<fs::Namenode>(c->db_.get(), &c->schema_, &c->options_.fs,
                                               "nn-slot-" + std::to_string(i));
      HOPS_RETURN_IF_ERROR(nn->Start());
      TracedCluster* self = c.get();
      nn->SetDatanodePicker([self](int count) { return self->PickDatanodes(count); });
      c->parts_.namenodes.push_back(nn.get());
      c->namenodes_.push_back(std::move(nn));
    }
    c->parts_.db = c->db_.get();
    c->parts_.schema = &c->schema_;
    c->Tick();
    return std::unique_ptr<Deployment>(std::move(c));
  }

  void Tick() override {
    for (auto& nn : namenodes_) nn->FlushHintInvalidations();
    for (auto& nn : namenodes_) (void)nn->Heartbeat();
  }
  void Drain() override {
    for (auto& nn : namenodes_) nn->FlushIntents();
  }
  hops::Status PipelineWrite(const fs::LocatedBlock& block) override {
    for (fs::DatanodeId id : block.locations) {
      datanodes_[static_cast<size_t>(id - 1)]->StoreBlock(block.block_id);
      HOPS_RETURN_IF_ERROR(namenodes_.front()->BlockReceived(id, block.block_id));
    }
    return hops::Status::Ok();
  }

 private:
  TracedCluster() = default;

  // MiniCluster's round-robin datanode picker.
  std::vector<fs::DatanodeId> PickDatanodes(int count) {
    std::vector<fs::DatanodeId> targets;
    size_t n = datanodes_.size();
    for (size_t tried = 0; tried < n && targets.size() < static_cast<size_t>(count); ++tried) {
      fs::Datanode& dn = *datanodes_[dn_rr_.fetch_add(1, std::memory_order_relaxed) % n];
      if (dn.alive()) targets.push_back(dn.id());
    }
    return targets;
  }

  fs::MiniClusterOptions options_;
  std::unique_ptr<kv::Engine> db_;
  fs::MetadataSchema schema_;
  std::vector<std::unique_ptr<fs::Datanode>> datanodes_;
  std::atomic<uint64_t> dn_rr_{0};
  std::vector<std::unique_ptr<fs::Namenode>> namenodes_;
};

class HdfsClient final : public FsClient {
 public:
  HdfsClient(hops::hdfs::Namesystem* ns, std::string holder)
      : ns_(ns), holder_(std::move(holder)) {}

  hops::Status Mkdirs(const std::string& p) override { return ns_->Mkdirs(p); }
  hops::Status CreateFile(const std::string& p) override { return ns_->Create(p, holder_); }
  hops::Result<fs::LocatedBlock> AddBlock(const std::string& p, int64_t bytes) override {
    return ns_->AddBlock(p, holder_, bytes);
  }
  hops::Status CompleteFile(const std::string& p) override {
    return ns_->CompleteFile(p, holder_);
  }
  hops::Status Append(const std::string& p) override { return ns_->Append(p, holder_); }
  hops::Result<std::vector<fs::LocatedBlock>> Read(const std::string& p) override {
    return ns_->GetBlockLocations(p);
  }
  hops::Result<fs::FileStatus> Stat(const std::string& p) override {
    return ns_->GetFileInfo(p);
  }
  hops::Result<std::vector<fs::FileStatus>> List(const std::string& p) override {
    return ns_->ListStatus(p);
  }
  hops::Status SetPermission(const std::string& p, int64_t perm) override {
    return ns_->SetPermission(p, perm);
  }
  hops::Status SetOwner(const std::string& p, const std::string& owner,
                        const std::string& group) override {
    return ns_->SetOwner(p, owner, group);
  }
  hops::Status SetReplication(const std::string& p, int64_t r) override {
    return ns_->SetReplication(p, r);
  }
  hops::Result<fs::ContentSummary> ContentSummaryOf(const std::string& p) override {
    return ns_->GetContentSummary(p);
  }
  hops::Status Rename(const std::string& src, const std::string& dst) override {
    return ns_->Rename(src, dst);
  }
  hops::Status Delete(const std::string& p, bool recursive) override {
    return ns_->Delete(p, recursive);
  }

 private:
  hops::hdfs::Namesystem* const ns_;
  const std::string holder_;
};

// One active HDFS namenode: the whole namespace under a global lock, every
// mutation logged to a three-node quorum journal. Its blocks carry no
// datanode locations.
class HdfsDeployment final : public Deployment {
 public:
  std::unique_ptr<FsClient> Client(int, const std::string& name) override {
    return std::make_unique<HdfsClient>(&ns_, name);
  }
  void Tick() override {}
  void Drain() override {}
  hops::Status PipelineWrite(const fs::LocatedBlock&) override { return hops::Status::Ok(); }
  int64_t block_locations() const override { return 0; }
  double BytesPerInode() override {
    return static_cast<double>(ns_.EstimatedMemoryBytes()) /
           static_cast<double>(ns_.NumInodes());
  }
  size_t PendingIntents() override { return 0; }

 private:
  hops::hdfs::EditLog journal_{3};
  hops::hdfs::Namesystem ns_{hops::hdfs::HdfsConfig{}, &journal_};
};

}  // namespace

hops::Result<std::unique_ptr<Deployment>> Deploy(const Workload& w, size_t cache_capacity,
                                                 SpanLog* spans) {
  fs::MiniClusterOptions options = Options(w, cache_capacity);
  if (spans != nullptr) return TracedCluster::Start(std::move(options), spans);
  HOPS_ASSIGN_OR_RETURN(cluster, fs::MiniCluster::Start(std::move(options)));
  return std::unique_ptr<Deployment>(std::make_unique<LiveMiniCluster>(std::move(cluster)));
}

std::unique_ptr<Deployment> DeployHdfs() { return std::make_unique<HdfsDeployment>(); }

}  // namespace perfbench
