// The system a round runs against. The untraced run starts a live
// fs::MiniCluster; the traced run assembles the same cluster by hand
// (engine, schema, datanodes, namenodes) on a timing decorator of the
// engine, since MiniCluster builds its engine internally. The HDFS
// baseline (hdfs::Namesystem with its quorum journal) is driven by the
// same load generator for reference figures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hopsfs/mini_cluster.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {

// The client surface the load generator drives: fs::Client's.
class FsClient {
 public:
  virtual ~FsClient() = default;
  virtual hops::Status Mkdirs(const std::string& path) = 0;
  virtual hops::Status CreateFile(const std::string& path) = 0;
  virtual hops::Result<hops::fs::LocatedBlock> AddBlock(const std::string& path,
                                                        int64_t bytes) = 0;
  virtual hops::Status CompleteFile(const std::string& path) = 0;
  virtual hops::Status Append(const std::string& path) = 0;
  virtual hops::Result<std::vector<hops::fs::LocatedBlock>> Read(const std::string& path) = 0;
  virtual hops::Result<hops::fs::FileStatus> Stat(const std::string& path) = 0;
  virtual hops::Result<std::vector<hops::fs::FileStatus>> List(const std::string& path) = 0;
  virtual hops::Status SetPermission(const std::string& path, int64_t perm) = 0;
  virtual hops::Status SetOwner(const std::string& path, const std::string& owner,
                                const std::string& group) = 0;
  virtual hops::Status SetReplication(const std::string& path, int64_t replication) = 0;
  virtual hops::Result<hops::fs::ContentSummary> ContentSummaryOf(const std::string& path) = 0;
  virtual hops::Status Rename(const std::string& src, const std::string& dst) = 0;
  virtual hops::Status Delete(const std::string& path, bool recursive) = 0;
};

// What the per-layer counters read from a HopsFS deployment.
struct HopsParts {
  hops::kv::Engine* db = nullptr;
  const hops::fs::MetadataSchema* schema = nullptr;
  std::vector<hops::fs::Namenode*> namenodes;
};

class Deployment {
 public:
  virtual ~Deployment() = default;

  // A client whose every op goes to namenode `nn`; nn < 0 spreads the ops
  // over all namenodes round-robin.
  virtual std::unique_ptr<FsClient> Client(int nn, const std::string& name) = 0;
  // One heartbeat round on every namenode (hint publishes flushed first).
  virtual void Tick() = 0;
  // Blocks until every acknowledged intent is applied.
  virtual void Drain() = 0;
  // The datanodes of a located block store it and report it received.
  virtual hops::Status PipelineWrite(const hops::fs::LocatedBlock& block) = 0;
  // Locations a fully written block reports (the HDFS baseline keeps none).
  virtual int64_t block_locations() const = 0;
  virtual double BytesPerInode() = 0;
  // Acknowledged ops whose intent is not yet applied.
  virtual size_t PendingIntents() = 0;
  // nullptr for the HDFS baseline.
  virtual const HopsParts* hops() const { return nullptr; }
};

// Starts the workload's HopsFS cluster with `cache_capacity` hint-cache
// entries per namenode (0 = the program's default); `spans` non-null
// selects the traced assembly recording into it.
hops::Result<std::unique_ptr<Deployment>> Deploy(const Workload& w, size_t cache_capacity,
                                                 SpanLog* spans);
// Starts the HDFS baseline namesystem.
std::unique_ptr<Deployment> DeployHdfs();

}  // namespace perfbench
