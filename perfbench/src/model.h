// The benchmark's own model of acknowledged operations and the oracle that
// checks a cluster against it. Clients create fresh names and delete,
// rename or append only their own files, so each client's model is exact;
// the only shared-file mutation is set_replication on planned files, whose
// effect on block locations (replicas above the new target are dropped,
// none are added) is order-independent: a block keeps
// min(kReplication, lowest value ever set) locations.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "deploy.h"
#include "workloads.h"

namespace perfbench {

struct OwnFile {
  std::string path;
  std::string dir;
  int blocks = 0;
};

struct ClientModel {
  std::vector<OwnFile> files;                              // live files of this client
  std::vector<std::pair<std::string, std::string>> dirs;   // created (parent, path)
  std::vector<std::string> gone;                           // deleted and moved-from paths
  std::map<size_t, int64_t> min_replication;               // planned file -> lowest value set
  // Left out of the exact checks after an op on them failed.
  std::set<std::string> uncertain_dirs;
  std::set<std::string> uncertain_paths;
};

// Checks every property the oracle names against the merged models and
// returns one line per violation (empty = all hold). `checker` may go to
// any namenode.
std::vector<std::string> VerifyCluster(const NamespacePlan& plan,
                                       const std::vector<ClientModel>& models,
                                       FsClient& checker, Deployment& cluster);

// The block locations of one read, checked inline: `want_blocks` blocks,
// each on distinct datanodes, between `min_locs` and `max_locs` of them.
std::string CheckBlocks(const std::string& path,
                        const std::vector<hops::fs::LocatedBlock>& blocks, int want_blocks,
                        size_t min_locs, size_t max_locs);

}  // namespace perfbench
