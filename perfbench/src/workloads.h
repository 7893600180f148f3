// The benchmark's inputs, kept apart from the program so a change to the
// program's own workload code cannot change what the benchmark measures:
// the operation mixes (paper Table 1 and Table 2, copied as data), the
// namespace plan, the four workload definitions and the seeded generators.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "kv/kv.h"

namespace perfbench {

// --- Seeded generators -------------------------------------------------------

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

// Derives independent stream seeds from the run seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index);

// Samples an index from a fixed CDF (binary search).
class CdfSampler {
 public:
  explicit CdfSampler(std::vector<double> weights);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Zipf popularity over n items whose ranks are scattered by a seeded
// permutation, so the hottest items do not all sit in one directory.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double exponent, uint64_t seed);
  size_t Sample(Rng& rng) const { return order_[ranks_.Sample(rng)]; }

 private:
  CdfSampler ranks_;
  std::vector<size_t> order_;
};

// --- Operations and mixes ----------------------------------------------------

enum class Op : uint8_t {
  kRead,
  kStat,
  kList,
  kContentSummary,
  kCreate,
  kAppend,
  kMkdirs,
  kDelete,
  kRename,
  kSetPermission,
  kSetOwner,
  kSetReplication,
};
inline constexpr size_t kNumOps = 12;
inline constexpr std::array<std::string_view, kNumOps> kOpNames = {
    "read",   "stat",   "list",   "content_summary", "create",  "append",
    "mkdirs", "delete", "rename", "set_permission",  "set_owner", "set_replication"};
inline std::string_view OpName(Op op) { return kOpNames[static_cast<size_t>(op)]; }
// Reads, stats, listings and content summaries; everything else mutates.
inline bool IsReadOp(Op op) { return op <= Op::kContentSummary; }

struct MixRow {
  Op op;
  double pct;           // relative frequency, percent
  double dir_fraction;  // share of targets that are directories
};

// Table 1 (Spotify trace). "add blocks" is folded into `append`, which
// reopens one of the client's files and adds a block to it.
std::vector<MixRow> SpotifyMix();
// Table 2: the Spotify mix with file writes (create + append + add blocks)
// raised to `file_write_pct` percent, reads lowered to make room.
std::vector<MixRow> WriteIntensiveMix(double file_write_pct);

// --- Namespace plan ----------------------------------------------------------

// Namespace shape (paper §7.2: names average 34 characters, 1.3 blocks
// per file): kTopLevelDirs directories under the base, each kDirDepth
// levels deep with kSubdirsPerDir subdirectories per directory, and
// kFilesPerDir files in every directory below the base.
inline constexpr int kTopLevelDirs = 4;
inline constexpr int kDirDepth = 3;
inline constexpr int kSubdirsPerDir = 2;
inline constexpr int kFilesPerDir = 16;
inline constexpr size_t kNameLength = 34;
inline constexpr double kSecondBlockShare = 0.3;

struct PlanFile {
  std::string path;
  std::string dir;
  int blocks = 1;
};

struct NamespacePlan {
  std::vector<std::string> dirs;  // parents before children
  std::vector<PlanFile> files;
  std::vector<size_t> leaf_dirs;  // indices into dirs of the deepest level
  // Planned children of every directory (the root included when the base
  // is not the root): name -> is_dir.
  std::map<std::string, std::map<std::string, bool>> children;
  size_t num_inodes() const { return dirs.size() + files.size(); }
};

// `base` is the directory the namespace hangs under: "" for the root, or
// one top-level directory's name.
NamespacePlan MakePlan(const std::string& base, uint64_t seed);

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  hops::kv::EngineKind engine = hops::kv::EngineKind::kNdb;
  int num_handlers = 0;
  bool async_commit = false;
  std::vector<MixRow> mix;
  std::string base;  // see MakePlan
  // Hint-cache capacity as a share of the namespace's paths; 0 = the
  // program's default capacity (the namespace fits).
  double cache_share = 0;
  // set_replication picks a value in [min_set_replication, 4].
  int64_t min_set_replication = 2;
  int64_t ops_per_client = 0;     // measured ops per client per round
  int64_t warmup_per_client = 0;  // unmeasured ops per client per round
};

// The four benchmark workloads, by name; nullptr for an unknown name.
const Workload* FindWorkload(std::string_view name);

// Namenodes, and client threads (at most nproc, each pinned to namenode
// index mod kNamenodes).
inline constexpr int kNamenodes = 2;
inline constexpr int kClients = 4;
// Heartbeat period of the ticker that runs throughout every round.
inline constexpr int kHeartbeatPeriodMs = 50;
// Zipf exponent of target popularity (heavy-tailed access, paper §5.1.1).
inline constexpr double kZipfExponent = 1.05;
// Datanodes and block replication of every cluster.
inline constexpr int kDatanodes = 3;
inline constexpr int64_t kReplication = 3;
inline constexpr int64_t kBlockBytes = 1024;

}  // namespace perfbench
