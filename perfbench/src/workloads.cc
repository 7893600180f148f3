#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  Rng rng(seed * 0x100000001b3ULL ^ (stream << 32) ^ index);
  rng.Next();
  return rng.Next();
}

CdfSampler::CdfSampler(std::vector<double> weights) : cdf_(std::move(weights)) {
  if (cdf_.empty()) throw std::invalid_argument("CdfSampler needs at least one weight");
  double sum = 0;
  for (double& w : cdf_) {
    sum += w;
    w = sum;
  }
  for (double& w : cdf_) w /= sum;
}

size_t CdfSampler::Sample(Rng& rng) const {
  return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end() - 1, rng.Unit()) -
                             cdf_.begin());
}

namespace {

std::vector<double> ZipfWeights(size_t n, double exponent) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) w[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent);
  return w;
}

}  // namespace

ZipfPicker::ZipfPicker(size_t n, double exponent, uint64_t seed)
    : ranks_(ZipfWeights(n, exponent)), order_(n) {
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(order_[i - 1], order_[rng.Below(i)]);
}

std::vector<MixRow> SpotifyMix() {
  // Table 1, in percent; bracketed directory shares where the paper gives
  // them. append = "append file" (0.0) + "add blocks" (1.5).
  return {
      {Op::kAppend, 1.5, 0.0},         {Op::kContentSummary, 0.01, 1.0},
      {Op::kMkdirs, 0.02, 1.0},        {Op::kSetPermission, 0.03, 0.263},
      {Op::kSetReplication, 0.14, 0.0}, {Op::kSetOwner, 0.32, 1.0},
      {Op::kDelete, 0.75, 0.035},      {Op::kCreate, 1.2, 0.0},
      {Op::kRename, 1.3, 0.0003},      {Op::kList, 9.0, 0.945},
      {Op::kStat, 17.0, 0.233},        {Op::kRead, 68.73, 0.0},
  };
}

std::vector<MixRow> WriteIntensiveMix(double file_write_pct) {
  // Table 2 raises the create share so that file writes (create + append +
  // add blocks) reach `file_write_pct`, and lowers reads by the same amount.
  std::vector<MixRow> mix = SpotifyMix();
  double other_writes = 0;
  for (const MixRow& r : mix) {
    if (r.op == Op::kAppend) other_writes += r.pct;
  }
  double target_create = file_write_pct - other_writes;
  double delta = 0;
  for (MixRow& r : mix) {
    if (r.op == Op::kCreate) {
      delta = target_create - r.pct;
      r.pct = target_create;
    }
  }
  for (MixRow& r : mix) {
    if (r.op == Op::kRead) r.pct -= delta;
  }
  return mix;
}

NamespacePlan MakePlan(const std::string& base_name, uint64_t seed) {
  NamespacePlan plan;
  Rng rng(seed);
  size_t serial = 0;
  auto name = [&](char kind) {
    std::string n(1, kind);
    n += std::to_string(serial++);
    n += '_';
    while (n.size() < kNameLength) n.push_back(static_cast<char>('a' + rng.Below(26)));
    return n;
  };
  auto add_dir = [&](const std::string& parent, const std::string& child) {
    std::string path = (parent == "/" ? "" : parent) + "/" + child;
    plan.children[parent][child] = true;
    plan.children[path];
    plan.dirs.push_back(path);
    return path;
  };

  std::string base = "/";
  if (!base_name.empty()) base = add_dir("/", base_name);
  std::vector<std::string> level;
  for (int i = 0; i < kTopLevelDirs; ++i) level.push_back(add_dir(base, name('d')));
  for (int d = 0; d < kDirDepth; ++d) {
    std::vector<std::string> next;
    for (const std::string& parent : level) {
      for (int i = 0; i < kSubdirsPerDir; ++i) next.push_back(add_dir(parent, name('d')));
    }
    level = std::move(next);
  }
  size_t first_leaf = plan.dirs.size() - level.size();
  for (size_t i = first_leaf; i < plan.dirs.size(); ++i) plan.leaf_dirs.push_back(i);

  size_t first_file_dir = base_name.empty() ? 0 : 1;
  for (size_t i = first_file_dir; i < plan.dirs.size(); ++i) {
    const std::string dir = plan.dirs[i];
    for (int f = 0; f < kFilesPerDir; ++f) {
      std::string child = name('f');
      plan.children[dir][child] = false;
      plan.files.push_back({dir + "/" + child, dir, rng.Chance(kSecondBlockShare) ? 2 : 1});
    }
  }
  return plan;
}

namespace {

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  Workload spotify;
  spotify.name = "spotify";
  spotify.mix = SpotifyMix();
  spotify.cache_share = 0.25;
  spotify.ops_per_client = 7500;
  spotify.warmup_per_client = 500;
  all.push_back(spotify);

  Workload write_heavy;
  write_heavy.name = "write_heavy";
  write_heavy.mix = WriteIntensiveMix(20);
  write_heavy.num_handlers = 4;
  write_heavy.ops_per_client = 3000;
  write_heavy.warmup_per_client = 250;
  all.push_back(write_heavy);

  Workload write_async = write_heavy;
  write_async.name = "write_async";
  write_async.async_commit = true;
  all.push_back(write_async);

  Workload shared = write_heavy;
  shared.name = "shared_dir_occ";
  shared.engine = hops::kv::EngineKind::kOcc;
  shared.num_handlers = 0;
  shared.base = "shared-dir";
  // Directory setattrs are subtree ops, and on occ one now and then runs
  // out of transaction retries while other clients create in the
  // directory (kTxAborted, 3 of about 5 million ops). A failure that comes
  // and goes cannot be a steady share of the ops, so here they go to files.
  for (MixRow& r : shared.mix) {
    if (r.op == Op::kSetOwner || r.op == Op::kSetPermission) r.dir_fraction = 0;
  }
  // Lowering a file's replication deletes replica rows, and on occ two
  // clients lowering one hot file at once can get NotFound from the
  // second delete (1 op in about 1.7 million). Raising deletes nothing.
  shared.min_set_replication = kReplication;
  shared.ops_per_client = 10000;
  shared.warmup_per_client = 500;
  all.push_back(shared);
  return all;
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
