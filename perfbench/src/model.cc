#include "model.h"

#include <algorithm>

namespace perfbench {

namespace fs = hops::fs;

namespace {

std::string ParentOf(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == 0 ? "/" : path.substr(0, slash);
}

std::string BaseOf(const std::string& path) { return path.substr(path.rfind('/') + 1); }

class Errors {
 public:
  void Add(std::string line) {
    if (lines_.size() < kMaxLines) lines_.push_back(std::move(line));
    ++total_;
  }
  std::vector<std::string> Take() {
    if (total_ > lines_.size()) {
      lines_.push_back("... " + std::to_string(total_ - lines_.size()) + " more");
    }
    return std::move(lines_);
  }

 private:
  static constexpr size_t kMaxLines = 20;
  std::vector<std::string> lines_;
  size_t total_ = 0;
};

void CheckFile(FsClient& c, const std::string& path, int blocks, size_t locs, Errors& errs) {
  auto st = c.Stat(path);
  if (!st.ok()) return errs.Add("stat " + path + ": " + st.status().ToString());
  if (st->is_dir) return errs.Add("stat " + path + ": a directory, modelled as a file");
  auto read = c.Read(path);
  if (!read.ok()) return errs.Add("read " + path + ": " + read.status().ToString());
  std::string bad = CheckBlocks(path, *read, blocks, locs, locs);
  if (!bad.empty()) errs.Add(bad);
}

}  // namespace

std::string CheckBlocks(const std::string& path, const std::vector<fs::LocatedBlock>& blocks,
                        int want_blocks, size_t min_locs, size_t max_locs) {
  if (blocks.size() != static_cast<size_t>(want_blocks)) {
    return "read " + path + ": " + std::to_string(blocks.size()) + " blocks, modelled " +
           std::to_string(want_blocks);
  }
  for (const fs::LocatedBlock& b : blocks) {
    std::vector<fs::DatanodeId> locs = b.locations;
    std::sort(locs.begin(), locs.end());
    if (std::adjacent_find(locs.begin(), locs.end()) != locs.end()) {
      return "read " + path + ": block " + std::to_string(b.block_id) +
             " has one datanode twice";
    }
    if (locs.size() < min_locs || locs.size() > max_locs) {
      return "read " + path + ": block " + std::to_string(b.block_id) + " has " +
             std::to_string(locs.size()) + " locations, modelled " + std::to_string(min_locs) +
             ".." + std::to_string(max_locs);
    }
  }
  return "";
}

std::vector<std::string> VerifyCluster(const NamespacePlan& plan,
                                       const std::vector<ClientModel>& models,
                                       FsClient& checker, Deployment& cluster) {
  Errors errs;
  std::map<std::string, std::map<std::string, bool>> expected = plan.children;
  std::set<std::string> touched, uncertain_dirs, uncertain_paths;
  std::map<size_t, int64_t> min_replication;
  size_t own_files = 0, own_dirs = 0;
  for (const ClientModel& m : models) {
    for (const OwnFile& f : m.files) {
      expected[f.dir][BaseOf(f.path)] = false;
      touched.insert(f.dir);
    }
    for (const auto& [parent, path] : m.dirs) {
      expected[parent][BaseOf(path)] = true;
      expected[path];
      touched.insert(parent);
      touched.insert(path);
    }
    for (const std::string& g : m.gone) touched.insert(ParentOf(g));
    for (const auto& [file, value] : m.min_replication) {
      auto [it, fresh] = min_replication.emplace(file, value);
      if (!fresh) it->second = std::min(it->second, value);
    }
    uncertain_dirs.insert(m.uncertain_dirs.begin(), m.uncertain_dirs.end());
    uncertain_paths.insert(m.uncertain_paths.begin(), m.uncertain_paths.end());
    own_files += m.files.size();
    own_dirs += m.dirs.size();
  }

  // Each touched directory lists exactly its modelled children.
  for (const std::string& dir : touched) {
    if (uncertain_dirs.count(dir) > 0) continue;
    auto listing = checker.List(dir);
    if (!listing.ok()) {
      errs.Add("list " + dir + ": " + listing.status().ToString());
      continue;
    }
    std::map<std::string, bool> got;
    for (const fs::FileStatus& s : *listing) got[s.name] = s.is_dir;
    if (got != expected[dir]) {
      errs.Add("list " + dir + ": " + std::to_string(got.size()) + " children, modelled " +
               std::to_string(expected[dir].size()));
    }
  }

  // Every modelled file stats as a file and reads its modelled blocks, each
  // on distinct datanodes.
  for (size_t i = 0; i < plan.files.size(); ++i) {
    auto it = min_replication.find(i);
    int64_t locs = cluster.block_locations();
    if (it != min_replication.end()) locs = std::min(locs, it->second);
    CheckFile(checker, plan.files[i].path, plan.files[i].blocks, static_cast<size_t>(locs),
              errs);
  }
  for (const ClientModel& m : models) {
    for (const OwnFile& f : m.files) {
      if (uncertain_paths.count(f.path) > 0) continue;
      CheckFile(checker, f.path, f.blocks,
                static_cast<size_t>(f.blocks > 0 ? cluster.block_locations() : 0), errs);
    }
  }

  // Deleted and moved-from paths are gone.
  for (const ClientModel& m : models) {
    for (const std::string& g : m.gone) {
      if (uncertain_paths.count(g) > 0) continue;
      auto st = checker.Stat(g);
      if (st.ok() || st.status().code() != hops::StatusCode::kNotFound) {
        errs.Add("stat " + g + ": " + (st.ok() ? "exists" : st.status().ToString()) +
                 ", modelled as gone");
      }
    }
  }

  // The root summary counts every modelled file and directory.
  if (uncertain_dirs.empty() && uncertain_paths.empty()) {
    auto sum = checker.ContentSummaryOf("/");
    size_t want_files = plan.files.size() + own_files;
    size_t want_dirs = 1 + plan.dirs.size() + own_dirs;
    if (!sum.ok()) {
      errs.Add("content summary /: " + sum.status().ToString());
    } else if (static_cast<size_t>(sum->file_count) != want_files ||
               static_cast<size_t>(sum->dir_count) != want_dirs) {
      errs.Add("content summary /: " + std::to_string(sum->file_count) + " files, " +
               std::to_string(sum->dir_count) + " dirs; modelled " +
               std::to_string(want_files) + ", " + std::to_string(want_dirs));
    }
  }

  size_t intents = cluster.PendingIntents();
  if (intents != 0) errs.Add("op_intents holds " + std::to_string(intents) + " rows after drain");
  return errs.Take();
}

}  // namespace perfbench
