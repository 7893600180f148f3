#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>

#include "deploy.h"
#include "model.h"
#include "tracing.h"

namespace perfbench {

namespace fs = hops::fs;
namespace kv = hops::kv;

namespace {

constexpr int kLoaders = 4;
constexpr size_t kMaxErrors = 20;

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Linear interpolation between the order statistics around q.
double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) + static_cast<double>(v[hi]) * frac;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Whole-machine CPU time (all states) and the part of it the hypervisor
// gave to other guests, in clock ticks; zeros where /proc/stat is absent.
std::pair<double, double> HostTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0, steal = 0, v = 0;
  stat >> cpu;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

// --- Counters read through public accessors ---------------------------------

struct Counters {
  kv::ClusterStats db;
  fs::InodeHintCache::Stats hint;
  uint64_t proactive = 0, publish_events = 0, publish_coalesced = 0;
  uint64_t gc_acked = 0, gc_ttl = 0;
  fs::IntentLogStats intent;
  uint64_t handler_served = 0;
};

Counters Snapshot(const HopsParts& h) {
  Counters c;
  c.db = h.db->StatsSnapshot();
  for (fs::Namenode* nn : h.namenodes) {
    fs::InodeHintCache::Stats h = nn->hint_cache().stats();
    c.hint.hits += h.hits;
    c.hint.misses += h.misses;
    c.hint.evictions += h.evictions;
    c.hint.invalidations += h.invalidations;
    c.hint.entries_invalidated += h.entries_invalidated;
    c.hint.stale_put_rejections += h.stale_put_rejections;
    c.proactive += nn->proactive_invalidations_applied();
    c.publish_events += nn->hint_publish_events();
    c.publish_coalesced += nn->hint_publish_ops_coalesced();
    c.gc_acked += nn->election().hint_gc_acked_reaps();
    c.gc_ttl += nn->election().hint_gc_ttl_reaps();
    fs::IntentLogStats s = nn->intent_stats();
    c.intent.intents_appended += s.intents_appended;
    c.intent.intents_applied += s.intents_applied;
    c.intent.intents_coalesced += s.intents_coalesced;
    c.intent.apply_failures += s.apply_failures;
    c.intent.acked_ops += s.acked_ops;
    c.intent.ack_latency_us += s.ack_latency_us;
    c.intent.apply_latency_us += s.apply_latency_us;
    c.intent.covering_waits += s.covering_waits;
    if (nn->handler_pool() != nullptr) c.handler_served += nn->handler_pool()->requests_served();
  }
  return c;
}

// --- Heartbeat ticker --------------------------------------------------------

// Ticks every namenode at a fixed period, as a live cluster's heartbeat
// thread does, recording each tick's interval.
class Ticker {
 public:
  explicit Ticker(Deployment& d) : d_(d), thread_([this] { Loop(); }) {}
  ~Ticker() { Stop(); }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  // Tick intervals; read after Stop.
  const std::vector<Span>& ticks() const { return ticks_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(kHeartbeatPeriodMs),
                         [this] { return stop_; })) {
      lock.unlock();
      int64_t start = NowNs();
      d_.Tick();
      ticks_.push_back({SpanKind::kTick, 0, 0, start, NowNs()});
      lock.lock();
    }
  }

  Deployment& d_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Span> ticks_;
  std::thread thread_;
};

// --- Namespace load ----------------------------------------------------------

// Runs fn(i) for i in [0, n) on kLoaders threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoaders; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < n; i += kLoaders) fn(i);
    });
  }
  for (auto& th : threads) th.join();
}

// Loads the plan through fs::Client. Every loader goes to namenode 0, so
// datanode picks never run on two namenodes at once.
std::vector<std::string> LoadNamespace(const NamespacePlan& plan, Deployment& d) {
  std::mutex mu;
  std::vector<std::string> errors;
  auto fail = [&](const std::string& what, const hops::Status& st) {
    std::lock_guard<std::mutex> lock(mu);
    if (errors.size() < kMaxErrors) errors.push_back("load " + what + ": " + st.ToString());
  };
  std::vector<std::unique_ptr<FsClient>> loaders;
  for (int t = 0; t < kLoaders; ++t) {
    loaders.push_back(d.Client(0, "loader" + std::to_string(t)));
  }
  // Directories level by level (the plan lists them in that order):
  // parents exist before their children.
  auto depth = [&plan](size_t i) {
    return std::count(plan.dirs[i].begin(), plan.dirs[i].end(), '/');
  };
  size_t begin = 0;
  while (begin < plan.dirs.size()) {
    size_t end = begin;
    while (end < plan.dirs.size() && depth(end) == depth(begin)) ++end;
    ParallelFor(end - begin, [&](size_t i) {
      const std::string& dir = plan.dirs[begin + i];
      hops::Status st = loaders[i % kLoaders]->Mkdirs(dir);
      if (!st.ok()) fail(dir, st);
    });
    begin = end;
  }
  ParallelFor(plan.files.size(), [&](size_t i) {
    FsClient& c = *loaders[i % kLoaders];
    const PlanFile& f = plan.files[i];
    hops::Status st = c.CreateFile(f.path);
    for (int b = 0; st.ok() && b < f.blocks; ++b) {
      auto blk = c.AddBlock(f.path, kBlockBytes);
      st = blk.ok() ? d.PipelineWrite(*blk) : blk.status();
    }
    if (st.ok()) st = c.CompleteFile(f.path);
    if (!st.ok()) fail(f.path, st);
  });
  return errors;
}

// --- Closed-loop client ------------------------------------------------------

struct Inputs {
  const Workload& w;
  const NamespacePlan& plan;
  ZipfPicker files;
  ZipfPicker dirs;
  CdfSampler ops;
  uint64_t seed;
};

class Worker {
 public:
  Worker(int index, const Inputs& in, Deployment& d, SpanLog* spans)
      : index_(index),
        in_(in),
        d_(d),
        spans_(spans),
        nn_(index % kNamenodes),
        // Only clients of namenode 0 add blocks: datanode picks on two
        // namenodes at once can pick one datanode twice (see README).
        writes_blocks_(nn_ == 0),
        client_(d.Client(nn_, "client" + std::to_string(index))),
        rng_(StreamSeed(in.seed, 2, static_cast<uint64_t>(index))) {}

  // Runs n ops; `measured` ones record their latency.
  void Run(int64_t n, bool measured) {
    fs::HandlerPool* pool =
        d_.hops() != nullptr ? d_.hops()->namenodes[static_cast<size_t>(nn_)]->handler_pool()
                             : nullptr;
    for (int64_t i = 0; i < n; ++i) {
      const MixRow& row = in_.w.mix[in_.ops.Sample(rng_)];
      bool on_dir = rng_.Chance(row.dir_fraction);
      uint64_t op_id = (static_cast<uint64_t>(index_ + 1) << 40) | ++op_seq_;
      if (spans_ != nullptr) {
        SetCurrentOp(op_id);
        if (measured && pool != nullptr) {
          queue_depth_sum_ += static_cast<double>(pool->queue_depth());
          ++queue_depth_samples_;
        }
      }
      hops::Status st;
      int64_t start = NowNs();
      Op op = Execute(row.op, on_dir, st);
      int64_t end = NowNs();
      if (spans_ != nullptr) {
        SetCurrentOp(0);
        spans_->Add({SpanKind::kOp, static_cast<uint8_t>(op), op_id, start, end});
      }
      ++attempted_;
      if (!st.ok()) {
        ++failures_[std::string(OpName(op)) + "/" +
                    std::string(hops::StatusCodeName(st.code()))];
      } else if (measured) {
        latency_[static_cast<size_t>(op)].push_back(end - start);
      }
    }
  }

  const ClientModel& model() const { return model_; }
  const std::array<std::vector<int64_t>, kNumOps>& latency() const { return latency_; }
  uint64_t attempted() const { return attempted_; }
  const std::map<std::string, uint64_t>& failures() const { return failures_; }
  const std::vector<std::string>& wrong() const { return wrong_; }
  double queue_depth_sum() const { return queue_depth_sum_; }
  uint64_t queue_depth_samples() const { return queue_depth_samples_; }

 private:
  const PlanFile& PickFile(size_t* index = nullptr) {
    size_t i = in_.files.Sample(rng_);
    if (index != nullptr) *index = i;
    return in_.plan.files[i];
  }
  const std::string& PickDir() { return in_.plan.dirs[in_.dirs.Sample(rng_)]; }
  // Leaf directories keep setattr and content-summary subtrees small.
  const std::string& PickLeafDir() {
    return in_.plan.dirs[in_.plan.leaf_dirs[rng_.Below(in_.plan.leaf_dirs.size())]];
  }
  std::string FreshName() {
    std::string n = "c";
    n += std::to_string(index_);
    n += '_';
    n += std::to_string(fresh_++);
    n += '_';
    n.resize(kNameLength, 'x');
    return n;
  }

  void Wrong(std::string what) {
    if (wrong_.size() < kMaxErrors) wrong_.push_back(std::move(what));
  }
  void Uncertain(const std::string& dir, const std::string& path) {
    model_.uncertain_dirs.insert(dir);
    model_.uncertain_paths.insert(path);
  }
  OwnFile TakeOwnFile(size_t i) {
    OwnFile f = std::move(model_.files[i]);
    if (i + 1 != model_.files.size()) model_.files[i] = std::move(model_.files.back());
    model_.files.pop_back();
    return f;
  }
  // Adds one block and has its datanodes report it.
  hops::Status AddBlock(const std::string& path) {
    auto blk = client_->AddBlock(path, kBlockBytes);
    return blk.ok() ? d_.PipelineWrite(*blk) : blk.status();
  }

  // Runs one op, updates the model and checks the answer; returns the op
  // actually run (ops on own files become creates while the client owns
  // none).
  Op Execute(Op op, bool on_dir, hops::Status& st) {
    if ((op == Op::kAppend || op == Op::kDelete || op == Op::kRename) && model_.files.empty()) {
      op = Op::kCreate;
    }
    switch (op) {
      case Op::kRead: {
        const PlanFile& f = PickFile();
        auto r = client_->Read(f.path);
        st = r.status();
        // set_replication may lower a planned file to 2 replicas.
        if (r.ok()) {
          int64_t locs = d_.block_locations();
          std::string bad = CheckBlocks(f.path, *r, f.blocks, std::min<int64_t>(2, locs), locs);
          if (!bad.empty()) Wrong(bad);
        }
        break;
      }
      case Op::kStat: {
        const std::string& path = on_dir ? PickDir() : PickFile().path;
        auto r = client_->Stat(path);
        st = r.status();
        if (r.ok() && r->is_dir != on_dir) Wrong("stat " + path + ": wrong inode type");
        break;
      }
      case Op::kList: {
        const std::string& path = on_dir ? PickDir() : PickFile().path;
        auto r = client_->List(path);
        st = r.status();
        if (!r.ok()) break;
        if (!on_dir) {
          if (r->size() != 1 || (*r)[0].is_dir) Wrong("list " + path + ": not one file");
          break;
        }
        std::map<std::string, bool> got;
        for (const fs::FileStatus& s : *r) got[s.name] = s.is_dir;
        for (const auto& [name, is_dir] : in_.plan.children.at(path)) {
          auto it = got.find(name);
          if (it == got.end() || it->second != is_dir) {
            Wrong("list " + path + ": planned child " + name + " missing or wrong type");
          }
        }
        break;
      }
      case Op::kContentSummary: {
        const std::string& dir = PickLeafDir();
        auto r = client_->ContentSummaryOf(dir);
        st = r.status();
        if (r.ok() && (r->file_count < kFilesPerDir || r->dir_count < 1)) {
          Wrong("content summary " + dir + ": fewer entries than planned");
        }
        break;
      }
      case Op::kCreate: {
        const std::string& dir = PickDir();
        std::string path = dir + "/" + FreshName();
        st = client_->CreateFile(path);
        if (st.ok() && writes_blocks_) st = AddBlock(path);
        if (st.ok()) st = client_->CompleteFile(path);
        if (st.ok()) {
          model_.files.push_back({path, dir, writes_blocks_ ? 1 : 0});
        } else {
          Uncertain(dir, path);
        }
        break;
      }
      case Op::kAppend: {
        OwnFile& f = model_.files[rng_.Below(model_.files.size())];
        st = client_->Append(f.path);
        if (st.ok() && writes_blocks_) st = AddBlock(f.path);
        if (st.ok()) st = client_->CompleteFile(f.path);
        if (st.ok()) {
          f.blocks += writes_blocks_ ? 1 : 0;
        } else {
          Uncertain(f.dir, f.path);
          TakeOwnFile(static_cast<size_t>(&f - model_.files.data()));
        }
        break;
      }
      case Op::kMkdirs: {
        const std::string& dir = PickDir();
        std::string path = dir + "/" + FreshName();
        st = client_->Mkdirs(path);
        if (st.ok()) {
          model_.dirs.emplace_back(dir, path);
        } else {
          Uncertain(dir, path);
        }
        break;
      }
      case Op::kDelete: {
        OwnFile f = TakeOwnFile(rng_.Below(model_.files.size()));
        st = client_->Delete(f.path, /*recursive=*/false);
        if (st.ok()) {
          model_.gone.push_back(f.path);
        } else {
          Uncertain(f.dir, f.path);
        }
        break;
      }
      case Op::kRename: {
        size_t i = rng_.Below(model_.files.size());
        OwnFile& f = model_.files[i];
        std::string dst = f.dir + "/" + FreshName();
        st = client_->Rename(f.path, dst);
        if (st.ok()) {
          model_.gone.push_back(f.path);
          f.path = dst;
        } else {
          Uncertain(f.dir, f.path);
          Uncertain(f.dir, dst);
          TakeOwnFile(i);
        }
        break;
      }
      case Op::kSetPermission: {
        const std::string& path = on_dir ? PickLeafDir() : PickFile().path;
        st = client_->SetPermission(path, rng_.Chance(0.5) ? 0750 : 0755);
        break;
      }
      case Op::kSetOwner: {
        const std::string& path = on_dir ? PickLeafDir() : PickFile().path;
        std::string owner = "u";
        owner += std::to_string(index_);
        st = client_->SetOwner(path, owner, "users");
        break;
      }
      case Op::kSetReplication: {
        size_t i = 0;
        const PlanFile& f = PickFile(&i);
        uint64_t choices = static_cast<uint64_t>(5 - in_.w.min_set_replication);
        int64_t value = in_.w.min_set_replication + static_cast<int64_t>(rng_.Below(choices));
        st = client_->SetReplication(f.path, value);
        if (st.ok()) {
          auto [it, fresh] = model_.min_replication.emplace(i, value);
          if (!fresh) it->second = std::min(it->second, value);
        } else {
          Uncertain(f.dir, f.path);
        }
        break;
      }
    }
    return op;
  }

  const int index_;
  const Inputs& in_;
  Deployment& d_;
  SpanLog* const spans_;
  const int nn_;
  const bool writes_blocks_;
  std::unique_ptr<FsClient> client_;
  Rng rng_;
  ClientModel model_;
  uint64_t fresh_ = 0;
  uint64_t op_seq_ = 0;
  uint64_t attempted_ = 0;
  std::map<std::string, uint64_t> failures_;
  std::vector<std::string> wrong_;
  std::array<std::vector<int64_t>, kNumOps> latency_;
  double queue_depth_sum_ = 0;
  uint64_t queue_depth_samples_ = 0;
};

// --- One round ---------------------------------------------------------------

struct Round {
  bool traced = false;
  double ops_per_s = 0;
  // Share of the machine's CPU the hypervisor gave to other guests during
  // the round.
  double steal = 0;
  // Diagnostics for the info line: the steal share and the phases' lengths.
  std::map<std::string, double> diagnostics;
  std::map<std::string, double> metrics;  // end-to-end, or per-layer when traced
  uint64_t attempted = 0;
  std::map<std::string, uint64_t> failures;
  std::vector<std::string> errors;
};

void AddEndToEnd(Round& r, double setup_s, double cpu_s, uint64_t ops,
                 const std::vector<Worker*>& workers, Deployment& d) {
  std::vector<int64_t> all, reads, writes;
  for (const Worker* w : workers) {
    for (size_t op = 0; op < kNumOps; ++op) {
      const auto& lat = w->latency()[op];
      all.insert(all.end(), lat.begin(), lat.end());
      auto& side = IsReadOp(static_cast<Op>(op)) ? reads : writes;
      side.insert(side.end(), lat.begin(), lat.end());
    }
  }
  auto& m = r.metrics;
  m["ops_per_s"] = r.ops_per_s;
  m["p50_us"] = Percentile(all, 0.50) / 1e3;
  m["p99_us"] = Percentile(all, 0.99) / 1e3;
  m["read_p50_us"] = Percentile(reads, 0.50) / 1e3;
  m["read_p99_us"] = Percentile(reads, 0.99) / 1e3;
  m["write_p50_us"] = Percentile(writes, 0.50) / 1e3;
  m["write_p99_us"] = Percentile(writes, 0.99) / 1e3;
  m["cpu_us_per_op"] = cpu_s * 1e6 / static_cast<double>(ops);
  m["db_bytes_per_inode"] = d.BytesPerInode();
  m["setup_s"] = setup_s;
}

// Span-derived metrics of the measured window [t0, t1].
void AddSpanMetrics(Round& r, const Workload& w, const std::vector<Span>& spans, int64_t t0,
                    int64_t t1, double ops) {
  std::vector<int64_t> reads, waits, commits;
  std::array<std::vector<int64_t>, kNumOps> by_op;
  std::map<uint64_t, std::vector<const Span*>> txns_of_op;
  std::vector<const Span*> op_spans;
  double txns = 0, txn_ns = 0, drain_ns = 0;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kDrain) drain_ns += static_cast<double>(s.duration_ns());
    if (s.start_ns < t0 || s.start_ns > t1) continue;
    switch (s.kind) {
      case SpanKind::kOp:
        by_op[s.op_type].push_back(s.duration_ns());
        op_spans.push_back(&s);
        break;
      case SpanKind::kTxn:
        txns += 1;
        txn_ns += static_cast<double>(s.duration_ns());
        if (s.op_id != 0) txns_of_op[s.op_id].push_back(&s);
        break;
      case SpanKind::kRead: reads.push_back(s.duration_ns()); break;
      case SpanKind::kWait: waits.push_back(s.duration_ns()); break;
      case SpanKind::kCommit: commits.push_back(s.duration_ns()); break;
      default: break;
    }
  }
  auto& m = r.metrics;
  for (size_t op = 0; op < kNumOps; ++op) {
    m["op." + std::string(kOpNames[op]) + ".p50_us"] = Percentile(by_op[op], 0.5) / 1e3;
  }
  m["kv.txns_per_op"] = txns / ops;
  m["kv.txn_us_per_op"] = txn_ns / 1e3 / ops;
  m["kv.read_call_p50_us"] = Percentile(reads, 0.5) / 1e3;
  m["kv.batch_wait_p50_us"] = Percentile(waits, 0.5) / 1e3;
  m["kv.batch_wait_p99_us"] = Percentile(waits, 0.99) / 1e3;
  m["kv.commit_p50_us"] = Percentile(commits, 0.5) / 1e3;
  m["kv.commit_p99_us"] = Percentile(commits, 0.99) / 1e3;
  m["intent.drain_s"] = drain_ns / 1e9;

  // Inline handlers: an op's transactions run on its own thread, so its kv
  // time is the union of their intervals, which must lie inside the op (so
  // it never exceeds the op's latency). With handler pools they run on
  // handler threads and are not tied to an op; the metric then reads 0.
  double self_ns = 0;
  if (w.num_handlers == 0) {
    for (const Span* op : op_spans) {
      auto it = txns_of_op.find(op->op_id);
      double covered = 0;
      if (it != txns_of_op.end()) {
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (const Span* t : it->second) {
          if (t->start_ns < op->start_ns || t->end_ns > op->end_ns) {
            if (r.errors.size() < kMaxErrors) {
              r.errors.push_back("kv span outside its op " +
                                 std::string(OpName(static_cast<Op>(op->op_type))));
            }
          }
          iv.emplace_back(t->start_ns, t->end_ns);
        }
        std::sort(iv.begin(), iv.end());
        int64_t cur_s = iv[0].first, cur_e = iv[0].second;
        for (size_t i = 1; i < iv.size(); ++i) {
          if (iv[i].first > cur_e) {
            covered += static_cast<double>(cur_e - cur_s);
            cur_s = iv[i].first;
          }
          cur_e = std::max(cur_e, iv[i].second);
        }
        covered += static_cast<double>(cur_e - cur_s);
      }
      self_ns += static_cast<double>(op->duration_ns()) - covered;
    }
  }
  m["namenode.self_us_per_op"] = w.num_handlers == 0 ? self_ns / 1e3 / ops : 0;
}

void AddCounterMetrics(Round& r, const Counters& a, const Counters& b, double ops,
                       double queue_depth_mean, const std::vector<Span>& ticks, int64_t t0,
                       int64_t t1, const HopsParts& h) {
#define PB_DELTA(field) static_cast<double>(b.field - a.field)
  auto& m = r.metrics;
  m["handler_pool.queue_depth_mean"] = queue_depth_mean;
  m["handler_pool.requests_per_op"] = PB_DELTA(handler_served) / ops;

  double lookups = PB_DELTA(hint.hits) + PB_DELTA(hint.misses);
  m["hint.hit_rate"] = Ratio(PB_DELTA(hint.hits), lookups);
  m["hint.lookups_per_op"] = lookups / ops;
  m["hint.evictions_per_op"] = PB_DELTA(hint.evictions) / ops;
  m["hint.entries_invalidated_per_op"] = PB_DELTA(hint.entries_invalidated) / ops;
  m["hint.stale_put_rejections"] = PB_DELTA(hint.stale_put_rejections);

  m["hintlog.publish_events_per_op"] = PB_DELTA(publish_events) / ops;
  m["hintlog.coalesced_ratio"] =
      Ratio(PB_DELTA(publish_coalesced), PB_DELTA(publish_events) + PB_DELTA(publish_coalesced));
  m["hintlog.proactive_applied_per_op"] = PB_DELTA(proactive) / ops;
  m["hintlog.gc_acked_reaps"] = PB_DELTA(gc_acked);
  m["hintlog.gc_ttl_reaps"] = PB_DELTA(gc_ttl);
  std::vector<int64_t> tick_ns;
  for (const Span& s : ticks) {
    if (s.start_ns >= t0 && s.start_ns <= t1) tick_ns.push_back(s.duration_ns());
  }
  m["heartbeat.tick_p50_us"] = Percentile(tick_ns, 0.5) / 1e3;
  m["heartbeat.tick_max_us"] = Percentile(tick_ns, 1.0) / 1e3;

  m["intent.ack_mean_us"] = Ratio(PB_DELTA(intent.ack_latency_us), PB_DELTA(intent.acked_ops));
  m["intent.apply_mean_us"] =
      Ratio(PB_DELTA(intent.apply_latency_us), PB_DELTA(intent.intents_applied));
  m["intent.coalesced_ratio"] =
      Ratio(PB_DELTA(intent.intents_coalesced), PB_DELTA(intent.intents_appended));
  m["intent.covering_waits_per_op"] = PB_DELTA(intent.covering_waits) / ops;
  m["intent.apply_failures"] = PB_DELTA(intent.apply_failures);

  double trips = PB_DELTA(db.round_trips) + PB_DELTA(db.overlapped_round_trips);
  m["kv.round_trips_per_op"] = PB_DELTA(db.round_trips) / ops;
  m["kv.overlap_ratio"] = Ratio(PB_DELTA(db.overlapped_round_trips), trips);
  m["kv.cross_tx_overlap_ratio"] = Ratio(PB_DELTA(db.cross_tx_overlapped_round_trips), trips);
  m["kv.rows_read_per_op"] = PB_DELTA(db.rows_read) / ops;
  m["kv.rows_written_per_op"] = PB_DELTA(db.rows_written) / ops;
  m["kv.commits_per_op"] = PB_DELTA(db.commits) / ops;
  m["kv.aborts_per_op"] = PB_DELTA(db.aborts) / ops;
  m["kv.batch_reads_per_op"] = PB_DELTA(db.batch_reads) / ops;
  m["kv.scans_per_op"] =
      (PB_DELTA(db.ppis_scans) + PB_DELTA(db.index_scans) + PB_DELTA(db.full_table_scans)) / ops;
  m["kv.full_table_scans"] = PB_DELTA(db.full_table_scans);

  m["ndb.lock_waits_per_op"] = PB_DELTA(db.lock_waits) / ops;
  m["ndb.lock_timeouts"] = PB_DELTA(db.lock_timeouts);
  m["ndb.mux_rounds_per_op"] = PB_DELTA(db.mux_rounds) / ops;
  m["ndb.windows_per_mux_round"] = Ratio(PB_DELTA(db.mux_windows), PB_DELTA(db.mux_rounds));
  m["ndb.gathered_per_gather_wait"] =
      Ratio(PB_DELTA(db.mux_gathered_windows), PB_DELTA(db.mux_gather_waits));

  m["occ.conflicts_per_op"] = PB_DELTA(db.occ_conflicts) / ops;
  m["occ.key_conflicts"] = PB_DELTA(db.occ_key_conflicts);
  m["occ.range_conflicts"] = PB_DELTA(db.occ_range_conflicts);
  m["occ.validation_success_ratio"] =
      h.db->kind() == kv::EngineKind::kOcc
          ? Ratio(PB_DELTA(db.commits), PB_DELTA(db.commits) + PB_DELTA(db.occ_conflicts))
          : 0;
#undef PB_DELTA

  const fs::MetadataSchema& s = *h.schema;
  double rows = 0;
  for (kv::TableId t : {s.inodes, s.blocks, s.replicas, s.urb, s.prb, s.cr, s.ruc, s.er, s.inv,
                        s.leases, s.quotas, s.block_lookup, s.active_subtree_ops, s.leader,
                        s.variables, s.hint_invalidations, s.hint_heads, s.hint_acks,
                        s.op_intents, s.intent_heads}) {
    rows += static_cast<double>(h.db->TableRowCount(t));
  }
  m["db.rows_per_inode"] = rows / static_cast<double>(h.db->TableRowCount(s.inodes));
  m["db.hintlog_rows_end"] = static_cast<double>(h.db->TableRowCount(s.hint_invalidations));
}

Round RunRound(const Inputs& in, size_t cache_capacity, bool traced, bool hdfs) {
  Round r;
  r.traced = traced;
  std::unique_ptr<SpanLog> spans = traced ? std::make_unique<SpanLog>() : nullptr;
  auto [host0, steal0] = HostTicks();
  int64_t setup_start = NowNs();
  hops::Result<std::unique_ptr<Deployment>> deployed =
      hdfs ? hops::Result<std::unique_ptr<Deployment>>(DeployHdfs())
           : Deploy(in.w, cache_capacity, spans.get());
  if (!deployed.ok()) {
    r.errors.push_back("cluster start: " + deployed.status().ToString());
    return r;
  }
  Deployment& d = **deployed;
  Ticker ticker(d);
  int64_t load_start = NowNs();
  r.errors = LoadNamespace(in.plan, d);
  if (!r.errors.empty()) return r;
  int64_t warmup_start = NowNs();
  r.diagnostics["start_s"] = static_cast<double>(load_start - setup_start) / 1e9;
  r.diagnostics["load_s"] = static_cast<double>(warmup_start - load_start) / 1e9;

  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<Worker*> worker_ptrs;
  for (int c = 0; c < kClients; ++c) {
    workers.push_back(std::make_unique<Worker>(c, in, d, spans.get()));
    worker_ptrs.push_back(workers.back().get());
  }
  std::latch warmed(kClients);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (Worker* w : worker_ptrs) {
    threads.emplace_back([&, w] {
      w->Run(in.w.warmup_per_client, /*measured=*/false);
      warmed.count_down();
      go.wait();
      w->Run(in.w.ops_per_client, /*measured=*/true);
    });
  }
  warmed.wait();
  double setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  r.diagnostics["warmup_s"] = static_cast<double>(NowNs() - warmup_start) / 1e9;

  const HopsParts* parts = d.hops();
  Counters before = parts != nullptr ? Snapshot(*parts) : Counters{};
  double cpu0 = CpuSeconds();
  int64_t t0 = NowNs();
  go.count_down();
  for (auto& t : threads) t.join();
  int64_t drain_start = NowNs();
  d.Drain();
  int64_t t1 = NowNs();
  double cpu_s = CpuSeconds() - cpu0;
  Counters after = parts != nullptr ? Snapshot(*parts) : Counters{};
  if (spans) spans->Add({SpanKind::kDrain, 0, 0, drain_start, t1});
  ticker.Stop();
  d.Tick();  // the final heartbeat

  uint64_t ops = static_cast<uint64_t>(kClients * in.w.ops_per_client);
  double wall_s = static_cast<double>(t1 - t0) / 1e9;
  r.ops_per_s = static_cast<double>(ops) / wall_s;
  double depth_sum = 0, depth_samples = 0;
  std::vector<ClientModel> models;
  for (const Worker* w : worker_ptrs) {
    r.attempted += w->attempted();
    for (const auto& [k, n] : w->failures()) r.failures[k] += n;
    for (const std::string& e : w->wrong()) {
      if (r.errors.size() < kMaxErrors) r.errors.push_back(e);
    }
    depth_sum += w->queue_depth_sum();
    depth_samples += static_cast<double>(w->queue_depth_samples());
    models.push_back(w->model());
  }

  if (traced) {
    AddCounterMetrics(r, before, after, static_cast<double>(ops), Ratio(depth_sum, depth_samples),
                      ticker.ticks(), t0, t1, *parts);
    AddSpanMetrics(r, in.w, spans->Collect(), t0, t1, static_cast<double>(ops));
  } else {
    AddEndToEnd(r, setup_s, cpu_s, ops, worker_ptrs, d);
  }
  r.diagnostics["measure_s"] = wall_s;

  int64_t verify_start = NowNs();
  std::unique_ptr<FsClient> checker = d.Client(-1, "checker");
  for (std::string& e : VerifyCluster(in.plan, models, *checker, d)) {
    if (r.errors.size() < kMaxErrors) r.errors.push_back(std::move(e));
  }
  r.diagnostics["verify_s"] = static_cast<double>(NowNs() - verify_start) / 1e9;
  auto [host1, steal1] = HostTicks();
  r.steal = Ratio(steal1 - steal0, host1 - host0);
  r.diagnostics["host_steal_share"] = r.steal;
  return r;
}

}  // namespace

RunOutput Run(const RunConfig& config) {
  const Workload& w = *config.workload;
  NamespacePlan plan = MakePlan(w.base, StreamSeed(config.seed, 1, 0));
  std::vector<double> weights;
  for (const MixRow& row : w.mix) weights.push_back(row.pct);
  Inputs in{w,
            plan,
            ZipfPicker(plan.files.size(), kZipfExponent, StreamSeed(config.seed, 3, 0)),
            ZipfPicker(plan.dirs.size(), kZipfExponent, StreamSeed(config.seed, 3, 1)),
            CdfSampler(weights),
            config.seed};
  size_t capacity = static_cast<size_t>(w.cache_share * static_cast<double>(plan.num_inodes()));

  // Untraced rounds only, or untraced and traced alternating. A round is
  // quiet when the hypervisor took at most kQuietSteal of the machine's CPU
  // during it: stolen CPU stretches every thread hand-off and inflates CPU
  // per op (1.5x at a 0.25 share on spotify). Rounds go on until the
  // budget is spent and three rounds of the reported kind were quiet, or
  // twice the budget is spent; the metrics are medians over the quiet
  // rounds, or over all of them when none was quiet.
  constexpr int kMinRounds = 3;
  constexpr double kQuietSteal = 0.02;
  constexpr double kRunLimitS = 120;
  RunOutput out;
  std::vector<Round> rounds;
  int quiet = 0;
  int64_t run_start = NowNs();
  for (int i = 0;; ++i) {
    bool traced = config.trace && i % 2 == 1;
    Round r = RunRound(in, capacity, traced, config.hdfs);
    if (traced == config.trace && r.steal <= kQuietSteal) ++quiet;
    out.attempted += r.attempted;
    for (const auto& [k, n] : r.failures) {
      out.failures[k] += n;
      out.failed += n;
    }
    for (const std::string& e : r.errors) {
      if (out.errors.size() < kMaxErrors) out.errors.push_back(e);
    }
    rounds.push_back(std::move(r));
    if (!out.errors.empty()) break;
    // A round measures its set-up as well as its ops, so its whole time
    // counts against the budget.
    double elapsed_s = static_cast<double>(NowNs() - run_start) / 1e9;
    bool enough = i + 1 >= kMinRounds && elapsed_s >= config.seconds &&
                  (quiet >= kMinRounds || elapsed_s >= 2 * config.seconds);
    if (enough || (i + 1 >= kMinRounds - 1 && elapsed_s > kRunLimitS)) break;
  }
  out.correct = out.errors.empty();

  std::map<std::string, std::vector<double>> values;
  std::vector<double> untraced_tput, traced_tput;
  for (const Round& r : rounds) {
    bool counted = quiet == 0 || r.steal <= kQuietSteal;
    if (r.traced == config.trace) {
      out.rounds.push_back(r.metrics);
      out.rounds.back().insert(r.diagnostics.begin(), r.diagnostics.end());
      out.rounds.back()["counted"] = counted ? 1 : 0;
    }
    if (!counted) continue;
    (r.traced ? traced_tput : untraced_tput).push_back(r.ops_per_s);
    if (r.traced != config.trace) continue;
    for (const auto& [k, v] : r.metrics) values[k].push_back(v);
  }
  for (const auto& [k, v] : values) out.metrics[k] = Median(v);
  if (config.trace && !traced_tput.empty() && !untraced_tput.empty()) {
    out.metrics["trace.overhead_ratio"] = Median(traced_tput) / Median(untraced_tput);
  }
  return out;
}

}  // namespace perfbench
