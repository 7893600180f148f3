// Figure 6: HopsFS and HDFS throughput for the Spotify workload.
// Sweeps namenode count for NDB cluster sizes {2,4,8,12}, plus the
// 12-node-NDB hotspot variant (every path under /shared-dir, §7.2.1) and
// the HDFS baseline. Series shapes to compare with the paper: linear
// scaling in namenodes until the NDB cluster saturates; the 2-node curve
// flattens earliest; the hotspot curve is bounded by a single shard but
// still beats HDFS; HDFS is flat regardless of offered load.
//
// Also runs the inode hint-cache ablation (§5.1): the same closed loop on a
// real MiniCluster with the trie cache plus proactive invalidation-log
// draining, and with the cache disabled -- reporting throughput, database
// round trips per op, and the cache counters.
#include <atomic>
#include <cstdlib>
#include <thread>

#include "bench_common.h"

namespace {

void RunHintCacheAblation(const hops::wl::OpMix& mix, hops::bench::BenchJson& json) {
  using namespace hops;
  const bool full = std::getenv("HOPS_BENCH_FULL") != nullptr;
  const int64_t files = full ? 4000 : 800;
  const int threads = 4;
  const int64_t ops_per_thread = full ? 2500 : 500;

  std::printf("\n# hint-cache ablation (real 3-NN MiniCluster, closed loop)\n");
  std::printf("%-10s %10s %12s %9s %12s %12s %12s\n", "cache", "ops/sec", "trips/op",
              "hit-rate", "invalidated", "proactive", "stale-puts");

  struct Cfg {
    const char* label;
    size_t capacity;
  };
  for (const Cfg& cfg : {Cfg{"proactive", size_t{1} << 20}, Cfg{"off", 0}}) {
    fs::MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.num_namenodes = 3;
    options.num_datanodes = 3;
    options.fs.hint_cache_capacity = cfg.capacity;
    auto cluster = *fs::MiniCluster::Start(options);
    wl::NamespaceShape shape;
    auto ns = wl::PlanNamespace(shape, files, 11);
    wl::BulkLoader loader(&cluster->db(), &cluster->schema(), &cluster->fs_config());
    if (!loader.Load(ns, 1.3, 0, 11).ok()) std::abort();
    cluster->db().ResetStats();

    // The heartbeat ticker is what drains the invalidation log mid-run.
    std::atomic<bool> stop{false};
    std::thread ticker([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        cluster->TickHeartbeats();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    wl::DriverOptions dopts;
    dopts.num_threads = threads;
    dopts.ops_per_thread = ops_per_thread;
    dopts.seed = 11;
    auto report = wl::RunDriver(
        [&](int t) {
          return wl::MakeHopsAdapter(
              cluster->NewClient(fs::NamenodePolicy::kRoundRobin,
                                 "ablate" + std::to_string(t),
                                 70 + static_cast<uint64_t>(t)));
        },
        ns, mix, dopts);
    stop.store(true);
    ticker.join();
    wl::FillHintStats(*cluster, report);

    auto db = cluster->db().StatsSnapshot();
    const auto& hint = *report.hint_stats;
    std::printf("%-10s %10.0f %12.2f %8.1f%% %12llu %12llu %12llu\n", cfg.label,
                report.ops_per_second,
                report.ops > 0 ? static_cast<double>(db.round_trips) /
                                     static_cast<double>(report.ops)
                               : 0.0,
                100.0 * hint.HitRate(),
                static_cast<unsigned long long>(hint.cache.entries_invalidated),
                static_cast<unsigned long long>(hint.proactive_applied),
                static_cast<unsigned long long>(hint.cache.stale_put_rejections));
    std::fflush(stdout);
    std::string prefix = std::string("ablation_") + cfg.label + "_";
    json.Metric(prefix + "ops_per_sec", report.ops_per_second);
    json.Metric(prefix + "trips_per_op",
                report.ops > 0 ? static_cast<double>(db.round_trips) /
                                     static_cast<double>(report.ops)
                               : 0.0);
    json.Metric(prefix + "hit_rate", hint.HitRate());
    json.Metric(prefix + "proactive_applied",
                static_cast<double>(hint.proactive_applied));
    json.Metric(prefix + "publish_events", static_cast<double>(hint.publish_events));
    json.Metric(prefix + "publish_ops_coalesced",
                static_cast<double>(hint.publish_ops_coalesced));
    json.Metric(prefix + "gc_acked_reaps", static_cast<double>(hint.gc_acked_reaps));
  }
}

}  // namespace

int main() {
  using namespace hops;
  auto mix = wl::OpMix::Spotify();

  std::printf("# Figure 6: Spotify-workload throughput (ops/sec)\n");
  std::printf("# capturing traces (uniform namespace)...\n");
  auto uniform = bench::MakeCapture(mix);
  std::printf("# capturing traces (hotspot namespace under /shared-dir)...\n");
  auto hotspot = bench::MakeCapture(mix, 8000, 32, 16, "/shared-dir");

  const std::vector<int> nn_counts = {1, 5, 10, 20, 30, 45, 60};
  const std::vector<int> ndb_sizes = {2, 4, 8, 12};

  std::printf("\n%-10s", "namenodes");
  for (int ndb : ndb_sizes) std::printf(" %12s", ("ndb" + std::to_string(ndb)).c_str());
  std::printf(" %12s\n", "hotspot12");

  sim::Calibration cal;
  bench::BenchJson json("fig06_spotify_throughput");
  for (int nn : nn_counts) {
    std::printf("%-10d", nn);
    for (int ndb : ndb_sizes) {
      sim::WorkloadSpec spec;
      spec.mix = &mix;
      spec.traces = &uniform.pools;
      spec.num_clients = bench::SaturatingClients(nn);
      spec.duration_s = 0.12;
      spec.warmup_s = 0.04;
      auto r = sim::SimulateHopsFs(sim::HopsTopology{nn, ndb}, spec, cal);
      std::printf(" %12.0f", r.ops_per_sec);
      json.Metric("nn" + std::to_string(nn) + "_ndb" + std::to_string(ndb) +
                      "_ops_per_sec",
                  r.ops_per_sec);
    }
    {
      sim::WorkloadSpec spec;
      spec.mix = &mix;
      spec.traces = &hotspot.pools;
      spec.num_clients = bench::SaturatingClients(nn);
      spec.duration_s = 0.12;
      spec.warmup_s = 0.04;
      auto r = sim::SimulateHopsFs(sim::HopsTopology{nn, 12}, spec, cal);
      std::printf(" %12.0f", r.ops_per_sec);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  sim::WorkloadSpec hdfs_spec;
  hdfs_spec.mix = &mix;
  hdfs_spec.num_clients = 512;
  hdfs_spec.duration_s = 0.3;
  hdfs_spec.warmup_s = 0.05;
  auto hdfs = sim::SimulateHdfs(hdfs_spec, cal);
  json.Metric("hdfs_ops_per_sec", hdfs.ops_per_sec);
  std::printf("\nHDFS (5-server HA setup): %.0f ops/sec (paper: 78.9K)\n", hdfs.ops_per_sec);
  std::printf("paper reference points: 60 NN x 12-node NDB = 1.25M ops/sec;\n");
  std::printf("equivalent hardware (3 NN, 2-node NDB) ~ 1.1x HDFS; hotspot ~ 3x HDFS\n");

  {
    sim::WorkloadSpec spec;
    spec.mix = &mix;
    spec.traces = &uniform.pools;
    spec.num_clients = 300;
    spec.duration_s = 0.2;
    spec.warmup_s = 0.05;
    auto r = sim::SimulateHopsFs(sim::HopsTopology{3, 2}, spec, cal);
    std::printf("equivalent-hardware check: HopsFS 3NNx2NDB = %.0f ops/sec (%.2fx HDFS)\n",
                r.ops_per_sec, r.ops_per_sec / hdfs.ops_per_sec);
  }

  RunHintCacheAblation(mix, json);
  return 0;
}
