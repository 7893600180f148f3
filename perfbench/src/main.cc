// perfbench: the live end-to-end metadata benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source-id <id>] [--system hopsfs|hdfs]
//
// --system hdfs drives the in-repo HDFS baseline namesystem with the same
// load (untraced only), for reference figures.
//
// Prints a diagnostic JSON line (provenance, per-round values, failures,
// oracle violations) and, last, the result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::kNumOps;
using perfbench::kOpNames;

using MetricList = std::vector<std::pair<std::string, std::string>>;  // name, unit

// Every end-to-end metric, with whether the result line carries it. The
// result line carries the ones BENCHMARK.json gates: those that hold still
// across the host's CPU-steal phases. Throughput and latency percentiles
// move 2-4x with steal on the ndb engine, so they go to the info line only.
struct EndToEnd {
  std::string name, unit;
  bool gated;
};
std::vector<EndToEnd> EndToEndMetrics() {
  return {{"ops_per_s", "1/s", false},    {"p50_us", "us", false},
          {"p99_us", "us", false},        {"read_p50_us", "us", false},
          {"read_p99_us", "us", false},   {"write_p50_us", "us", false},
          {"write_p99_us", "us", false},  {"cpu_us_per_op", "us", true},
          {"db_bytes_per_inode", "B", true}, {"setup_s", "s", true}};
}

MetricList PerLayerMetrics() {
  MetricList m;
  for (size_t op = 0; op < kNumOps; ++op) {
    m.emplace_back("op." + std::string(kOpNames[op]) + ".p50_us", "us");
  }
  MetricList rest = {
      {"handler_pool.queue_depth_mean", "count"},
      {"handler_pool.requests_per_op", "1/op"},
      {"hint.hit_rate", "ratio"},
      {"hint.lookups_per_op", "1/op"},
      {"hint.evictions_per_op", "1/op"},
      {"hint.entries_invalidated_per_op", "1/op"},
      {"hint.stale_put_rejections", "count"},
      {"hintlog.publish_events_per_op", "1/op"},
      {"hintlog.coalesced_ratio", "ratio"},
      {"hintlog.proactive_applied_per_op", "1/op"},
      {"hintlog.gc_acked_reaps", "count"},
      {"hintlog.gc_ttl_reaps", "count"},
      {"heartbeat.tick_p50_us", "us"},
      {"heartbeat.tick_max_us", "us"},
      {"intent.ack_mean_us", "us"},
      {"intent.apply_mean_us", "us"},
      {"intent.coalesced_ratio", "ratio"},
      {"intent.covering_waits_per_op", "1/op"},
      {"intent.drain_s", "s"},
      {"intent.apply_failures", "count"},
      {"kv.round_trips_per_op", "1/op"},
      {"kv.overlap_ratio", "ratio"},
      {"kv.cross_tx_overlap_ratio", "ratio"},
      {"kv.rows_read_per_op", "1/op"},
      {"kv.rows_written_per_op", "1/op"},
      {"kv.commits_per_op", "1/op"},
      {"kv.aborts_per_op", "1/op"},
      {"kv.batch_reads_per_op", "1/op"},
      {"kv.scans_per_op", "1/op"},
      {"kv.full_table_scans", "count"},
      {"ndb.lock_waits_per_op", "1/op"},
      {"ndb.lock_timeouts", "count"},
      {"ndb.mux_rounds_per_op", "1/op"},
      {"ndb.windows_per_mux_round", "ratio"},
      {"ndb.gathered_per_gather_wait", "ratio"},
      {"occ.conflicts_per_op", "1/op"},
      {"occ.key_conflicts", "count"},
      {"occ.range_conflicts", "count"},
      {"occ.validation_success_ratio", "ratio"},
      {"kv.txns_per_op", "1/op"},
      {"kv.txn_us_per_op", "us"},
      {"kv.read_call_p50_us", "us"},
      {"kv.batch_wait_p50_us", "us"},
      {"kv.batch_wait_p99_us", "us"},
      {"kv.commit_p50_us", "us"},
      {"kv.commit_p99_us", "us"},
      {"namenode.self_us_per_op", "us"},
      {"trace.overhead_ratio", "ratio"},
      {"db.rows_per_inode", "ratio"},
      {"db.hintlog_rows_end", "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--source-id <id>] [--system hopsfs|hdfs]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string workload, source_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace is 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--source-id") {
      source_id = value;
    } else if (flag == "--system") {
      if (value != "hopsfs" && value != "hdfs") return Usage("--system is hopsfs or hdfs");
      config.hdfs = value == "hdfs";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  config.workload = perfbench::FindWorkload(workload);
  if (config.workload == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());
  if (config.hdfs && config.trace) return Usage("the HDFS baseline runs untraced only");
  // Each workload pins its engine; the environment override would silently
  // run another one.
  if (const char* env = std::getenv("HOPS_KV_ENGINE"); env != nullptr && *env != '\0') {
    return Usage("HOPS_KV_ENGINE is set; unset it, each workload pins its engine");
  }

  perfbench::RunOutput out = perfbench::Run(config);

  std::string engine =
      config.hdfs ? "hdfs" : std::string(hops::kv::EngineKindName(config.workload->engine));
  std::string info = "{\"info\": {\"workload\": " + Quote(workload) +
                     ", \"seed\": " + std::to_string(config.seed) +
                     ", \"engine\": " + Quote(engine) +
                     ", \"trace\": " + (config.trace ? "1" : "0") +
                     ", \"source_id\": " + Quote(source_id) +
                     ", \"compiler\": " + Quote(__VERSION__) +
                     ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                     ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                     ", \"rounds\": [";
  for (size_t r = 0; r < out.rounds.size(); ++r) {
    info += r == 0 ? "{" : ", {";
    bool first = true;
    for (const auto& [k, v] : out.rounds[r]) {
      info += (first ? "" : ", ") + Quote(k) + ": " + Number(v);
      first = false;
    }
    info += "}";
  }
  info += "], \"failures\": {";
  bool first = true;
  for (const auto& [k, n] : out.failures) {
    info += (first ? "" : ", ") + Quote(k) + ": " + std::to_string(n);
    first = false;
  }
  info += "}, \"errors\": [";
  for (size_t e = 0; e < out.errors.size(); ++e) {
    info += (e == 0 ? "" : ", ") + Quote(out.errors[e]);
  }
  info += "]";

  // Reported metrics (all of the run's kind), then the gated subset.
  MetricList reported, gated;
  if (config.trace) {
    reported = gated = PerLayerMetrics();
  } else {
    for (const EndToEnd& m : EndToEndMetrics()) {
      reported.emplace_back(m.name, m.unit);
      if (m.gated) gated.emplace_back(m.name, m.unit);
    }
  }
  auto metrics_json = [&out](const MetricList& list) {
    std::string json = "{";
    for (size_t i = 0; i < list.size(); ++i) {
      auto it = out.metrics.find(list[i].first);
      double v = it == out.metrics.end() ? 0 : it->second;
      json += (i == 0 ? "" : ", ") + Quote(list[i].first) + ": {\"value\": " + Number(v) +
              ", \"unit\": " + Quote(list[i].second) + "}";
    }
    return json + "}";
  };
  info += ", \"metrics\": " + metrics_json(reported) + "}}";
  std::printf("%s\n", info.c_str());
  std::string result = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"metrics\": " + metrics_json(gated) + "}";
  std::printf("%s\n", result.c_str());
  return 0;
}
