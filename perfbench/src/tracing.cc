#include "tracing.h"

#include <functional>
#include <thread>

namespace perfbench {

namespace kv = hops::kv;

namespace {

thread_local uint64_t t_current_op = 0;

// Runs `fn`, recording its duration as a span of `kind`.
template <typename Fn>
auto Timed(SpanLog* log, SpanKind kind, uint64_t op_id, Fn&& fn) {
  int64_t start = NowNs();
  auto result = fn();
  log->Add({kind, 0, op_id, start, NowNs()});
  return result;
}

class TracedTxn final : public kv::Txn {
 public:
  TracedTxn(std::unique_ptr<kv::Txn> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log), op_id_(CurrentOp()), begin_ns_(NowNs()) {}
  ~TracedTxn() override { End(); }

  kv::TxId id() const override { return inner_->id(); }
  uint32_t coordinator() const override { return inner_->coordinator(); }

  hops::Result<kv::Row> Read(kv::TableId table, const kv::Key& key, kv::LockMode mode,
                             std::optional<uint64_t> pv) override {
    return Timed(log_, SpanKind::kRead, op_id_,
                 [&] { return inner_->Read(table, key, mode, pv); });
  }
  hops::Result<std::vector<std::optional<kv::Row>>> BatchRead(
      kv::TableId table, const std::vector<kv::Key>& keys, kv::LockMode mode,
      const std::vector<uint64_t>* pvs) override {
    return Timed(log_, SpanKind::kRead, op_id_,
                 [&] { return inner_->BatchRead(table, keys, mode, pvs); });
  }
  hops::Status Insert(kv::TableId table, kv::Row row, std::optional<uint64_t> pv) override {
    return inner_->Insert(table, std::move(row), pv);
  }
  hops::Status Update(kv::TableId table, kv::Row row, std::optional<uint64_t> pv) override {
    return inner_->Update(table, std::move(row), pv);
  }
  hops::Status Write(kv::TableId table, kv::Row row, std::optional<uint64_t> pv) override {
    return inner_->Write(table, std::move(row), pv);
  }
  hops::Status Delete(kv::TableId table, const kv::Key& key,
                      std::optional<uint64_t> pv) override {
    return inner_->Delete(table, key, pv);
  }

  size_t InFlightBatches() const override { return inner_->InFlightBatches(); }
  hops::Status FlushPending() override {
    return Timed(log_, SpanKind::kWait, op_id_, [&] { return inner_->FlushPending(); });
  }
  void UnlockRow(kv::TableId table, const kv::Key& key, std::optional<uint64_t> pv) override {
    inner_->UnlockRow(table, key, pv);
  }

  hops::Result<std::vector<kv::Row>> Ppis(kv::TableId table, const kv::Key& prefix,
                                          const kv::ScanOptions& opts,
                                          std::optional<uint64_t> pv) override {
    return Timed(log_, SpanKind::kScan, op_id_,
                 [&] { return inner_->Ppis(table, prefix, opts, pv); });
  }
  hops::Result<std::vector<kv::Row>> IndexScan(kv::TableId table, const kv::Key& prefix,
                                               const kv::ScanOptions& opts) override {
    return Timed(log_, SpanKind::kScan, op_id_,
                 [&] { return inner_->IndexScan(table, prefix, opts); });
  }
  hops::Result<std::vector<kv::Row>> FullTableScan(kv::TableId table,
                                                   const kv::ScanOptions& opts) override {
    return Timed(log_, SpanKind::kScan, op_id_,
                 [&] { return inner_->FullTableScan(table, opts); });
  }

  hops::Status Commit() override {
    hops::Status st =
        Timed(log_, SpanKind::kCommit, op_id_, [&] { return inner_->Commit(); });
    End();
    return st;
  }
  void Abort() override {
    inner_->Abort();
    End();
  }
  bool active() const override { return inner_->active(); }

  void EnableTrace() override { inner_->EnableTrace(); }
  const kv::CostTrace& trace() const override { return inner_->trace(); }
  void SetBackground(bool background) override { inner_->SetBackground(background); }
  void SetLatencySensitive(bool v) override { inner_->SetLatencySensitive(v); }

 private:
  // Batches go through the inner transaction's public async API; the
  // handles are kept here and resolved by index.
  uint64_t PrepareAsync(kv::ReadBatch* read, kv::WriteBatch* write) override {
    pending_.push_back(read != nullptr ? inner_->ExecuteAsync(*read)
                                       : inner_->ExecuteAsync(*write));
    return pending_.size() - 1;
  }
  hops::Status WaitBatch(uint64_t seq) override {
    return Timed(log_, SpanKind::kWait, op_id_, [&] { return pending_[seq].Wait(); });
  }
  bool BatchDone(uint64_t seq) const override { return pending_[seq].done(); }

  void End() {
    if (ended_) return;
    ended_ = true;
    log_->Add({SpanKind::kTxn, 0, op_id_, begin_ns_, NowNs()});
  }

  std::unique_ptr<kv::Txn> inner_;
  SpanLog* const log_;
  const uint64_t op_id_;
  const int64_t begin_ns_;
  bool ended_ = false;
  std::vector<kv::Pending> pending_;
};

class TracedEngine final : public kv::Engine {
 public:
  TracedEngine(std::unique_ptr<kv::Engine> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  kv::EngineKind kind() const override { return inner_->kind(); }
  hops::Result<kv::TableId> CreateTable(kv::Schema schema) override {
    return inner_->CreateTable(std::move(schema));
  }
  const kv::Schema& schema(kv::TableId table) const override { return inner_->schema(table); }
  std::optional<kv::TableId> FindTable(std::string_view name) const override {
    return inner_->FindTable(name);
  }
  std::unique_ptr<kv::Txn> Begin(std::optional<kv::TxHint> hint) override {
    return std::make_unique<TracedTxn>(inner_->Begin(hint), log_);
  }

  kv::FaultInjector& fault_injector() override { return inner_->fault_injector(); }
  void KillDatanode(uint32_t node) override { inner_->KillDatanode(node); }
  void RestartDatanode(uint32_t node) override { inner_->RestartDatanode(node); }
  bool IsAlive(uint32_t node) const override { return inner_->IsAlive(node); }
  uint32_t NumAliveNodes() const override { return inner_->NumAliveNodes(); }
  bool Available() const override { return inner_->Available(); }

  const kv::EngineConfig& config() const override { return inner_->config(); }
  uint32_t num_datanodes() const override { return inner_->num_datanodes(); }
  uint32_t num_partitions() const override { return inner_->num_partitions(); }
  uint32_t num_node_groups() const override { return inner_->num_node_groups(); }
  uint32_t PartitionForValue(uint64_t pv) const override {
    return inner_->PartitionForValue(pv);
  }
  std::optional<uint32_t> PrimaryNode(uint32_t partition) const override {
    return inner_->PrimaryNode(partition);
  }

  kv::ClusterStats StatsSnapshot() const override { return inner_->StatsSnapshot(); }
  void ResetStats() override { inner_->ResetStats(); }
  size_t TableRowCount(kv::TableId table) const override { return inner_->TableRowCount(table); }
  size_t TotalMemoryBytes() const override { return inner_->TotalMemoryBytes(); }
  size_t TableMemoryBytes(kv::TableId table) const override {
    return inner_->TableMemoryBytes(table);
  }
  uint64_t GlobalCheckpointEpoch() const override { return inner_->GlobalCheckpointEpoch(); }

 private:
  std::unique_ptr<kv::Engine> inner_;
  SpanLog* const log_;
};

}  // namespace

void SpanLog::Add(const Span& span) {
  Shard& shard = shards_[std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                         shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.spans.push_back(span);
}

std::vector<Span> SpanLog::Collect() const {
  std::vector<Span> all;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    all.insert(all.end(), shard.spans.begin(), shard.spans.end());
  }
  return all;
}

void SetCurrentOp(uint64_t op_id) { t_current_op = op_id; }
uint64_t CurrentOp() { return t_current_op; }

std::unique_ptr<kv::Engine> MakeTracedEngine(std::unique_ptr<kv::Engine> inner, SpanLog* log) {
  return std::make_unique<TracedEngine>(std::move(inner), log);
}

}  // namespace perfbench
