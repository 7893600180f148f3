// Spans for the traced run: an in-memory span log, and a timing decorator
// of the public kv::Engine / kv::Txn interface that records a span for
// every transaction (Begin to Commit/Abort), point and batch read, scan,
// Pending::Wait and commit. Client ops, heartbeat ticks and the intent
// drain are recorded by the load generator around its own calls.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "kv/kv.h"

namespace perfbench {

enum class SpanKind : uint8_t { kOp, kTxn, kRead, kScan, kWait, kCommit, kTick, kDrain };

struct Span {
  SpanKind kind = SpanKind::kOp;
  uint8_t op_type = 0;  // perfbench::Op of kOp spans
  uint64_t op_id = 0;   // client op the span belongs to; 0 = background
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Thread-safe append-only span store, sharded by thread to keep the
// recording threads off one mutex.
class SpanLog {
 public:
  void Add(const Span& span);
  std::vector<Span> Collect() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<Span> spans;
  };
  std::array<Shard, 16> shards_;
};

// The client op running on the calling thread, set by the load generator
// around each op so that transactions begun inline carry its id.
void SetCurrentOp(uint64_t op_id);
uint64_t CurrentOp();

// Wraps `inner`; every transaction it begins records spans into `log`,
// which must outlive the returned engine and its transactions.
std::unique_ptr<hops::kv::Engine> MakeTracedEngine(std::unique_ptr<hops::kv::Engine> inner,
                                                   SpanLog* log);

}  // namespace perfbench
