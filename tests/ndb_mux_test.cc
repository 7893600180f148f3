// The cross-transaction completion mux: N transactions x M in-flight
// windows combined into shared rounds -- deterministic co-flushing of
// windows from different transactions into one overlapped round trip,
// out-of-order completion, per-transaction read-your-writes isolation,
// sticky error delivery to the right transaction, a crossing-lock-order
// case proving no deadlock across transactions, lock-timeout delivery to a
// deferred window (aborted by its owner, outside the mux), prompt retry
// when a holder commits, and the accounting invariant that round_trips +
// overlapped_round_trips stays the sync-equivalent trip count (no double
// counting when windows merge).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "ndb/mux.h"

namespace hops::ndb {
namespace {

class NdbMuxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(ClusterConfig{
        .num_datanodes = 4,
        .replication = 2,
        .partitions_per_table = 8,
        .lock_wait_timeout = std::chrono::milliseconds(400),
        .max_in_flight_batches = 8,
        .use_completion_mux = true,
    });
    table_ = CreateTable(*cluster_);
  }

  static TableId CreateTable(Cluster& cluster) {
    Schema s;
    s.table_name = "t";
    s.columns = {{"parent", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"id", ColumnType::kInt64}};
    s.primary_key = {0, 1};
    s.partition_key = {0};
    return *cluster.CreateTable(s);
  }

  static void MustInsert(Cluster& cluster, TableId table, int64_t parent,
                         const std::string& name, int64_t id) {
    auto tx = cluster.Begin();
    ASSERT_TRUE(tx->Insert(table, Row{parent, name, id}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }

  void MustInsert(int64_t parent, const std::string& name, int64_t id) {
    MustInsert(*cluster_, table_, parent, name, id);
  }

  // Blocks until `n` submissions are parked on the (paused) mux.
  void AwaitQueued(size_t n) {
    for (int i = 0; i < 4000 && cluster_->mux()->QueuedForTesting() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
    ASSERT_GE(cluster_->mux()->QueuedForTesting(), n);
  }

  std::unique_ptr<Cluster> cluster_;
  TableId table_ = 0;
};

TEST_F(NdbMuxTest, ClusterRunsASharedMuxByDefaultAndItIsSelectable) {
  EXPECT_NE(cluster_->mux(), nullptr);
  Cluster per_tx(ClusterConfig{.num_datanodes = 2,
                               .replication = 1,
                               .use_completion_mux = false});
  EXPECT_EQ(per_tx.mux(), nullptr) << "the per-transaction path stays selectable";
}

TEST_F(NdbMuxTest, SingleWindowThroughTheMuxKeepsPerTransactionAccounting) {
  for (int64_t p = 0; p < 6; ++p) MustInsert(p, "f", p);
  auto tx = cluster_->Begin();
  ReadBatch b1, b2, b3;
  b1.Get(table_, {int64_t{0}, "f"});
  b2.Get(table_, {int64_t{1}, "f"});
  b3.Get(table_, {int64_t{2}, "f"});
  auto before = cluster_->StatsSnapshot();
  auto p1 = tx->ExecuteAsync(b1);
  auto p2 = tx->ExecuteAsync(b2);
  auto p3 = tx->ExecuteAsync(b3);
  ASSERT_TRUE(p1.Wait().ok());
  ASSERT_TRUE(p2.Wait().ok());
  ASSERT_TRUE(p3.Wait().ok());
  auto after = cluster_->StatsSnapshot();
  EXPECT_EQ(after.round_trips - before.round_trips, 1u);
  EXPECT_EQ(after.overlapped_round_trips - before.overlapped_round_trips, 2u);
  EXPECT_EQ(after.cross_tx_overlapped_round_trips - before.cross_tx_overlapped_round_trips, 0u)
      << "one transaction alone saves nothing across transactions";
  EXPECT_EQ(after.mux_windows - before.mux_windows, 1u);
  EXPECT_EQ((*b3.row(0))[2].i64(), 2);
}

// The tentpole scenario: windows from three concurrent transactions parked
// on the paused mux co-flush in ONE deterministic round = one shared round
// trip, with the saving recorded exactly once (satellite: no double
// counting; totals reconcile with the sync-equivalent trip count).
TEST_F(NdbMuxTest, WindowsFromDifferentTransactionsMergeIntoOneTrip) {
  constexpr int kTx = 3, kBatchesPerWindow = 2;
  for (int64_t p = 0; p < 8; ++p) MustInsert(p, "f", p);
  auto before = cluster_->StatsSnapshot();
  cluster_->mux()->SetPausedForTesting(true);
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kTx; ++t) {
    threads.emplace_back([&, t] {
      auto tx = cluster_->Begin();
      tx->EnableTrace();
      std::vector<ReadBatch> batches(kBatchesPerWindow);
      std::vector<PendingBatch> pending;
      for (int b = 0; b < kBatchesPerWindow; ++b) {
        batches[static_cast<size_t>(b)].Get(table_, {int64_t{t * 2 + b}, "f"});
        pending.push_back(tx->ExecuteAsync(batches[static_cast<size_t>(b)]));
      }
      bool all = true;
      for (auto& p : pending) all &= p.Wait().ok();  // parks on the paused mux
      for (int b = 0; b < kBatchesPerWindow; ++b) {
        all &= batches[static_cast<size_t>(b)].row(0).has_value() &&
               (*batches[static_cast<size_t>(b)].row(0))[2].i64() == t * 2 + b;
      }
      all &= tx->Commit().ok();
      // Exactly one of the merged windows carried the shared trip; the
      // others' opening access is marked co-scheduled for the DES model.
      int carried = 0, co_scheduled = 0;
      for (const auto& a : tx->trace().accesses) {
        if (a.kind == AccessKind::kCommit) continue;
        carried += a.round_trips;
        co_scheduled += a.co_scheduled ? 1 : 0;
      }
      if (carried + co_scheduled != 1) all = false;
      if (all) ok.fetch_add(1);
    });
  }
  AwaitQueued(kTx);
  cluster_->mux()->SetPausedForTesting(false);
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kTx);

  auto after = cluster_->StatsSnapshot();
  const uint64_t sync_equivalent = kTx * kBatchesPerWindow;  // one trip per batch, sync
  EXPECT_EQ(after.round_trips - before.round_trips, 1u)
      << "three transactions' windows co-flushed as ONE shared trip";
  EXPECT_EQ(after.overlapped_round_trips - before.overlapped_round_trips,
            sync_equivalent - 1)
      << "the whole round's saving is recorded exactly once";
  EXPECT_EQ((after.round_trips + after.overlapped_round_trips) -
                (before.round_trips + before.overlapped_round_trips),
            sync_equivalent)
      << "totals reconcile: no double counting when windows merge";
  EXPECT_EQ(after.cross_tx_overlapped_round_trips - before.cross_tx_overlapped_round_trips,
            static_cast<uint64_t>(kTx - 1))
      << "two of the three windows would each have paid their own trip";
  EXPECT_EQ(after.mux_rounds - before.mux_rounds, 1u);
  EXPECT_EQ(after.mux_windows - before.mux_windows, static_cast<uint64_t>(kTx));
}

// N transactions x M windows each, free-running: whatever way the rounds
// groups them, every handle resolves correctly and the accounting invariant
// round_trips + overlapped_round_trips == sync-equivalent trips holds.
TEST_F(NdbMuxTest, ManyTransactionsManyWindowsReconcileExactly) {
  constexpr int kTx = 4, kWindows = 3, kBatches = 2;
  for (int64_t p = 0; p < 8; ++p) MustInsert(p, "f", p);
  auto before = cluster_->StatsSnapshot();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTx; ++t) {
    threads.emplace_back([&, t] {
      auto tx = cluster_->Begin();
      for (int w = 0; w < kWindows; ++w) {
        std::vector<ReadBatch> batches(kBatches);
        std::vector<PendingBatch> pending;
        for (int b = 0; b < kBatches; ++b) {
          batches[static_cast<size_t>(b)].Get(table_, {int64_t{(t + w + b) % 8}, "f"});
          pending.push_back(tx->ExecuteAsync(batches[static_cast<size_t>(b)]));
        }
        for (auto& p : pending) {
          if (!p.Wait().ok()) failures.fetch_add(1);
        }
        for (const auto& b : batches) {
          if (!b.row(0).has_value()) failures.fetch_add(1);
        }
      }
      if (!tx->Commit().ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto after = cluster_->StatsSnapshot();
  const uint64_t sync_equivalent = kTx * kWindows * kBatches;
  EXPECT_EQ((after.round_trips + after.overlapped_round_trips) -
                (before.round_trips + before.overlapped_round_trips),
            sync_equivalent);
  EXPECT_LE(after.round_trips - before.round_trips,
            static_cast<uint64_t>(kTx * kWindows));
  EXPECT_EQ(after.lock_timeouts - before.lock_timeouts, 0u);
  EXPECT_EQ(after.mux_windows - before.mux_windows,
            static_cast<uint64_t>(kTx * kWindows));
}

TEST_F(NdbMuxTest, OutOfOrderCompletionThroughTheSharedLoop) {
  MustInsert(1, "f", 10);
  MustInsert(2, "f", 20);
  auto tx = cluster_->Begin();
  ReadBatch first, second;
  first.Get(table_, {int64_t{1}, "f"});
  second.Get(table_, {int64_t{2}, "f"});
  auto p1 = tx->ExecuteAsync(first);
  auto p2 = tx->ExecuteAsync(second);
  ASSERT_TRUE(p2.Wait().ok());  // waiting on the LATER handle first
  EXPECT_TRUE(p1.done()) << "the earlier window member completed in the same round";
  ASSERT_TRUE(p1.Wait().ok());
  EXPECT_EQ((*first.row(0))[2].i64(), 10);
  EXPECT_EQ((*second.row(0))[2].i64(), 20);
}

// Two transactions co-flushed in one round stay isolated: the reader's
// window must see the committed value, never the writer's staged row -- and
// the writer still reads its own write through the same mux.
TEST_F(NdbMuxTest, ReadYourWritesStaysPerTransactionAcrossMergedWindows) {
  MustInsert(7, "shared", 1);
  auto writer = cluster_->Begin();
  auto reader = cluster_->Begin();

  cluster_->mux()->SetPausedForTesting(true);
  WriteBatch wb;
  wb.Write(table_, Row{int64_t{7}, "shared", int64_t{99}});
  ReadBatch rb;
  rb.Get(table_, {int64_t{7}, "shared"});
  std::thread tw([&] {
    auto p = writer->ExecuteAsync(wb);
    ASSERT_TRUE(p.Wait().ok());
  });
  std::thread tr([&] {
    auto p = reader->ExecuteAsync(rb);
    ASSERT_TRUE(p.Wait().ok());
  });
  AwaitQueued(2);
  cluster_->mux()->SetPausedForTesting(false);
  tw.join();
  tr.join();

  ASSERT_TRUE(rb.row(0).has_value());
  EXPECT_EQ((*rb.row(0))[2].i64(), 1)
      << "the reader must see the committed value, not the writer's staged row";
  // The writer observes its own staged write through a later window.
  ReadBatch own;
  own.Get(table_, {int64_t{7}, "shared"});
  ASSERT_TRUE(writer->ExecuteAsync(own).Wait().ok());
  EXPECT_EQ((*own.row(0))[2].i64(), 99);
  ASSERT_TRUE(writer->Commit().ok());
  // After the writer's commit the change is visible to everyone.
  ReadBatch again;
  again.Get(table_, {int64_t{7}, "shared"});
  ASSERT_TRUE(reader->ExecuteAsync(again).Wait().ok());
  EXPECT_EQ((*again.row(0))[2].i64(), 99);
  ASSERT_TRUE(reader->Commit().ok());
}

// A failing window poisons only its own transaction, even when it flushed
// in the same round as a healthy one.
TEST_F(NdbMuxTest, StickyErrorsDeliverToTheRightTransaction) {
  MustInsert(3, "dup", 1);
  MustInsert(4, "f", 4);
  auto bad_tx = cluster_->Begin();
  auto good_tx = cluster_->Begin();

  cluster_->mux()->SetPausedForTesting(true);
  WriteBatch bad;
  bad.Insert(table_, Row{int64_t{3}, "dup", int64_t{9}});  // collides
  ReadBatch good;
  good.Get(table_, {int64_t{4}, "f"});
  hops::Status bad_st, good_st;
  std::thread tb([&] { bad_st = bad_tx->ExecuteAsync(bad).Wait(); });
  std::thread tg([&] { good_st = good_tx->ExecuteAsync(good).Wait(); });
  AwaitQueued(2);
  cluster_->mux()->SetPausedForTesting(false);
  tb.join();
  tg.join();

  EXPECT_EQ(bad_st.code(), hops::StatusCode::kAlreadyExists);
  EXPECT_TRUE(good_st.ok());
  EXPECT_EQ((*good.row(0))[2].i64(), 4);
  // The failure stays sticky on the failing transaction only.
  EXPECT_EQ(bad_tx->Commit().code(), hops::StatusCode::kAlreadyExists);
  EXPECT_TRUE(good_tx->Commit().ok());
}

// Crossing lock order ACROSS transactions: two windows wanting the same
// X-locked rows in opposite staging orders land in one round. The combined
// global-order pass grants one window; the other defers (its fresh locks
// handed back), retries, and completes after the winner commits -- no
// deadlock, no lock timeout.
TEST_F(NdbMuxTest, CrossingLockOrderAcrossTransactionsDoesNotDeadlock) {
  constexpr int kRows = 8;
  for (int64_t i = 0; i < kRows; ++i) MustInsert(i, "f", i);
  auto before = cluster_->StatsSnapshot();
  std::atomic<int> failures{0};
  cluster_->mux()->SetPausedForTesting(true);
  auto worker = [&](bool reversed) {
    auto tx = cluster_->Begin();
    std::vector<ReadBatch> batches(2);
    for (int b = 0; b < 2; ++b) {
      for (int k = 0; k < kRows / 2; ++k) {
        int64_t row = b * (kRows / 2) + k;
        if (reversed) row = kRows - 1 - row;
        batches[static_cast<size_t>(b)].Get(table_, {row, "f"}, LockMode::kExclusive);
      }
    }
    std::vector<PendingBatch> pending;
    for (auto& b : batches) pending.push_back(tx->ExecuteAsync(b));
    bool ok = true;
    for (auto& p : pending) ok &= p.Wait().ok();
    if (!ok || !tx->Commit().ok()) failures.fetch_add(1);
  };
  std::thread t1(worker, false);
  std::thread t2(worker, true);
  AwaitQueued(2);
  cluster_->mux()->SetPausedForTesting(false);
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0) << "crossing windows must serialize, not deadlock";
  auto after = cluster_->StatsSnapshot();
  EXPECT_EQ(after.lock_timeouts - before.lock_timeouts, 0u);
  // Free-running repetition for good measure.
  constexpr int kIters = 20;
  std::thread r1([&] {
    for (int i = 0; i < kIters; ++i) worker(false);
  });
  std::thread r2([&] {
    for (int i = 0; i < kIters; ++i) worker(true);
  });
  r1.join();
  r2.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cluster_->StatsSnapshot().lock_timeouts - before.lock_timeouts, 0u);
}

// A window deferred on a row whose holder never commits times out exactly
// like a blocked per-transaction acquisition: kLockTimeout through the
// handle, the transaction aborted, the holder unharmed.
TEST_F(NdbMuxTest, DeferredWindowTimesOutAndAbortsItsOwnTransaction) {
  MustInsert(5, "held", 1);
  auto holder = cluster_->Begin();
  ASSERT_TRUE(holder->Read(table_, {int64_t{5}, "held"}, LockMode::kExclusive).ok());

  auto before = cluster_->StatsSnapshot();
  auto blocked = cluster_->Begin();
  ReadBatch rb;
  rb.Get(table_, {int64_t{5}, "held"}, LockMode::kExclusive);
  hops::Status st = blocked->ExecuteAsync(rb).Wait();
  EXPECT_EQ(st.code(), hops::StatusCode::kLockTimeout);
  EXPECT_FALSE(blocked->active());
  EXPECT_EQ(cluster_->StatsSnapshot().lock_timeouts - before.lock_timeouts, 1u);
  // The holder is unaffected and can still commit.
  EXPECT_TRUE(holder->Commit().ok());
}

// The owner, not the combiner, aborts a timed-out window's transaction:
// Abort() releases the locks the transaction took in earlier windows and
// re-enters the mux to retry deferred windows, which would deadlock a
// combiner still holding the mux mutex.
TEST_F(NdbMuxTest, DeferredWindowTimesOutWhileHoldingEarlierLocks) {
  MustInsert(5, "mine", 1);
  MustInsert(6, "held", 2);
  auto holder = cluster_->Begin();
  ASSERT_TRUE(holder->Read(table_, {int64_t{6}, "held"}, LockMode::kExclusive).ok());

  auto before = cluster_->StatsSnapshot();
  auto tx = cluster_->Begin();
  ReadBatch earlier;
  earlier.Get(table_, {int64_t{5}, "mine"}, LockMode::kExclusive);
  ASSERT_TRUE(tx->ExecuteAsync(earlier).Wait().ok());
  ReadBatch next;
  next.Get(table_, {int64_t{6}, "held"}, LockMode::kExclusive);
  EXPECT_EQ(tx->ExecuteAsync(next).Wait().code(), hops::StatusCode::kLockTimeout);
  EXPECT_FALSE(tx->active());
  EXPECT_EQ(cluster_->StatsSnapshot().lock_timeouts - before.lock_timeouts, 1u);

  // The earlier window's lock went with the abort: another transaction
  // takes it without waiting out the lock-wait timeout.
  auto other = cluster_->Begin();
  ASSERT_TRUE(other->Read(table_, {int64_t{5}, "mine"}, LockMode::kExclusive).ok());
  ASSERT_TRUE(other->Commit().ok());
  EXPECT_EQ(cluster_->StatsSnapshot().lock_timeouts - before.lock_timeouts, 1u);
  // The blocking holder's commit (which pokes the mux) still returns.
  EXPECT_TRUE(holder->Commit().ok());
}

// A deferred window retries as soon as its holder commits. The retry timer
// here is far longer than the lock-wait timeout, so only the commit's
// wake-up can complete the window in time.
TEST_F(NdbMuxTest, DeferredWindowRetriesPromptlyWhenTheHolderCommits) {
  Cluster cluster(ClusterConfig{
      .num_datanodes = 4,
      .replication = 2,
      .partitions_per_table = 8,
      .lock_wait_timeout = std::chrono::milliseconds(2000),
      .use_completion_mux = true,
      .mux_retry_interval = std::chrono::seconds(60),
  });
  const TableId table = CreateTable(cluster);
  MustInsert(cluster, table, 5, "held", 1);
  auto holder = cluster.Begin();
  ASSERT_TRUE(holder->Read(table, {int64_t{5}, "held"}, LockMode::kExclusive).ok());

  auto before = cluster.StatsSnapshot();
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(holder->Commit().ok());
  });
  auto tx = cluster.Begin();
  ReadBatch rb;
  rb.Get(table, {int64_t{5}, "held"}, LockMode::kExclusive);
  const auto start = std::chrono::steady_clock::now();
  hops::Status st = tx->ExecuteAsync(rb).Wait();
  const auto waited = std::chrono::steady_clock::now() - start;
  committer.join();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_LT(waited, cluster.config().lock_wait_timeout / 2)
      << "the holder's commit must retry the deferred window";
  EXPECT_EQ(cluster.StatsSnapshot().lock_timeouts - before.lock_timeouts, 0u);
  ASSERT_TRUE(tx->Commit().ok());
}

// A deferred window must hold nothing it did not already hold: a
// shared->exclusive upgrade taken in the combined pass is atomically stepped
// back down when the window defers, so other shared readers are not blocked
// behind a window that is itself waiting.
TEST_F(NdbMuxTest, DeferredWindowRollsBackItsSharedToExclusiveUpgrade) {
  // Same parent => same partition; "aa" < "zz" in the encoded-key order, so
  // the combined pass upgrades row "aa" BEFORE hitting the contended "zz".
  MustInsert(9, "aa", 1);
  MustInsert(9, "zz", 2);
  auto holder = cluster_->Begin();  // pins "zz" exclusively, no commit yet
  ASSERT_TRUE(holder->Read(table_, {int64_t{9}, "zz"}, LockMode::kExclusive).ok());

  auto upgrader = cluster_->Begin();
  ASSERT_TRUE(upgrader->Read(table_, {int64_t{9}, "aa"}, LockMode::kShared).ok());
  ReadBatch window;
  window.Get(table_, {int64_t{9}, "aa"}, LockMode::kExclusive);  // upgrade
  window.Get(table_, {int64_t{9}, "zz"}, LockMode::kExclusive);  // contended
  hops::Status window_st;
  std::thread tw([&] { window_st = upgrader->ExecuteAsync(window).Wait(); });
  // Let the window enter the mux and defer (it retries every
  // mux_retry_interval; any of those attempts upgrades then rolls back).
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // A third transaction must still get the SHARED lock on "aa" immediately;
  // a retained upgrade would park it until the lock-wait timeout.
  auto reader = cluster_->Begin();
  auto row = reader->Read(table_, {int64_t{9}, "aa"}, LockMode::kShared);
  ASSERT_TRUE(row.ok()) << "deferred window must not retain its upgrade: "
                        << row.status().ToString();
  EXPECT_EQ((*row)[2].i64(), 1);
  ASSERT_TRUE(reader->Commit().ok());

  ASSERT_TRUE(holder->Commit().ok());  // releases "zz"; the window completes
  tw.join();
  EXPECT_TRUE(window_st.ok()) << window_st.ToString();
  ASSERT_TRUE(upgrader->Commit().ok());
  EXPECT_EQ(cluster_->StatsSnapshot().lock_timeouts, 0u);
}

// Locking scans and staged-order windows bypass the shared mux (their lock
// waits must stay on the submitting thread) but still work alongside it.
TEST_F(NdbMuxTest, LockingScanWindowsFlushOnTheSubmittingThread) {
  for (int64_t i = 0; i < 4; ++i) MustInsert(6, "s" + std::to_string(i), i);
  auto before = cluster_->StatsSnapshot();
  auto tx = cluster_->Begin();
  ReadBatch scan;
  ScanOptions opts;
  opts.lock = LockMode::kShared;
  scan.Scan(table_, {int64_t{6}}, opts);
  ASSERT_TRUE(tx->ExecuteAsync(scan).Wait().ok());
  EXPECT_EQ(scan.rows(0).size(), 4u);
  ASSERT_TRUE(tx->Commit().ok());
  auto after = cluster_->StatsSnapshot();
  EXPECT_EQ(after.mux_windows - before.mux_windows, 0u)
      << "a locking-scan window must not enter the shared mux";
}

// Adaptive gather (ClusterConfig::mux_adaptive_gather): after a round that
// merged windows from several transactions, the next combiner holds the door
// open up to mux_gather_delay for trailing submissions, folding them into the
// same shared trip instead of paying a fresh round.
TEST_F(NdbMuxTest, AdaptiveGatherHoldsTheDoorForTrailingWindows) {
  Cluster cluster(ClusterConfig{
      .num_datanodes = 4,
      .replication = 2,
      .partitions_per_table = 8,
      .lock_wait_timeout = std::chrono::milliseconds(400),
      .use_completion_mux = true,
      .mux_adaptive_gather = true,
      .mux_gather_delay = std::chrono::milliseconds(300),
  });
  const TableId table = CreateTable(cluster);
  for (int64_t p = 0; p < 4; ++p) MustInsert(cluster, table, p, "f", p);
  auto submit_one = [&](int64_t key) {
    auto tx = cluster.Begin();
    ReadBatch b;
    b.Get(table, {key, "f"});
    ASSERT_TRUE(tx->ExecuteAsync(b).Wait().ok());
    ASSERT_TRUE(tx->Commit().ok());
  };
  // Round 1, staged via the pause hook: two transactions' windows co-flush,
  // arming the mux's merged-recently signal. No gather happens yet (the
  // signal was off when the round started).
  cluster.mux()->SetPausedForTesting(true);
  std::thread t1([&] { submit_one(0); });
  std::thread t2([&] { submit_one(1); });
  for (int i = 0; i < 4000 && cluster.mux()->QueuedForTesting() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  ASSERT_GE(cluster.mux()->QueuedForTesting(), 2u);
  cluster.mux()->SetPausedForTesting(false);
  t1.join();
  t2.join();
  // Round 2: one window arrives, its combiner gathers, and a second window
  // submitted well inside the gather delay rides the same shared trip.
  auto before = cluster.StatsSnapshot();
  std::thread t3([&] { submit_one(2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread t4([&] { submit_one(3); });
  t3.join();
  t4.join();
  auto after = cluster.StatsSnapshot();
  EXPECT_GE(after.mux_gather_waits - before.mux_gather_waits, 1u)
      << "the combiner must have held the door after the merged round";
  EXPECT_GE(after.mux_gathered_windows - before.mux_gathered_windows, 1u)
      << "the trailing window must have arrived during the gather wait";
  EXPECT_EQ(after.cross_tx_overlapped_round_trips - before.cross_tx_overlapped_round_trips,
            1u)
      << "the gathered window's trip merged into the shared flush";
  EXPECT_EQ((after.round_trips + after.overlapped_round_trips) -
                (before.round_trips + before.overlapped_round_trips),
            2u)
      << "accounting invariant: sync-equivalent trips, gathered or not";
}

TEST_F(NdbMuxTest, AdaptiveGatherIsOffByDefault) {
  for (int64_t p = 0; p < 4; ++p) MustInsert(p, "f", p);
  // Force a merged round (which would arm the gather if it were enabled)...
  cluster_->mux()->SetPausedForTesting(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      auto tx = cluster_->Begin();
      ReadBatch b;
      b.Get(table_, {int64_t{t}, "f"});
      ASSERT_TRUE(tx->ExecuteAsync(b).Wait().ok());
      ASSERT_TRUE(tx->Commit().ok());
    });
  }
  AwaitQueued(2);
  cluster_->mux()->SetPausedForTesting(false);
  for (auto& t : threads) t.join();
  // ...then another window: with the default config no combiner waits.
  auto tx = cluster_->Begin();
  ReadBatch b;
  b.Get(table_, {int64_t{2}, "f"});
  ASSERT_TRUE(tx->ExecuteAsync(b).Wait().ok());
  ASSERT_TRUE(tx->Commit().ok());
  auto stats = cluster_->StatsSnapshot();
  EXPECT_EQ(stats.mux_gather_waits, 0u);
  EXPECT_EQ(stats.mux_gathered_windows, 0u);
}

}  // namespace
}  // namespace hops::ndb
