// Cross-transaction completion multiplexer (the shared sendPollNdb reactor),
// run by flat combining (Hendler et al., SPAA 2010) rather than by a thread
// of its own.
//
// A namenode runs many concurrent handler threads, each owning its own
// transaction (paper §7.1). Each handler routes and plans its own in-flight
// window, then registers the window's lock plan here. Whichever submitter
// finds no round in progress becomes the *combiner*: holding only the mux
// mutex it runs ONE round over every window queued so far -- a combined
// try-lock pass, the lock-wait deadline check and the round's trip
// accounting -- and wakes each granted owner, which runs its own window's
// data work on its own thread. Windows granted together flush as ONE
// overlapped round trip (cost max, not sum), while
//  * the combined lock set of a round is still acquired in the global
//    (table, partition, encoded key) order -- now ACROSS transactions;
//  * per-transaction read-your-writes is preserved (each owner runs its
//    window's members in preparation order against its own write set; other
//    transactions' staged writes stay invisible until their commit);
//  * errors stay sticky per handle: a failing member poisons only its own
//    transaction, which still refuses to Commit().
//
// The combiner never blocks on a row lock: the combined pass uses
// non-blocking try-acquisition, and a window that hits a contended row is
// *deferred* -- its freshly taken locks are handed back, its
// shared->exclusive upgrades atomically stepped back down (a deferred
// window holds nothing it did not already hold), and the window retries on
// a later round: one a new submission starts, one a lock release runs
// (Commit/Abort of any transaction) or one its owner starts when its retry
// timer fires. Once the window's lock-wait deadline passes it fails with the
// same kLockTimeout an ordinary blocked acquisition reports, and its owner
// aborts the transaction on its own thread, outside the mux mutex. This
// keeps the mux deadlock-free even when transactions keep locks across
// windows in crossing orders.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "ndb/cluster.h"
#include "util/status.h"

namespace hops::ndb {

class CompletionMux {
 public:
  explicit CompletionMux(Cluster* cluster) : cluster_(cluster) {}

  CompletionMux(const CompletionMux&) = delete;
  CompletionMux& operator=(const CompletionMux&) = delete;

  // How a granted window shares its round's single round trip.
  enum class Trip {
    kNone,         // no member would have paid a trip flushing alone
    kCarries,      // the round's first paying window: it carries the trip
    kCoScheduled,  // would have paid, but rides the carrier's trip
  };

  // Registers the routed window's lock plan (one plan per member; `pays`:
  // some member would pay its own trip flushing alone) and parks the calling
  // owner -- running rounds itself whenever no other thread is -- until a
  // round grants the window's locks; `*trip` then says how the window shares
  // that round's trip. Returns kLockTimeout, with the transaction aborted,
  // when the window's lock-wait deadline passes while it is deferred. The
  // caller must be the thread driving `tx`; while parked here the combiner
  // may touch the transaction's lock set. The Cluster (and so this mux) must
  // outlive every transaction.
  hops::Status SubmitAndWait(Transaction* tx,
                             const std::vector<std::vector<Transaction::LockRequest>>& plans,
                             bool pays, Trip* trip);

  // Retries deferred windows right after a transaction releases its locks
  // (called from Commit/Abort) instead of leaving them to their retry
  // timers. Takes the mux mutex only when some window is deferred.
  void NotifyLocksReleased() {
    if (deferred_count_.load() > 0) RetryDeferred();
  }

  // --- Test hooks ------------------------------------------------------------
  // Pausing stops new rounds from starting (submissions still queue), so a
  // test can force windows from several threads into one deterministic
  // co-flushed round.
  void SetPausedForTesting(bool paused);
  size_t QueuedForTesting() const;

 private:
  struct Submission {
    enum class State { kQueued, kDeferred, kGranted, kTimedOut };
    Transaction* tx = nullptr;
    const std::vector<std::vector<Transaction::LockRequest>>* plans = nullptr;
    bool pays = false;
    std::chrono::steady_clock::time_point deadline;
    State state = State::kQueued;
    Trip trip = Trip::kNone;
    std::condition_variable cv;  // its owner parks here; rounds wake it
  };

  // One combined round over every deferred and queued window, run with mu_
  // held (released only for the adaptive gather wait). Granted and timed-out
  // windows are woken; deferred ones stay in deferred_ for a later round.
  void RunRound(std::unique_lock<std::mutex>& lk);
  void RetryDeferred();

  Cluster* const cluster_;
  mutable std::mutex mu_;
  std::condition_variable gather_cv_;   // a gathering combiner waits here
  std::deque<Submission*> queue_;       // submitted, not yet in a round
  std::vector<Submission*> deferred_;   // hit a contended row; retry later
  // deferred_.size(), raised to the whole round while a round runs, so a
  // lock release racing the round's try-lock pass still sees it.
  std::atomic<size_t> deferred_count_{0};
  bool paused_ = false;
  bool gathering_ = false;  // a combiner waits for trailing windows
  // Did the previous round merge windows from more than one transaction?
  // Under the adaptive gather policy that is the evidence that handlers are
  // submitting close together, so holding the door open a few microseconds
  // will likely merge one more trip into the shared flush.
  bool merged_recently_ = false;
  uint64_t rounds_ = 0;
  std::chrono::steady_clock::time_point last_round_;
};

}  // namespace hops::ndb
