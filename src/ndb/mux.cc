#include "ndb/mux.h"

#include <algorithm>
#include <tuple>

namespace hops::ndb {

hops::Status CompletionMux::SubmitAndWait(
    Transaction* tx, const std::vector<std::vector<Transaction::LockRequest>>& plans, bool pays,
    Trip* trip) {
  using State = Submission::State;
  Submission sub;
  sub.tx = tx;
  sub.plans = &plans;
  sub.pays = pays;
  sub.deadline = std::chrono::steady_clock::now() + cluster_->config().lock_wait_timeout;

  std::unique_lock<std::mutex> lk(mu_);
  queue_.push_back(&sub);
  if (gathering_) gather_cv_.notify_one();
  // A fresh window runs a round at once unless a gathering combiner will
  // take it or the mux is paused. A deferred window's own retry round runs
  // only when no round has retried it since its owner went to sleep.
  bool run = true;
  while (sub.state == State::kQueued || sub.state == State::kDeferred) {
    if (run && !gathering_ && !paused_) {
      RunRound(lk);
      run = false;
      continue;
    }
    const uint64_t seen = rounds_;
    if (sub.state == State::kDeferred) {
      sub.cv.wait_until(lk, std::min(sub.deadline, std::chrono::steady_clock::now() +
                                                       cluster_->config().mux_retry_interval));
    } else {
      sub.cv.wait(lk);
    }
    run = sub.state == State::kQueued || rounds_ == seen;
  }
  const bool timed_out = sub.state == State::kTimedOut;
  *trip = sub.trip;
  lk.unlock();
  if (timed_out) {
    // Exactly like a blocked per-transaction acquisition: the transaction
    // aborts. Abort() re-enters NotifyLocksReleased, which takes mu_, so it
    // runs here on the owner's thread and never under the combiner's lock.
    cluster_->stats_.lock_timeouts.fetch_add(1, std::memory_order_relaxed);
    tx->Abort();
    return hops::Status::LockTimeout("row lock wait timed out");
  }
  return hops::Status::Ok();
}

void CompletionMux::RetryDeferred() {
  std::unique_lock<std::mutex> lk(mu_);
  if (!deferred_.empty() && !gathering_ && !paused_) RunRound(lk);
}

void CompletionMux::SetPausedForTesting(bool paused) {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = paused;
  gather_cv_.notify_one();
  if (paused) return;
  // Every parked owner re-checks; the first to take mu_ runs the round.
  for (Submission* sub : queue_) sub->cv.notify_one();
  for (Submission* sub : deferred_) sub->cv.notify_one();
}

size_t CompletionMux::QueuedForTesting() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

void CompletionMux::RunRound(std::unique_lock<std::mutex>& lk) {
  using State = Submission::State;
  const ClusterConfig& cfg = cluster_->config();
  auto& s = cluster_->stats_;
  // A long idle gap ends the burst the gather delay was betting on: the
  // first submission after it must not pay a wait for trailing windows that
  // cannot exist.
  if (std::chrono::steady_clock::now() - last_round_ > std::chrono::milliseconds(100)) {
    merged_recently_ = false;
  }
  // Gate on a fresh submission: a retry pass over only deferred windows is
  // waiting out a lock holder, not trailing submissions -- gathering there
  // would just delay the retry and inflate the stat.
  if (cfg.mux_adaptive_gather && merged_recently_ && !queue_.empty()) {
    s.mux_gather_waits.fetch_add(1, std::memory_order_relaxed);
    const size_t before = queue_.size();
    gathering_ = true;
    gather_cv_.wait_for(lk, cfg.mux_gather_delay,
                        [&] { return paused_ || queue_.size() > before; });
    gathering_ = false;
    if (paused_) return;  // pausing mid-gather parks the round, not runs it
    if (queue_.size() > before) {
      s.mux_gathered_windows.fetch_add(queue_.size() - before, std::memory_order_relaxed);
    }
  }

  std::vector<Submission*> active = std::move(deferred_);
  deferred_.clear();
  active.insert(active.end(), queue_.begin(), queue_.end());
  queue_.clear();
  const size_t n = active.size();
  deferred_count_.store(n);

  // ONE combined lock pass in the global (table, partition, encoded key)
  // order across every transaction in the round. Acquisition never blocks:
  // a contended request defers its whole window -- freshly taken locks are
  // handed back and upgrades stepped back down, so a deferred window holds
  // no lock a parked handler could be waiting to see released.
  struct Entry {
    size_t sub;
    const Transaction::LockRequest* req;
  };
  std::vector<Entry> combined;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& plan : *active[i]->plans) {
      for (const auto& req : plan) {
        if (req.mode != LockMode::kReadCommitted) combined.push_back(Entry{i, &req});
      }
    }
  }
  std::stable_sort(combined.begin(), combined.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.req->table, a.req->partition, a.req->ekey) <
           std::tie(b.req->table, b.req->partition, b.req->ekey);
  });
  using RowId = std::tuple<TableId, uint32_t, std::string>;
  std::vector<bool> deferred(n, false);
  std::vector<std::vector<RowId>> fresh(n), upgraded(n);
  for (const Entry& e : combined) {
    if (deferred[e.sub]) continue;
    Transaction* tx = active[e.sub]->tx;
    bool is_fresh = false, is_upgrade = false;
    if (tx->TryAcquireRowLock(e.req->table, e.req->partition, e.req->ekey, e.req->mode,
                              &is_fresh, &is_upgrade)) {
      if (is_fresh) fresh[e.sub].emplace_back(e.req->table, e.req->partition, e.req->ekey);
      if (is_upgrade) upgraded[e.sub].emplace_back(e.req->table, e.req->partition, e.req->ekey);
    } else {
      deferred[e.sub] = true;
      for (const auto& [t, p, k] : fresh[e.sub]) tx->DropRowLock(t, p, k);
      for (const auto& [t, p, k] : upgraded[e.sub]) tx->DowngradeRowLock(t, p, k);
    }
  }

  // Deferred windows past their lock-wait deadline time out; the rest wait
  // for a later round. Accounting: the whole round is ONE shared round trip
  // (if any granted window would have paid one), carried by the first
  // paying window; every other paying window is co-scheduled on it. Each
  // owner books its own window's trips after its data work, preserving
  // round_trips + overlapped_round_trips == sync-equivalent trips.
  const auto now = std::chrono::steady_clock::now();
  size_t granted = 0, paying = 0;
  for (size_t i = 0; i < n; ++i) {
    Submission& sub = *active[i];
    if (deferred[i] && now < sub.deadline) {
      deferred_.push_back(&sub);
      if (sub.state == State::kDeferred) continue;
      sub.state = State::kDeferred;  // its owner switches to a timed retry wait
    } else if (deferred[i]) {
      sub.state = State::kTimedOut;
    } else {
      granted++;
      if (sub.pays) sub.trip = paying++ == 0 ? Trip::kCarries : Trip::kCoScheduled;
      sub.state = State::kGranted;
    }
    sub.cv.notify_one();
  }
  if (paying > 1) {
    s.cross_tx_overlapped_round_trips.fetch_add(paying - 1, std::memory_order_relaxed);
  }
  if (granted > 0) {
    s.mux_rounds.fetch_add(1, std::memory_order_relaxed);
    s.mux_windows.fetch_add(granted, std::memory_order_relaxed);
  }
  // > 1 means windows from different transactions merged (each submission
  // is one transaction's whole window and its owner is parked) -- the
  // signal the adaptive gather delay keys off.
  merged_recently_ = granted > 1;
  rounds_++;
  last_round_ = now;
  deferred_count_.store(deferred_.size());
}

}  // namespace hops::ndb
