#include "hopsfs/leader.h"

#include <algorithm>

#include "util/clock.h"

namespace hops::fs {

LeaderElection::LeaderElection(kv::Engine* db, const MetadataSchema* schema,
                               const FsConfig* config, std::string location)
    : db_(db), schema_(schema), config_(config), location_(std::move(location)) {}

hops::Status LeaderElection::Register() {
  // Allocate a unique id from the variables table; retry on conflicts with
  // other registering namenodes.
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto tx = db_->Begin(kv::TxHint{schema_->variables, 0});
    auto row = tx->Read(schema_->variables, {kVarNextNamenodeId}, kv::LockMode::kExclusive);
    if (!row.ok()) {
      if (row.status().IsRetryableTx()) continue;
      return row.status();
    }
    int64_t next = (*row)[col::kVarValue].i64();
    hops::Status st =
        tx->Update(schema_->variables, kv::Row{kVarNextNamenodeId, next + 1});
    if (!st.ok()) continue;
    st = tx->Insert(schema_->leader, kv::Row{next, int64_t{0}, location_});
    if (!st.ok()) continue;
    st = tx->Commit();
    if (st.ok()) {
      id_ = next;
      return hops::Status::Ok();
    }
    if (!st.IsRetryableTx()) return st;
  }
  return hops::Status::TxAborted("could not register namenode");
}

hops::Status LeaderElection::Resume(NamenodeId id) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(id)});
    int64_t counter = 0;
    auto row = tx->Read(schema_->leader, {id}, kv::LockMode::kExclusive);
    if (row.ok()) {
      counter = (*row)[col::kLeaderCounter].i64();
    } else if (row.status().code() != hops::StatusCode::kNotFound) {
      // A long-dead row may have been evicted by the leader; re-create it
      // (counter continuity only matters while the old row survives).
      if (row.status().IsRetryableTx()) continue;
      return row.status();
    }
    hops::Status st = tx->Write(schema_->leader, kv::Row{id, counter + 1, location_});
    if (!st.ok()) continue;
    st = tx->Commit();
    if (st.ok()) {
      id_ = id;
      return hops::Status::Ok();
    }
    if (!st.IsRetryableTx()) return st;
  }
  return hops::Status::TxAborted("could not resume namenode identity");
}

hops::Status LeaderElection::Heartbeat() {
  // Bump our counter and snapshot the whole (small) leader table.
  std::vector<kv::Row> rows;
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(id_)});
    auto mine = tx->Read(schema_->leader, {id_}, kv::LockMode::kExclusive);
    if (!mine.ok()) {
      if (mine.status().IsRetryableTx()) continue;
      return mine.status();
    }
    kv::Row updated = *mine;
    updated[col::kLeaderCounter] = updated[col::kLeaderCounter].i64() + 1;
    hops::Status st = tx->Update(schema_->leader, std::move(updated));
    if (!st.ok()) continue;
    auto all = tx->FullTableScan(schema_->leader);
    if (!all.ok()) {
      if (all.status().IsRetryableTx()) continue;
      return all.status();
    }
    st = tx->Commit();
    if (st.ok()) {
      rows = *std::move(all);
      break;
    }
    if (!st.IsRetryableTx()) return st;
    if (attempt == 7) return st;
  }

  std::vector<NamenodeId> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round_++;
    for (const auto& row : rows) {
      NamenodeId nn = row[col::kLeaderNn].i64();
      int64_t counter = row[col::kLeaderCounter].i64();
      auto [it, inserted] = peers_.try_emplace(nn);
      if (inserted || counter > it->second.counter) {
        it->second.counter = counter;
        it->second.last_advance_round = round_;
      }
    }
    // Drop local state for rows that no longer exist.
    for (auto it = peers_.begin(); it != peers_.end();) {
      bool present = false;
      for (const auto& row : rows) {
        if (row[col::kLeaderNn].i64() == it->first) {
          present = true;
          break;
        }
      }
      it = present ? std::next(it) : peers_.erase(it);
    }
    for (const auto& [nn, state] : peers_) {
      if (nn != id_ && round_ - state.last_advance_round > 4 * config_->leader_missed_rounds) {
        dead.push_back(nn);
      }
    }
  }

  // The leader lazily evicts rows of long-dead namenodes...
  if (IsLeader()) {
    for (NamenodeId nn : dead) {
      auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(nn)});
      if (tx->Delete(schema_->leader, {nn}).ok()) {
        (void)tx->Commit();
      }
    }
    // ...and GCs the sharded hint-invalidation log.
    GcHintLog(dead);
  }
  return hops::Status::Ok();
}

void LeaderElection::GcHintLog(const std::vector<NamenodeId>& long_dead) {
  // Precise reaping: a record may go once every alive namenode other than
  // its publisher acked past its seq (the publisher applied it locally at
  // publish time). The TTL is only the fallback for records no ack will
  // ever cover -- dead or stalled drainers, or drainers that never wrote an
  // ack row.
  auto tx = db_->Begin(kv::TxHint{schema_->hint_heads, 0});
  auto heads = tx->FullTableScan(schema_->hint_heads);
  if (!heads.ok()) {
    if (tx->active()) tx->Abort();
    return;
  }
  // Rows to bury wholesale: the namenodes evicted this round, plus any
  // head-row owner without a leader row that a FAILED earlier cleanup left
  // behind -- re-deriving the list every pass makes the cleanup retryable
  // instead of one-shot. The grace window protects a freshly registered
  // publisher whose leader row this leader simply has not scanned yet.
  std::vector<NamenodeId> cleanup = long_dead;
  int64_t round;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round = round_;
  }
  for (const auto& head_row : *heads) {
    const NamenodeId nn = head_row[col::kHintHeadNn].i64();
    if (std::find(cleanup.begin(), cleanup.end(), nn) != cleanup.end()) continue;
    if (HasPeerRow(nn)) {
      gc_orphan_since_.erase(nn);
      continue;
    }
    auto [it, inserted] = gc_orphan_since_.try_emplace(nn, round);
    if (round - it->second > config_->leader_missed_rounds) cleanup.push_back(nn);
  }
  // Idle short-circuit: with every bookmark clean and nothing to bury, the
  // whole pass costs the one heads scan (N tiny rows) -- in particular the
  // O(N^2)-row acks table is not touched.
  bool work = !cleanup.empty();
  for (const auto& head_row : *heads) {
    auto clean = gc_clean_through_.find(head_row[col::kHintHeadNn].i64());
    if (clean == gc_clean_through_.end() ||
        clean->second != head_row[col::kHintHeadNext].i64()) {
      work = true;
      break;
    }
  }
  if (!work) {
    (void)tx->Commit();
    return;
  }
  auto acks = tx->FullTableScan(schema_->hint_acks);
  if (!acks.ok()) {
    if (tx->active()) tx->Abort();
    return;
  }
  const std::vector<NamenodeId> alive = AliveNamenodes();
  std::map<std::pair<NamenodeId, NamenodeId>, int64_t> acked;  // (drainer, publisher)
  for (const auto& row : *acks) {
    acked[{row[col::kAckDrainer].i64(), row[col::kAckPublisher].i64()}] =
        row[col::kAckSeq].i64();
  }
  const int64_t cutoff = MonotonicMicros() -
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             config_->hint_invalidation_ttl)
                             .count();
  // Bookkeeping is published only after the transaction commits: the staged
  // deletes roll back on abort, and a clean bookmark advanced past them
  // would skip the partition forever (an idle publisher's head never moves).
  std::vector<std::pair<NamenodeId, int64_t>> clean_updates;
  uint64_t acked_reaps = 0, ttl_reaps = 0;
  bool failed = false;
  for (const auto& head_row : *heads) {
    const NamenodeId publisher = head_row[col::kHintHeadNn].i64();
    const int64_t head = head_row[col::kHintHeadNext].i64();
    // Cleanup-listed publishers are wholesale-buried below; reaping (and
    // worse, re-bookmarking) them here would resurrect just-erased
    // bookmarks for head rows that are about to disappear, leaking map
    // entries forever.
    if (std::find(cleanup.begin(), cleanup.end(), publisher) != cleanup.end()) {
      continue;
    }
    auto clean = gc_clean_through_.find(publisher);
    if (clean != gc_clean_through_.end() && clean->second == head) continue;
    int64_t min_acked = head - 1;
    for (NamenodeId drainer : alive) {
      if (drainer == publisher) continue;
      auto it = acked.find({drainer, publisher});
      int64_t a = it == acked.end() ? int64_t{0} : it->second;
      // An ack above head-1 is stale evidence from a prior incarnation of
      // this head row (the publisher's log restarted at 1 after a GC'd
      // stall); it vouches for nothing in the current log.
      if (a > head - 1) a = 0;
      min_acked = std::min(min_acked, a);
    }
    auto rows = tx->Ppis(schema_->hint_invalidations, {publisher});
    if (!rows.ok()) {
      failed = true;
      break;
    }
    bool residue = false;
    for (const auto& row : *rows) {
      const int64_t seq = row[col::kHintSeq].i64();
      const bool acked_by_all = seq <= min_acked;
      const bool expired = row[col::kHintMtime].i64() < cutoff;
      if (!acked_by_all && !expired) {
        residue = true;
        continue;
      }
      if (!tx->Delete(schema_->hint_invalidations, {publisher, seq}).ok()) {
        residue = true;
        failed = true;
        break;
      }
      (acked_by_all ? acked_reaps : ttl_reaps)++;
    }
    if (failed) break;
    if (!residue) clean_updates.emplace_back(publisher, head);
  }
  // Long-dead namenodes leave inert rows behind (ids are never reused):
  // their head row, any unreaped records, and the acks they wrote. Peers
  // have had 4x the liveness window to drain the records; whoever still
  // holds a stale hint past that degrades to lazy repair, like any drainer
  // slower than the TTL always did.
  for (NamenodeId nn : cleanup) {
    if (failed) break;
    auto rows = tx->Ppis(schema_->hint_invalidations, {nn});
    if (rows.ok()) {
      for (const auto& row : *rows) {
        (void)tx->Delete(schema_->hint_invalidations, {nn, row[col::kHintSeq].i64()});
      }
    }
    auto written = tx->Ppis(schema_->hint_acks, {nn});
    if (written.ok()) {
      for (const auto& row : *written) {
        (void)tx->Delete(schema_->hint_acks, {nn, row[col::kAckPublisher].i64()});
      }
    }
    hops::Status st = tx->Delete(schema_->hint_heads, {nn});
    if (!st.ok() && st.code() != hops::StatusCode::kNotFound) failed = true;
    // Erasing the bookmark is safe whatever the tx outcome (it only causes
    // a future rescan), unlike advancing one.
    gc_clean_through_.erase(nn);
    // Acks *for* the dead publisher, written by others, are orphans now.
    for (const auto& [key, seq] : acked) {
      if (key.second == nn) (void)tx->Delete(schema_->hint_acks, {key.first, nn});
    }
  }
  if (failed || !tx->active()) {
    if (tx->active()) tx->Abort();
    return;
  }
  if (!tx->Commit().ok()) return;
  for (const auto& [publisher, head] : clean_updates) gc_clean_through_[publisher] = head;
  for (NamenodeId nn : cleanup) gc_orphan_since_.erase(nn);
  if (acked_reaps > 0) gc_acked_reaps_.fetch_add(acked_reaps, std::memory_order_relaxed);
  if (ttl_reaps > 0) gc_ttl_reaps_.fetch_add(ttl_reaps, std::memory_order_relaxed);
}

void LeaderElection::Deregister() {
  auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(id_)});
  if (tx->Delete(schema_->leader, {id_}).ok()) {
    (void)tx->Commit();
  }
  std::lock_guard<std::mutex> lock(mu_);
  peers_.erase(id_);
}

bool LeaderElection::IsLeader() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [nn, state] : peers_) {
    if (nn == id_) break;
    if (round_ - state.last_advance_round <= config_->leader_missed_rounds) {
      return false;  // a smaller-id namenode is alive
    }
  }
  return true;
}

std::vector<NamenodeId> LeaderElection::AliveNamenodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NamenodeId> alive;
  for (const auto& [nn, state] : peers_) {
    if (nn == id_ || round_ - state.last_advance_round <= config_->leader_missed_rounds) {
      alive.push_back(nn);
    }
  }
  return alive;
}

bool LeaderElection::HasPeerRow(NamenodeId nn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_.count(nn) > 0;
}

bool LeaderElection::IsNamenodeAlive(NamenodeId nn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(nn);
  if (it == peers_.end()) return false;
  if (nn == id_) return true;
  return round_ - it->second.last_advance_round <= config_->leader_missed_rounds;
}

}  // namespace hops::fs
