#include "client/fairqueue.h"

#include <algorithm>

#include "common/logging.h"

namespace vc::client {
namespace {

// Erases every entry of an ordered set/map whose key starts with `prefix`.
// Keys sharing a prefix are contiguous under lexicographic order, so this is
// a single range scan, not a full traversal.
const std::string& KeyOf(const std::string& s) { return s; }
template <typename V>
const std::string& KeyOf(const std::pair<const std::string, V>& p) {
  return p.first;
}

template <typename Container>
void ErasePrefixRange(Container* c, const std::string& prefix) {
  auto it = c->lower_bound(prefix);
  while (it != c->end() && KeyOf(*it).compare(0, prefix.size(), prefix) == 0) {
    it = c->erase(it);
  }
}

}  // namespace

FairQueue::FairQueue() : FairQueue(Options{}) {}

FairQueue::FairQueue(Options opts) : opts_(opts) {}

void FairQueue::RegisterTenant(const std::string& tenant, int weight) {
  std::lock_guard<std::mutex> l(mu_);
  // An already-active tenant picks the new weight up at its next credit
  // refill; the in-progress round finishes on the old credit.
  subqueues_[tenant].weight = std::max(1, weight);
}

void FairQueue::UnregisterTenant(const std::string& tenant) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = subqueues_.find(tenant);
  if (it != subqueues_.end()) {
    queued_ -= it->second.keys.size();
    if (it->second.in_rotation) {
      auto pos = std::find(rotation_.begin(), rotation_.end(), tenant);
      if (pos != rotation_.end()) rotation_.erase(pos);
    }
    subqueues_.erase(it);
  }
  if (!opts_.fair) {
    auto keep = std::remove_if(
        fifo_.begin(), fifo_.end(),
        [&](const Item& i) { return i.tenant == tenant; });
    queued_ -= static_cast<size_t>(fifo_.end() - keep);
    fifo_.erase(keep, fifo_.end());
  }
  // Clear dedup/latency state for all of the tenant's keys — including items
  // currently in processing whose dirty re-add would otherwise resurrect the
  // sub-queue on Done(). processing_ entries stay; Done() erases them and
  // finds no dirty mark, so nothing is re-queued.
  const std::string prefix = tenant + "|";
  ErasePrefixRange(&dirty_, prefix);
  ErasePrefixRange(&enqueue_times_, prefix);
}

void FairQueue::Add(const std::string& tenant, const std::string& key) {
  std::function<void()> ready;
  {
    std::lock_guard<std::mutex> l(mu_);
    if (shutting_down_) return;
    const std::string fk = FullKey(tenant, key);
    if (dirty_.count(fk)) {
      dedups_++;
      return;
    }
    dirty_.insert(fk);
    adds_++;
    enqueue_times_.try_emplace(fk, opts_.clock->Now());
    if (processing_.count(fk)) {
      // Re-queued by Done().
      return;
    }
    if (opts_.fair) {
      SubQueue& sq = subqueues_[tenant];
      sq.keys.push_back(key);
      ActivateLocked(tenant, &sq);
    } else {
      fifo_.push_back(Item{tenant, key, opts_.clock->Now()});
    }
    queued_++;
    ready = ready_cb_;
  }
  cv_.notify_one();
  if (ready) ready();
}

void FairQueue::ActivateLocked(const std::string& tenant, SubQueue* sq) {
  if (sq->in_rotation) return;
  sq->in_rotation = true;
  rotation_.push_back(tenant);
}

std::optional<FairQueue::Item> FairQueue::PopLocked() {
  if (!opts_.fair) {
    if (fifo_.empty()) return std::nullopt;
    Item item = std::move(fifo_.front());
    fifo_.pop_front();
    return item;
  }
  // Weighted round-robin over *active* tenants only: the front of rotation_
  // dequeues up to `weight` items across its turn, then rotates to the back;
  // a tenant whose sub-queue drains forfeits its remaining credit and leaves
  // the rotation. Idle registered tenants are never visited, so dequeue is
  // O(1) amortized regardless of how many tenants exist.
  while (!rotation_.empty()) {
    const std::string tenant = rotation_.front();
    auto it = subqueues_.find(tenant);
    if (it == subqueues_.end() || it->second.keys.empty()) {
      // Defensive: stale rotation entry (should not happen — emptied and
      // unregistered tenants are removed eagerly).
      if (it != subqueues_.end()) {
        it->second.in_rotation = false;
        it->second.credit = 0;
      }
      rotation_.pop_front();
      continue;
    }
    SubQueue& sq = it->second;
    if (sq.credit <= 0) sq.credit = sq.weight;
    Item item;
    item.tenant = tenant;
    item.key = std::move(sq.keys.front());
    sq.keys.pop_front();
    --sq.credit;
    if (sq.keys.empty()) {
      sq.credit = 0;
      sq.in_rotation = false;
      rotation_.pop_front();
    } else if (sq.credit <= 0) {
      rotation_.pop_front();
      rotation_.push_back(tenant);
    }
    return item;
  }
  return std::nullopt;
}

std::optional<FairQueue::Item> FairQueue::TakeLocked() {
  std::optional<Item> item = PopLocked();
  if (!item) return std::nullopt;
  queued_--;
  const std::string fk = FullKey(item->tenant, item->key);
  processing_.insert(fk);
  dirty_.erase(fk);
  auto it = enqueue_times_.find(fk);
  if (it != enqueue_times_.end()) {
    item->enqueue_time = it->second;
    enqueue_times_.erase(it);
  } else {
    item->enqueue_time = opts_.clock->Now();
  }
  return item;
}

std::optional<FairQueue::Item> FairQueue::Get() {
  std::unique_lock<std::mutex> l(mu_);
  cv_.wait(l, [this] { return queued_ > 0 || shutting_down_; });
  return TakeLocked();
}

std::optional<FairQueue::Item> FairQueue::TryGet() {
  std::lock_guard<std::mutex> l(mu_);
  if (queued_ == 0) return std::nullopt;
  return TakeLocked();
}

void FairQueue::SetReadyCallback(std::function<void()> fn) {
  std::lock_guard<std::mutex> l(mu_);
  ready_cb_ = std::move(fn);
}

void FairQueue::Done(const Item& item) {
  bool notify = false;
  std::function<void()> ready;
  {
    std::lock_guard<std::mutex> l(mu_);
    const std::string fk = FullKey(item.tenant, item.key);
    processing_.erase(fk);
    if (dirty_.count(fk)) {
      // Went dirty during processing: re-queue into the tenant sub-queue.
      if (opts_.fair) {
        SubQueue& sq = subqueues_[item.tenant];
        sq.keys.push_back(item.key);
        ActivateLocked(item.tenant, &sq);
      } else {
        fifo_.push_back(Item{item.tenant, item.key, opts_.clock->Now()});
      }
      queued_++;
      notify = true;
      ready = ready_cb_;
    }
  }
  if (notify) cv_.notify_one();
  if (ready) ready();
}

void FairQueue::ShutDown() {
  {
    std::lock_guard<std::mutex> l(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
}

bool FairQueue::ShuttingDown() const {
  std::lock_guard<std::mutex> l(mu_);
  return shutting_down_;
}

size_t FairQueue::Len() const {
  std::lock_guard<std::mutex> l(mu_);
  return queued_;
}

size_t FairQueue::TenantLen(const std::string& t) const {
  std::lock_guard<std::mutex> l(mu_);
  if (!opts_.fair) {
    return static_cast<size_t>(
        std::count_if(fifo_.begin(), fifo_.end(),
                      [&](const Item& i) { return i.tenant == t; }));
  }
  auto it = subqueues_.find(t);
  return it == subqueues_.end() ? 0 : it->second.keys.size();
}

bool FairQueue::IsQueued(const std::string& tenant,
                         const std::string& key) const {
  std::lock_guard<std::mutex> l(mu_);
  return dirty_.count(FullKey(tenant, key)) > 0;
}

uint64_t FairQueue::adds() const {
  std::lock_guard<std::mutex> l(mu_);
  return adds_;
}

uint64_t FairQueue::dedups() const {
  std::lock_guard<std::mutex> l(mu_);
  return dedups_;
}

}  // namespace vc::client
