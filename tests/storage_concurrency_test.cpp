// Storage hot-path concurrency: the off-lock watch fan-out and the apiserver
// watch cache under concurrent writers. Runs under tsan via the `concurrency`
// ctest label (scripts/check.sh --preset tsan). Each test also drains the
// vc::trace history and has the checker certify the ordering contracts the
// assertions sample — the run is linearizable-proven, not just race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apiserver/apiserver.h"
#include "apiserver/watch_cache.h"
#include "common/executor.h"
#include "common/trace_check.h"
#include "kv/kvstore.h"

namespace vc::kv {
namespace {

using api::Pod;
using apiserver::APIServer;
using apiserver::GetOptions;
using apiserver::ListOptions;
using apiserver::TypedList;

// Drains the trace window opened by trace::Reset() and asserts the checker
// certified it (no drops, no-gap/no-dup per watcher, read-your-write,
// dispatch spans paired).
void ExpectCertified(const trace::CheckOptions& opts = {}) {
  trace::CheckReport report = trace::DrainAndCheck(opts);
  EXPECT_TRUE(report.certified) << report.Summary();
  EXPECT_GT(report.records, 0u) << "checker saw an empty history";
}

// With fan-out off the writer's lock, per-watcher ordering must still match
// revision order exactly: a watcher covering every write sees one event per
// store revision, in order, with no gaps and no duplicates.
TEST(StorageConcurrencyTest, ConcurrentWritersPreserveWatchOrder) {
  trace::Reset();
  KvStore store;
  constexpr int kThreads = 8;
  constexpr int kWrites = 250;
  auto ch = *store.Watch("/seq/", 0, /*buffer_capacity=*/kThreads * kWrites + 16);
  ParallelFor(kThreads, [&](int t) {
    for (int i = 0; i < kWrites; ++i) {
      ASSERT_TRUE(store.Put("/seq/t" + std::to_string(t), std::to_string(i)).ok());
    }
  });
  store.FlushWatchDispatch();
  int64_t last = 0;
  for (int i = 0; i < kThreads * kWrites; ++i) {
    Result<Event> e = ch->Next(Seconds(5));
    ASSERT_TRUE(e.ok()) << e.status() << " after " << i << " events";
    EXPECT_EQ(e->revision, last + 1);  // contiguous: no gap, no dup
    last = e->revision;
  }
  EXPECT_EQ(last, store.CurrentRevision());
  // The loop above sampled the client side; the checker proves the store-side
  // history: every (watcher, revision) offered exactly once, commits in
  // revision order.
  trace::CheckOptions copts;
  copts.single_store = true;
  trace::CheckReport report = trace::DrainAndCheck(copts);
  EXPECT_TRUE(report.certified) << report.Summary();
  EXPECT_EQ(report.watch_deliveries, static_cast<size_t>(kThreads * kWrites));
}

// Watches registered mid-stream splice replay and live events with no seam:
// every watcher sees exactly revisions (from, final], contiguous.
TEST(StorageConcurrencyTest, MidStreamWatchesSeeNoGapNoDup) {
  trace::Reset();
  KvStore store;
  constexpr int kWriters = 4;
  constexpr int kWrites = 200;
  constexpr int kWatchers = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&store, t] {
      for (int i = 0; i < kWrites; ++i) {
        ASSERT_TRUE(store.Put("/ns/t" + std::to_string(t), std::to_string(i)).ok());
      }
    });
  }
  std::vector<std::thread> watchers;
  std::vector<Status> failures(kWatchers);
  for (int w = 0; w < kWatchers; ++w) {
    watchers.emplace_back([&store, &failures, w] {
      // Snapshot + watch, as a client relist would.
      ListResult snap = store.List("/ns/");
      auto ch = store.Watch("/ns/", snap.revision, /*buffer_capacity=*/1 << 16);
      ASSERT_TRUE(ch.ok()) << ch.status();
      int64_t last = snap.revision;
      constexpr int64_t kFinal = kWriters * kWrites;
      while (last < kFinal) {
        Result<Event> e = (*ch)->Next(Seconds(5));
        if (!e.ok()) {
          failures[w] = e.status();
          return;
        }
        EXPECT_EQ(e->revision, last + 1) << "watcher " << w;
        last = e->revision;
      }
    });
  }
  for (auto& t : writers) t.join();
  for (auto& t : watchers) t.join();
  for (const Status& st : failures) EXPECT_TRUE(st.ok()) << st;
  // The replay/live splice is the risky seam; the checker proves every
  // mid-stream watcher's offered sequence was contiguous across it.
  store.FlushWatchDispatch();
  trace::CheckOptions copts;
  copts.single_store = true;
  ExpectCertified(copts);
}

// A watcher that never consumes must not stall writers: all Puts complete,
// the channel is poisoned Gone, and other watchers are unaffected.
TEST(StorageConcurrencyTest, SlowWatcherOverflowsToGoneWithoutBlockingWriters) {
  trace::Reset();
  KvStore store;
  auto slow = *store.Watch("/k/", 0, /*buffer_capacity=*/8);
  auto healthy = *store.Watch("/k/", 0, /*buffer_capacity=*/1 << 16);
  constexpr int kEvents = 512;
  ParallelFor(4, [&](int t) {
    for (int i = 0; i < kEvents / 4; ++i) {
      ASSERT_TRUE(store.Put("/k/t" + std::to_string(t), "v").ok());
    }
  });
  store.FlushWatchDispatch();
  EXPECT_FALSE(slow->ok());
  // The slow channel drains its few buffered events, then reports Gone.
  Status last;
  for (int i = 0; i < 16; ++i) {
    Result<Event> e = slow->Next(Millis(10));
    if (!e.ok()) {
      last = e.status();
      break;
    }
  }
  EXPECT_TRUE(last.IsGone());
  // The healthy watcher saw every event in revision order.
  int64_t rev = 0;
  for (int i = 0; i < kEvents; ++i) {
    Result<Event> e = healthy->Next(Seconds(5));
    ASSERT_TRUE(e.ok()) << e.status();
    EXPECT_EQ(e->revision, rev + 1);
    rev = e->revision;
  }
  // The overflowed watcher's offered sequence simply truncates (its channel
  // poisoned, no record past it) — not a gap; the history still certifies.
  trace::CheckOptions copts;
  copts.single_store = true;
  ExpectCertified(copts);
}

// The concurrent commit path: 8 writers spread over many keys, mixing
// upserts, CAS updates, CAS failures, and deletes, while reader threads
// hammer Get and List. The checker then proves the commit contract: the one
// commit trace stream is revision-ordered and forms ONE dense global revision
// sequence (no double mint, no lost commit).
TEST(StorageConcurrencyTest, ShardedWritersCertifyGlobalRevisionOrder) {
  trace::Reset();
  KvStore store;
  constexpr int kWriters = 8;
  constexpr int kKeysPerWriter = 16;  // 128 keys
  constexpr int kRounds = 60;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&store, &stop, r] {
      // Per key, successive Gets must never travel back in time: each reads
      // the map under the store lock, so mod_revision is monotone per reader
      // thread.
      std::map<std::string, int64_t> seen;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key =
            "/shard/t" + std::to_string(r * 4) + "/k" + std::to_string(r);
        Result<Entry> e = store.Get(key);
        if (e.ok()) {
          int64_t& last = seen[key];
          EXPECT_GE(e->mod_revision, last);
          last = e->mod_revision;
        }
        ListResult snap = store.List("/shard/");
        for (const Entry& ent : snap.entries) {
          EXPECT_LE(ent.mod_revision, snap.revision);
          EXPECT_GT(ent.mod_revision, 0);
        }
      }
    });
  }
  ParallelFor(kWriters, [&](int t) {
    for (int i = 0; i < kRounds; ++i) {
      const std::string key = "/shard/t" + std::to_string(t) + "/k" +
                              std::to_string(i % kKeysPerWriter);
      if (i % 7 == 3) {
        // CAS create on an existing key fails without minting a revision.
        Result<int64_t> r = store.Put(key, "dup", /*expected_mod_revision=*/0);
        EXPECT_TRUE(r.ok() || r.status().IsAlreadyExists()) << r.status();
      } else if (i % 11 == 5) {
        (void)store.Delete(key);  // NotFound ok: first round for this key
      } else {
        ASSERT_TRUE(store.Put(key, "v" + std::to_string(i)).ok());
      }
    }
  });
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  store.FlushWatchDispatch();
  trace::CheckOptions copts;
  copts.single_store = true;
  trace::CheckReport report = trace::DrainAndCheck(copts);
  EXPECT_TRUE(report.certified) << report.Summary();
  EXPECT_GT(report.commits, 0u);
  EXPECT_EQ(report.commits, static_cast<size_t>(store.CurrentRevision()));
}

// The List snapshot: a writer that writes key A then key B has published A's
// revision before B's exists. A List snapshot must therefore NEVER show the
// newer B value with an older A value — List scans under the store lock at
// one revision, it is not a racy scan.
TEST(StorageConcurrencyTest, ListFenceNeverSplitsDependentWrites) {
  trace::Reset();
  KvStore store;
  constexpr int kPairs = 300;
  std::atomic<bool> stop{false};
  std::thread writer([&store] {
    for (int i = 1; i <= kPairs; ++i) {
      ASSERT_TRUE(store.Put("/fence/a", std::to_string(i)).ok());
      ASSERT_TRUE(store.Put("/fence/b", std::to_string(i)).ok());
    }
  });
  std::vector<std::thread> listers;
  for (int l = 0; l < 3; ++l) {
    listers.emplace_back([&store, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        ListResult snap = store.List("/fence/");
        int a = 0, b = 0;
        for (const Entry& e : snap.entries) {
          if (e.key == "/fence/a") a = std::stoi(e.value.str());
          if (e.key == "/fence/b") b = std::stoi(e.value.str());
        }
        // b is written strictly after a reaches the same value.
        EXPECT_GE(a, b) << "fence split a dependent write pair at rev "
                        << snap.revision;
        // And the snapshot revision covers everything it returned.
        for (const Entry& e : snap.entries) {
          EXPECT_LE(e.mod_revision, snap.revision);
        }
      }
    });
  }
  writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : listers) th.join();
  store.FlushWatchDispatch();
  trace::CheckOptions copts;
  copts.single_store = true;
  ExpectCertified(copts);
}

// CurrentRevision() is a visibility fence for Get: a commit updates the map
// before the store revision advances, so once a reader observes revision r,
// every key committed at or below r is found.
// One writer puts /vis/k<i> at revision i; readers Get every key up to each
// revision they observe, the newest one first.
TEST(StorageConcurrencyTest, CurrentRevisionCoversLockFreeGets) {
  trace::Reset();
  KvStore store;
  constexpr int kKeys = 5000;
  constexpr int kReaders = 2;
  auto key = [](int64_t i) { return "/vis/k" + std::to_string(i); };
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      int64_t checked = 0;
      while (checked < kKeys && !stop.load(std::memory_order_relaxed)) {
        const int64_t rev = store.CurrentRevision();
        for (int64_t j = rev; j > checked; --j) {
          Result<Entry> e = store.Get(key(j));
          ASSERT_TRUE(e.ok()) << key(j) << " missing at revision " << rev;
          ASSERT_EQ(e->mod_revision, j);
        }
        checked = std::max(checked, rev);
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  for (int64_t i = 1; i <= kKeys; ++i) {
    Result<int64_t> rev = store.Put(key(i), "v");
    EXPECT_TRUE(rev.ok() && *rev == i) << "put " << i << ": " << rev.status();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  store.FlushWatchDispatch();
  trace::CheckOptions copts;
  copts.single_store = true;
  ExpectCertified(copts);
}

// A watch cache over a store whose executor is shut down runs its apply
// strand inline on the signalling thread. When BreakWatches kills the cache's
// channel, the inline body drops that channel's signal from inside the signal
// itself; the drop must take effect once the signal returns instead of
// deadlocking on the channel's signal mutex.
TEST(StorageConcurrencyTest, BreakWatchesWithInlineStrandReturns) {
  auto exec = std::make_shared<Executor>();
  KvStore::Options o;
  o.executor = exec;
  KvStore store(o);
  exec->Shutdown();
  apiserver::WatchCache<Pod> cache(&store, "/registry/Pod/",
                                   std::make_shared<apiserver::DecodeCache>(), exec);
  ASSERT_TRUE(cache.healthy());
  store.BreakWatches();
  // Rebuilt inline from a fresh snapshot on the breaking thread.
  EXPECT_EQ(cache.rebuilds(), 2u);
  EXPECT_TRUE(cache.healthy());
}

// The apiserver watch cache is maintained asynchronously from the store's own
// event stream, but reads through it must still be read-your-write: a Get
// immediately after a Create/Update observes that write (WaitFresh blocks
// until the cache catches up to the store revision).
TEST(StorageConcurrencyTest, WatchCacheReadYourWrite) {
  trace::Reset();
  APIServer server({});
  constexpr int kThreads = 4;
  constexpr int kPods = 40;
  ParallelFor(kThreads, [&](int t) {
    for (int i = 0; i < kPods; ++i) {
      Pod p;
      p.meta.ns = "default";
      p.meta.name = "pod-" + std::to_string(t) + "-" + std::to_string(i);
      api::Container c;
      c.name = "app";
      c.image = "img";
      p.spec.containers.push_back(c);
      Result<Pod> created = server.Create(std::move(p));
      ASSERT_TRUE(created.ok()) << created.status();
      Result<Pod> got = server.Get<Pod>("default", created->meta.name);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_GE(got->meta.resource_version, created->meta.resource_version);
    }
  });
  EXPECT_GT(server.stats().cache_served_gets.load(), 0u);
  // Unpaged lists are cache-served too, and see every write.
  Result<TypedList<Pod>> all = server.List<Pod>();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->items.size(), static_cast<size_t>(kThreads * kPods));
  // Proof, not sampling: every WaitFresh serve in the window observed a cache
  // revision >= its target, and every kind cache's event stream was gapless.
  trace::CheckOptions copts;
  copts.single_store = true;
  trace::CheckReport report = trace::DrainAndCheck(copts);
  EXPECT_TRUE(report.certified) << report.Summary();
  EXPECT_GT(report.fresh_serves, 0u);
}

}  // namespace
}  // namespace vc::kv
