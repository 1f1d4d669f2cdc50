#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/executor.h"
#include "kv/kvstore.h"

namespace vc::kv {
namespace {

TEST(KvStoreTest, PutGetRoundTrip) {
  KvStore store;
  Result<int64_t> rev = store.Put("/a", "1");
  ASSERT_TRUE(rev.ok());
  EXPECT_EQ(*rev, 1);
  Result<Entry> e = store.Get("/a");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->value, "1");
  EXPECT_EQ(e->create_revision, 1);
  EXPECT_EQ(e->mod_revision, 1);
  EXPECT_EQ(e->version, 1);
}

TEST(KvStoreTest, RevisionsMonotone) {
  KvStore store;
  int64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    Result<int64_t> rev = store.Put("/k" + std::to_string(i % 7), "v");
    ASSERT_TRUE(rev.ok());
    EXPECT_GT(*rev, last);
    last = *rev;
  }
  EXPECT_EQ(store.CurrentRevision(), 100);
}

TEST(KvStoreTest, GetMissingIsNotFound) {
  KvStore store;
  EXPECT_TRUE(store.Get("/nope").status().IsNotFound());
}

TEST(KvStoreTest, CreatePreconditionRejectsExisting) {
  KvStore store;
  ASSERT_TRUE(store.Put("/a", "1", 0).ok());
  Result<int64_t> again = store.Put("/a", "2", 0);
  EXPECT_TRUE(again.status().IsAlreadyExists());
  EXPECT_EQ(store.Get("/a")->value, "1");
}

TEST(KvStoreTest, CasUpdateDetectsConflict) {
  KvStore store;
  int64_t rev1 = *store.Put("/a", "1");
  int64_t rev2 = *store.Put("/a", "2", rev1);
  EXPECT_GT(rev2, rev1);
  // Stale writer loses.
  Result<int64_t> stale = store.Put("/a", "3", rev1);
  EXPECT_TRUE(stale.status().IsConflict());
  EXPECT_EQ(store.Get("/a")->value, "2");
  // CAS on a missing key reports NotFound.
  EXPECT_TRUE(store.Put("/missing", "x", 5).status().IsNotFound());
}

TEST(KvStoreTest, DeleteAndCasDelete) {
  KvStore store;
  int64_t rev = *store.Put("/a", "1");
  EXPECT_TRUE(store.Delete("/a", rev + 100).status().IsConflict());
  ASSERT_TRUE(store.Delete("/a", rev).ok());
  EXPECT_TRUE(store.Get("/a").status().IsNotFound());
  EXPECT_TRUE(store.Delete("/a").status().IsNotFound());
}

TEST(KvStoreTest, VersionCountsWrites) {
  KvStore store;
  store.Put("/a", "1");
  store.Put("/a", "2");
  store.Put("/a", "3");
  EXPECT_EQ(store.Get("/a")->version, 3);
  // Deleting and recreating resets version and create_revision.
  store.Delete("/a");
  store.Put("/a", "4");
  EXPECT_EQ(store.Get("/a")->version, 1);
  EXPECT_EQ(store.Get("/a")->create_revision, 5);
}

TEST(KvStoreTest, ListPrefixSortedSnapshot) {
  KvStore store;
  store.Put("/pods/ns1/a", "1");
  store.Put("/pods/ns1/b", "2");
  store.Put("/pods/ns2/c", "3");
  store.Put("/svc/ns1/x", "4");
  ListResult r = store.List("/pods/");
  EXPECT_EQ(r.entries.size(), 3u);
  EXPECT_EQ(r.entries[0].key, "/pods/ns1/a");
  EXPECT_EQ(r.revision, 4);
  EXPECT_EQ(store.List("/pods/ns1/").entries.size(), 2u);
  EXPECT_EQ(store.List("/none/").entries.size(), 0u);
}

TEST(KvStoreTest, WatchStreamsLiveEvents) {
  KvStore store;
  auto ch = *store.Watch("/a", 0);
  store.Put("/a/1", "x");
  store.Put("/b/1", "y");  // outside prefix
  store.Delete("/a/1");
  Result<Event> e1 = ch->Next(Seconds(1));
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1->type, EventType::kPut);
  EXPECT_EQ(e1->key, "/a/1");
  Result<Event> e2 = ch->Next(Seconds(1));
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2->type, EventType::kDelete);
  EXPECT_EQ(e2->prev_value, "x");
  EXPECT_TRUE(ch->Next(Millis(10)).status().code() == Code::kTimeout);
}

TEST(KvStoreTest, WatchReplaysHistoryFromRevision) {
  KvStore store;
  store.Put("/a/1", "v1");          // rev 1
  store.Put("/a/1", "v2");          // rev 2
  store.Put("/a/2", "w");           // rev 3
  auto ch = *store.Watch("/a", 1);  // replay events after rev 1
  Result<Event> e1 = ch->Next(Seconds(1));
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1->revision, 2);
  EXPECT_EQ(e1->value, "v2");
  Result<Event> e2 = ch->Next(Seconds(1));
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2->revision, 3);
  // And then live events continue seamlessly.
  store.Put("/a/3", "z");
  EXPECT_EQ(ch->Next(Seconds(1))->revision, 4);
}

TEST(KvStoreTest, WatchNoGapNoDuplicateAtListBoundary) {
  KvStore store;
  store.Put("/a/1", "x");
  ListResult snap = store.List("/a/");
  // Mutations racing with the watch creation:
  store.Put("/a/2", "y");
  auto ch = *store.Watch("/a/", snap.revision);
  store.Put("/a/3", "z");
  std::vector<int64_t> revs;
  for (int i = 0; i < 2; ++i) {
    Result<Event> e = ch->Next(Seconds(1));
    ASSERT_TRUE(e.ok());
    revs.push_back(e->revision);
  }
  EXPECT_EQ(revs, (std::vector<int64_t>{snap.revision + 1, snap.revision + 2}));
}

TEST(KvStoreTest, WatchFromCompactedRevisionIsGone) {
  KvStore store(/*max_log_events=*/5);
  for (int i = 0; i < 20; ++i) store.Put("/k", std::to_string(i));
  Result<std::shared_ptr<WatchChannel>> ch = store.Watch("/k", 1);
  EXPECT_TRUE(ch.status().IsGone());
  // Watching from the current revision still works.
  EXPECT_TRUE(store.Watch("/k", store.CurrentRevision()).ok());
}

TEST(KvStoreTest, ExplicitCompact) {
  KvStore store;
  for (int i = 0; i < 10; ++i) store.Put("/k" + std::to_string(i), "v");
  store.Compact(5);
  EXPECT_EQ(store.CompactedRevision(), 5);
  EXPECT_TRUE(store.Watch("/k", 3).status().IsGone());
  EXPECT_TRUE(store.Watch("/k", 5).ok());
}

TEST(KvStoreTest, SlowWatcherOverflowsToGone) {
  KvStore store;
  auto ch = *store.Watch("/a", 0, /*buffer_capacity=*/4);
  for (int i = 0; i < 10; ++i) store.Put("/a/k", std::to_string(i));
  // Fan-out is asynchronous: only after the dispatch strand has drained is
  // the overflow (10 events into a 4-slot buffer) guaranteed to have hit the
  // channel. Don't consume before then, or the watcher isn't actually slow.
  store.FlushWatchDispatch();
  EXPECT_FALSE(ch->ok());
  // Drain: after overflow the channel reports Gone.
  Status last;
  for (int i = 0; i < 12; ++i) {
    Result<Event> e = ch->Next(Millis(10));
    if (!e.ok()) {
      last = e.status();
      break;
    }
  }
  EXPECT_TRUE(last.IsGone());
}

TEST(KvStoreTest, CancelWakesWaiter) {
  KvStore store;
  auto ch = *store.Watch("/a", 0);
  std::thread t([&] {
    Result<Event> e = ch->Next(Seconds(5));
    EXPECT_EQ(e.status().code(), Code::kAborted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch->Cancel();
  t.join();
}

TEST(KvStoreTest, ShutdownClosesWatchesAndRejectsWrites) {
  KvStore store;
  auto ch = *store.Watch("/a", 0);
  store.Shutdown();
  EXPECT_TRUE(ch->Next(Millis(50)).status().IsGone());
  EXPECT_EQ(store.Put("/a", "x").status().code(), Code::kUnavailable);
}

TEST(KvStoreTest, BreakWatchesPreservesData) {
  KvStore store;
  store.Put("/a", "1");
  auto ch = *store.Watch("/a", 0);
  store.BreakWatches();
  // Old watch is Gone but data and revision survive.
  Status st;
  for (int i = 0; i < 3; ++i) {
    Result<Event> e = ch->Next(Millis(10));
    if (!e.ok()) {
      st = e.status();
      break;
    }
  }
  EXPECT_TRUE(st.IsGone());
  EXPECT_EQ(store.Get("/a")->value, "1");
  EXPECT_TRUE(store.Put("/a", "2").ok());
}

TEST(KvStoreTest, StartRevisionSeedsCounter) {
  KvStore store(1000, /*start_revision=*/500);
  EXPECT_EQ(*store.Put("/a", "1"), 501);
}

TEST(KvStoreTest, ByteAccountingTracksLiveData) {
  KvStore store;
  EXPECT_EQ(store.ApproxBytes(), 0u);
  store.Put("/a", std::string(100, 'x'));
  size_t with = store.ApproxBytes();
  EXPECT_GE(with, 100u);
  store.Put("/a", "s");  // shrink
  EXPECT_LT(store.ApproxBytes(), with);
  store.Delete("/a");
  EXPECT_EQ(store.ApproxBytes(), 0u);
  EXPECT_EQ(store.EntryCount(), 0u);
}

TEST(KvStoreTest, ByteBoundedLogTrimsToBudget) {
  KvStore::Options o;
  o.max_log_bytes = 2048;
  KvStore store(o);
  for (int i = 0; i < 200; ++i) store.Put("/k" + std::to_string(i % 5), std::string(100, 'x'));
  EXPECT_LE(store.LogBytes(), 2048u);
  // Byte pressure advanced the compaction horizon: old revisions are Gone.
  EXPECT_GT(store.CompactedRevision(), 0);
  EXPECT_TRUE(store.Watch("/k", 1).status().IsGone());
  EXPECT_TRUE(store.Watch("/k", store.CurrentRevision()).ok());
}

TEST(KvStoreTest, ConcurrentCasWritersLinearize) {
  KvStore store;
  store.Put("/counter", "0");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50;
  ParallelFor(kThreads, [&](int) {
    for (int i = 0; i < kIncrements; ++i) {
      for (;;) {
        Entry e = *store.Get("/counter");
        int v = std::stoi(e.value);
        Result<int64_t> r = store.Put("/counter", std::to_string(v + 1), e.mod_revision);
        if (r.ok()) break;
        ASSERT_TRUE(r.status().IsConflict());
      }
    }
  });
  EXPECT_EQ(store.Get("/counter")->value, std::to_string(kThreads * kIncrements));
}

TEST(KvStoreTest, WatcherSeesEveryEventInOrder) {
  KvStore store;
  auto ch = *store.Watch("/seq/", 0, 100000);
  constexpr int kEvents = 2000;
  std::thread writer([&] {
    for (int i = 0; i < kEvents; ++i) store.Put("/seq/k" + std::to_string(i % 10), "v");
  });
  int64_t last = 0;
  for (int i = 0; i < kEvents; ++i) {
    Result<Event> e = ch->Next(Seconds(5));
    ASSERT_TRUE(e.ok()) << e.status();
    EXPECT_GT(e->revision, last);
    last = e->revision;
  }
  writer.join();
}

// SetSignal lets the callback call back into the channel. The overflow path
// must therefore signal only after releasing the channel lock: a callback
// that calls ok() would otherwise self-deadlock the dispatch strand. The wait
// is bounded; on timeout the test fails and leaks the store and its executor
// (whose strand is stuck) instead of hanging in their destructors.
TEST(KvStoreTest, OverflowSignalRunsOutsideChannelLock) {
  Executor::Options eopts;
  eopts.threads = 1;
  auto executor = std::make_shared<Executor>(eopts);
  KvStore::Options opts;
  opts.executor = executor;
  auto store = std::make_unique<KvStore>(opts);
  std::shared_ptr<WatchChannel> ch = *store->Watch("/o/", 0, /*buffer_capacity=*/1);
  auto saw_gone = std::make_shared<std::atomic<bool>>(false);
  ch->SetSignal([raw = ch.get(), saw_gone] {
    if (!raw->ok()) saw_gone->store(true);
  });
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store->Put("/o/k", std::to_string(i)).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!saw_gone->load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!saw_gone->load()) {
    (void)new std::shared_ptr<Executor>(std::move(executor));  // leaked on purpose
    (void)store.release();
    (void)new std::shared_ptr<WatchChannel>(std::move(ch));
    FAIL() << "overflow signal never observed ok() == false (strand deadlocked)";
  }
  EXPECT_FALSE(ch->ok());
  ch->SetSignal(nullptr);
}

// A signal raised on the signalling thread from inside the signal (here the
// consumer cancelling its own channel) reaches the callback too, on that
// thread, instead of deadlocking on the channel's signal mutex or vanishing.
TEST(KvStoreTest, SignalFromInsideTheSignalIsDelivered) {
  KvStore store;
  std::shared_ptr<WatchChannel> ch = *store.Watch("/s/", 0, 16);
  int calls = 0;
  bool cancelled = false;
  ch->SetSignal([raw = ch.get(), &calls, &cancelled] {
    ++calls;
    if (!cancelled) {
      cancelled = true;
      raw->Cancel();
    }
  });
  ch->Cancel();  // outer signal; its callback cancels again from inside
  EXPECT_EQ(calls, 2);
  ch->SetSignal(nullptr);
}

}  // namespace
}  // namespace vc::kv
