// WAL-backed durability: crash simulation via TestAbandonWal (drops buffered
// records and closes the file WITHOUT flushing, like a process death), then a
// fresh KvStore over the same directory must restore the flushed prefix
// byte-exact with its revision stream intact. Labeled `concurrency` so the
// tsan/asan presets cover the WAL batching paths too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apiserver/apiserver.h"
#include "common/executor.h"
#include "common/hash.h"
#include "kv/kvstore.h"
#include "kv/wal.h"

namespace vc::kv {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on teardown.
class KvDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / ("vc_wal_" + NewUid())).string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  KvStore::Options SyncOptions() const {
    KvStore::Options o;
    o.wal_dir = dir_;
    o.wal_sync_every_commit = true;
    return o;
  }

  std::string dir_;
};

// Every acked write in sync mode survives the crash byte-exact: values,
// create_revision / mod_revision / version, and the revision counter itself
// (the first post-restart Put mints exactly R+1).
TEST_F(KvDurabilityTest, WalRoundTripRestoresByteExact) {
  std::map<std::string, Entry> expect;
  int64_t final_rev = 0;
  {
    KvStore store(SyncOptions());
    for (int i = 0; i < 200; ++i) {
      const std::string key = "/d/k" + std::to_string(i % 40);
      Result<int64_t> r = store.Put(key, "v" + std::to_string(i));
      ASSERT_TRUE(r.ok()) << r.status();
      final_rev = *r;
    }
    // Churn: overwrite some, delete some — recovery must replay history, not
    // just last-writer-wins on a union of records.
    for (int i = 0; i < 40; i += 3) {
      ASSERT_TRUE(store.Delete("/d/k" + std::to_string(i)).ok());
    }
    Result<int64_t> last = store.Put("/d/k1", "final");
    ASSERT_TRUE(last.ok());
    final_rev = *last;
    for (const Entry& e : store.List("/d/").entries) expect[e.key] = e;
    ASSERT_TRUE(store.WalHealth().ok());
    store.TestAbandonWal();  // crash: nothing buffered in sync mode
  }
  KvStore revived(SyncOptions());
  EXPECT_EQ(revived.CurrentRevision(), final_rev);
  ListResult all = revived.List("/d/");
  ASSERT_EQ(all.entries.size(), expect.size());
  for (const Entry& e : all.entries) {
    auto it = expect.find(e.key);
    ASSERT_NE(it, expect.end()) << e.key;
    EXPECT_EQ(e.value.str(), it->second.value.str()) << e.key;
    EXPECT_EQ(e.create_revision, it->second.create_revision) << e.key;
    EXPECT_EQ(e.mod_revision, it->second.mod_revision) << e.key;
    EXPECT_EQ(e.version, it->second.version) << e.key;
  }
  // The revision stream continues where it left off.
  Result<int64_t> next = revived.Put("/d/new", "x");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, final_rev + 1);
}

// A crash mid-append leaves a torn record at the WAL tail. Recovery keeps the
// intact prefix, discards the tail, and — critically — the recovery
// checkpoint folds state into a fresh snapshot+WAL so the debris can never
// shadow future appends.
TEST_F(KvDurabilityTest, RecoveryIgnoresTornTail) {
  int64_t acked = 0;
  {
    KvStore store(SyncOptions());
    for (int i = 0; i < 50; ++i) {
      Result<int64_t> r = store.Put("/t/k" + std::to_string(i), "v");
      ASSERT_TRUE(r.ok());
      acked = *r;
    }
    store.TestAbandonWal();
  }
  const std::string wal_path = dir_ + "/" + wal::kWalFile;
  // Variant 1: garbage appended after the last intact record (partial write
  // of the next record's length+payload).
  {
    FILE* f = fopen(wal_path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[] = "\x40\x00\x00\x00partial-record-that-never-finished";
    fwrite(junk, 1, sizeof(junk) - 1, f);
    fclose(f);
  }
  {
    KvStore revived(SyncOptions());
    EXPECT_EQ(revived.CurrentRevision(), acked);
    EXPECT_EQ(revived.List("/t/").entries.size(), 50u);
    ASSERT_TRUE(revived.WalHealth().ok());
    // Appending after recovery works: the checkpoint truncated the debris.
    ASSERT_TRUE(revived.Put("/t/after", "1").ok());
    ASSERT_TRUE(revived.WalHealth().ok());
    revived.TestAbandonWal();
  }
  // Variant 2: truncate mid-record (short read at replay).
  {
    const auto size = fs::file_size(wal_path);
    ASSERT_GT(size, 10u);
    fs::resize_file(wal_path, size - 7);
  }
  KvStore again(SyncOptions());
  // /t/after's record was flushed (sync mode) but then truncated mid-record;
  // the 50-key prefix from the recovery snapshot must still be intact.
  EXPECT_GE(again.List("/t/").entries.size(), 50u);
  EXPECT_GE(again.CurrentRevision(), acked);
  EXPECT_TRUE(again.WalHealth().ok());
}

// WAL growth triggers snapshot checkpoints that truncate the log; the store
// survives a crash right after checkpointing with only the snapshot.
TEST_F(KvDurabilityTest, SnapshotCheckpointTruncatesWal) {
  KvStore::Options o = SyncOptions();
  o.wal_rotate_bytes = 4096;  // force frequent checkpoints
  int64_t final_rev = 0;
  {
    KvStore store(o);
    const std::string big(256, 'x');
    for (int i = 0; i < 100; ++i) {
      Result<int64_t> r = store.Put("/s/k" + std::to_string(i % 10), big);
      ASSERT_TRUE(r.ok());
      final_rev = *r;
    }
    EXPECT_GT(store.WalCheckpoints(), 0u);
    EXPECT_LT(store.WalFileBytes(), 3u * 4096u);  // rotation kept it bounded
    store.TestAbandonWal();
  }
  KvStore revived(o);
  EXPECT_EQ(revived.CurrentRevision(), final_rev);
  EXPECT_EQ(revived.List("/s/").entries.size(), 10u);
  for (const Entry& e : revived.List("/s/").entries) {
    EXPECT_EQ(e.value.size(), 256u);
  }
}

// Crash mid-burst under concurrent writers: with sync-every-commit, every
// revision a writer saw acked before the crash is recovered, and the
// recovered state equals a sequential replay of the committed prefix.
TEST_F(KvDurabilityTest, CrashMidWriteBurstRecoversPrefix) {
  constexpr int kThreads = 4;
  constexpr int kWrites = 200;
  std::atomic<int64_t> max_acked{0};
  {
    KvStore store(SyncOptions());
    ParallelFor(kThreads, [&](int t) {
      for (int i = 0; i < kWrites; ++i) {
        Result<int64_t> r =
            store.Put("/burst/t" + std::to_string(t), std::to_string(i));
        ASSERT_TRUE(r.ok()) << r.status();
        int64_t seen = max_acked.load(std::memory_order_relaxed);
        while (*r > seen &&
               !max_acked.compare_exchange_weak(seen, *r,
                                                std::memory_order_relaxed)) {
        }
      }
    });
    store.TestAbandonWal();  // crash with all acks issued
  }
  KvStore revived(SyncOptions());
  // Nothing acked may be lost. (Sync mode: Put returns only after its record
  // — and by publication order, all earlier records — hit the file.)
  EXPECT_GE(revived.CurrentRevision(), max_acked.load());
  ListResult all = revived.List("/burst/");
  EXPECT_EQ(all.entries.size(), static_cast<size_t>(kThreads));
  for (const Entry& e : all.entries) {
    // Each key's final value is its thread's last acked write.
    EXPECT_EQ(e.value.str(), std::to_string(kWrites - 1));
    EXPECT_EQ(e.version, kWrites);
  }
}

// Watch semantics across restart: the replay log does not survive, so the
// recovered store is compacted up to its recovered revision — watches from
// older revisions get 410 Gone (forcing a relist), watches from the current
// revision work and see new events.
TEST_F(KvDurabilityTest, RecoveredStoreWatchSemantics) {
  int64_t rev = 0;
  {
    KvStore store(SyncOptions());
    for (int i = 0; i < 20; ++i) rev = *store.Put("/w/k", std::to_string(i));
    store.TestAbandonWal();
  }
  KvStore revived(SyncOptions());
  EXPECT_EQ(revived.CompactedRevision(), rev);
  // History predating the crash is gone — exactly etcd's ErrCompacted.
  Result<std::shared_ptr<WatchChannel>> old = revived.Watch("/w/", rev - 5);
  ASSERT_FALSE(old.ok());
  EXPECT_TRUE(old.status().IsGone()) << old.status();
  // From the recovered revision on, the stream is live and gapless.
  auto ch = revived.Watch("/w/", revived.CurrentRevision());
  ASSERT_TRUE(ch.ok()) << ch.status();
  const int64_t r1 = *revived.Put("/w/k", "post-restart");
  EXPECT_EQ(r1, rev + 1);
  revived.FlushWatchDispatch();
  Result<Event> e = (*ch)->Next(Seconds(5));
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(e->revision, r1);
  EXPECT_EQ(e->value.str(), "post-restart");
}

// Buffered (non-sync) mode: un-flushed batches are lost at a crash — that is
// the contract — but an explicit SyncWal() makes everything before it
// durable.
TEST_F(KvDurabilityTest, BufferedModeLosesOnlyUnflushedTail) {
  KvStore::Options o;
  o.wal_dir = dir_;
  o.wal_sync_every_commit = false;
  o.wal_buffer_bytes = 1 << 20;  // big: nothing auto-flushes
  int64_t synced_rev = 0;
  {
    KvStore store(o);
    for (int i = 0; i < 30; ++i) synced_rev = *store.Put("/b/k" + std::to_string(i), "v");
    ASSERT_TRUE(store.SyncWal().ok());
    // These never reach the file.
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(store.Put("/b/lost" + std::to_string(i), "v").ok());
    store.TestAbandonWal();
  }
  KvStore revived(o);
  EXPECT_EQ(revived.CurrentRevision(), synced_rev);
  EXPECT_EQ(revived.List("/b/").entries.size(), 30u);
  EXPECT_TRUE(revived.List("/b/lost").entries.empty());
}

// A whole control plane over a durable store: an APIServer built with
// store_options.wal_dir restarts into a new APIServer whose clients see the
// same objects at the same resourceVersions.
TEST_F(KvDurabilityTest, ApiServerSurvivesRestartOverWal) {
  using api::Pod;
  using apiserver::APIServer;
  int64_t rv = 0;
  {
    APIServer::Options opts;
    opts.store_options.wal_dir = dir_;
    opts.store_options.wal_sync_every_commit = true;
    APIServer server(std::move(opts));
    for (int i = 0; i < 10; ++i) {
      Pod p;
      p.meta.ns = "default";
      p.meta.name = "pod-" + std::to_string(i);
      api::Container c;
      c.name = "app";
      c.image = "img";
      p.spec.containers.push_back(c);
      Result<Pod> created = server.Create(std::move(p));
      ASSERT_TRUE(created.ok()) << created.status();
      rv = created->meta.resource_version;
    }
    server.store().TestAbandonWal();
  }
  APIServer::Options opts;
  opts.store_options.wal_dir = dir_;
  opts.store_options.wal_sync_every_commit = true;
  APIServer revived(std::move(opts));
  Result<apiserver::TypedList<Pod>> pods = revived.List<Pod>();
  ASSERT_TRUE(pods.ok()) << pods.status();
  EXPECT_EQ(pods->items.size(), 10u);
  Result<Pod> p9 = revived.Get<Pod>("default", "pod-9");
  ASSERT_TRUE(p9.ok()) << p9.status();
  EXPECT_EQ(p9->meta.resource_version, rv);
  EXPECT_EQ(p9->spec.containers.at(0).image, "img");
}

}  // namespace
}  // namespace vc::kv
