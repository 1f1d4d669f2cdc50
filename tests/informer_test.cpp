#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/informer.h"

namespace vc::client {
namespace {

using api::Pod;
using apiserver::APIServer;

Pod SimplePod(const std::string& ns, const std::string& name) {
  Pod p;
  p.meta.ns = ns;
  p.meta.name = name;
  api::Container c;
  c.name = "app";
  c.image = "img";
  p.spec.containers.push_back(c);
  return p;
}

struct Counters {
  std::atomic<int> adds{0}, updates{0}, deletes{0};
};

EventHandlers<Pod> CountingHandlers(Counters& c) {
  EventHandlers<Pod> h;
  h.on_add = [&c](const Pod&) { c.adds++; };
  h.on_update = [&c](const Pod&, const Pod&) { c.updates++; };
  h.on_delete = [&c](const Pod&) { c.deletes++; };
  return h;
}

void WaitUntil(const std::function<bool()>& pred, int timeout_ms = 3000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (pred()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "condition not reached in " << timeout_ms << "ms";
}

TEST(InformerTest, SyncsPreexistingObjects) {
  APIServer server({});
  server.Create(SimplePod("default", "a"));
  server.Create(SimplePod("default", "b"));
  Counters c;
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server)};
  inf.AddHandlers(CountingHandlers(c));
  inf.Start();
  ASSERT_TRUE(inf.WaitForSync(Seconds(3)));
  WaitUntil([&] { return c.adds.load() == 2; });
  EXPECT_EQ(inf.cache().Size(), 2u);
  EXPECT_NE(inf.cache().Get("default", "a"), nullptr);
  inf.Stop();
}

TEST(InformerTest, StreamsLiveAddsUpdatesDeletes) {
  APIServer server({});
  Counters c;
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server)};
  inf.AddHandlers(CountingHandlers(c));
  inf.Start();
  ASSERT_TRUE(inf.WaitForSync(Seconds(3)));
  Result<Pod> p = server.Create(SimplePod("default", "x"));
  WaitUntil([&] { return c.adds.load() == 1; });
  p->status.message = "changed";
  ASSERT_TRUE(server.Update(*p).ok());
  WaitUntil([&] { return c.updates.load() == 1; });
  ASSERT_TRUE(server.Delete<Pod>("default", "x").ok());
  WaitUntil([&] { return c.deletes.load() == 1; });
  EXPECT_EQ(inf.cache().Size(), 0u);
  inf.Stop();
}

TEST(InformerTest, CacheHoldsLatestVersion) {
  APIServer server({});
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server)};
  inf.Start();
  ASSERT_TRUE(inf.WaitForSync(Seconds(3)));
  Result<Pod> p = server.Create(SimplePod("default", "x"));
  for (int i = 0; i < 5; ++i) {
    p->meta.annotations["rev"] = std::to_string(i);
    p = server.Update(*p);
    ASSERT_TRUE(p.ok());
  }
  WaitUntil([&] {
    auto cached = inf.cache().Get("default", "x");
    return cached && cached->meta.annotations.count("rev") &&
           cached->meta.annotations.at("rev") == "4";
  });
  EXPECT_EQ(inf.cache().Get("default", "x")->meta.resource_version,
            p->meta.resource_version);
  inf.Stop();
}

// A broken watch whose resume revision has been compacted away forces a full
// relist; objects created while the informer was "disconnected" appear via
// synthetic adds, deleted ones via synthetic deletes. This is the recovery
// path the paper's syncer leans on. (When the resume revision is NOT
// compacted the informer resumes the watch in place instead of relisting —
// covered in read_path_test.cpp.)
TEST(InformerTest, RelistAfterRestartEmitsSyntheticDeltas) {
  APIServer server({});
  server.Create(SimplePod("default", "keep"));
  server.Create(SimplePod("default", "will-die"));
  Counters c;
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server)};
  inf.AddHandlers(CountingHandlers(c));
  inf.Start();
  ASSERT_TRUE(inf.WaitForSync(Seconds(3)));
  WaitUntil([&] { return c.adds.load() == 2; });
  uint64_t relists_before = inf.relists();

  server.Restart();  // breaks the watch
  server.Create(SimplePod("default", "born-during-outage"));
  server.Delete<Pod>("default", "will-die");
  // Advance the store revision with churn the Pod watcher never sees, then
  // compact the whole log and break watches again. Whatever revision the
  // informer reached by now is strictly below the compaction horizon, so its
  // resume attempt gets Gone and it MUST take the relist path.
  api::ConfigMap cm;
  cm.meta.ns = "default";
  cm.meta.name = "churn";
  server.Create(cm);
  server.store().Compact(server.store().CurrentRevision());
  server.Restart();

  WaitUntil([&] { return inf.relists() > relists_before; });
  WaitUntil([&] { return c.adds.load() == 3 && c.deletes.load() == 1; });
  EXPECT_EQ(inf.cache().Size(), 2u);
  EXPECT_NE(inf.cache().Get("default", "born-during-outage"), nullptr);
  EXPECT_EQ(inf.cache().Get("default", "will-die"), nullptr);
  inf.Stop();
}

TEST(InformerTest, NamespaceScopedInformerIgnoresOthers) {
  APIServer server({});
  api::NamespaceObj ns;
  ns.meta.name = "other";
  server.Create(ns);
  Counters c;
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server, "default")};
  inf.AddHandlers(CountingHandlers(c));
  inf.Start();
  ASSERT_TRUE(inf.WaitForSync(Seconds(3)));
  server.Create(SimplePod("other", "foreign"));
  server.Create(SimplePod("default", "mine"));
  WaitUntil([&] { return c.adds.load() >= 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(c.adds.load(), 1);
  EXPECT_EQ(inf.cache().Size(), 1u);
  inf.Stop();
}

TEST(InformerTest, MultipleHandlersAllInvoked) {
  APIServer server({});
  Counters c1, c2;
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server)};
  inf.AddHandlers(CountingHandlers(c1));
  inf.AddHandlers(CountingHandlers(c2));
  inf.Start();
  ASSERT_TRUE(inf.WaitForSync(Seconds(3)));
  server.Create(SimplePod("default", "x"));
  WaitUntil([&] { return c1.adds.load() == 1 && c2.adds.load() == 1; });
  inf.Stop();
}

TEST(InformerTest, StopIsIdempotentAndJoins) {
  APIServer server({});
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server)};
  inf.Start();
  inf.Stop();
  inf.Stop();
}

TEST(ObjectCacheTest, ListNamespaceUsesKeyPrefix) {
  ObjectCache<Pod> cache;
  cache.Upsert(SimplePod("aa", "x"));
  cache.Upsert(SimplePod("aab", "y"));  // prefix-adjacent namespace
  cache.Upsert(SimplePod("aa", "z"));
  EXPECT_EQ(cache.ListNamespace("aa").size(), 2u);
  EXPECT_EQ(cache.ListNamespace("aab").size(), 1u);
  EXPECT_EQ(cache.ListNamespace("b").size(), 0u);
}

TEST(ObjectCacheTest, UpsertReturnsPrevious) {
  ObjectCache<Pod> cache;
  EXPECT_EQ(cache.Upsert(SimplePod("ns", "a")), nullptr);
  Pod v2 = SimplePod("ns", "a");
  v2.status.message = "v2";
  auto old = cache.Upsert(v2);
  ASSERT_NE(old, nullptr);
  EXPECT_TRUE(old->status.message.empty());
  auto removed = cache.Delete("ns/a");
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->status.message, "v2");
  EXPECT_EQ(cache.Delete("ns/a"), nullptr);
}

TEST(ObjectCacheTest, ApproxBytesTracksContent) {
  ObjectCache<Pod> cache;
  EXPECT_EQ(cache.ApproxBytes(), 0u);
  Pod p = SimplePod("ns", "big");
  for (int i = 0; i < 50; ++i) p.meta.annotations["k" + std::to_string(i)] = std::string(100, 'x');
  cache.Upsert(p);
  EXPECT_GT(cache.ApproxBytes(), 5000u);
}

}  // namespace
}  // namespace vc::client
