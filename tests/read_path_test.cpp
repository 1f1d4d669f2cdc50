// Server-side read path: selectors, paginated LIST + continue tokens, watch
// bookmarks, and the informer's bookmark-driven resume. Also covers the
// "update-status" RBAC verb split for status-only identities.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "client/informer.h"
#include "client/typed_client.h"
#include "pool_gate.h"

namespace vc::client {
namespace {

using api::Pod;
using apiserver::APIServer;
using apiserver::DecodeCache;
using apiserver::ListOptions;
using apiserver::PolicyRule;
using apiserver::RequestContext;
using apiserver::TypedList;
using apiserver::WatchEvent;
using apiserver::WatchOptions;

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

Pod LabeledPod(const std::string& ns, const std::string& name,
               const std::string& key, const std::string& value) {
  Pod p = SimplePod(ns, name);
  p.meta.labels[key] = value;
  return p;
}

void WaitUntil(const std::function<bool()>& pred, int timeout_ms = 3000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (pred()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "condition not reached in " << timeout_ms << "ms";
}

// ------------------------------------------------------------- pagination

TEST(ReadPathTest, PaginatedListFollowsContinueTokens) {
  APIServer server({});
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(server.Create(SimplePod("default", "pod-" + std::to_string(i))).ok());
  }
  std::set<std::string> seen;
  ListOptions opts;
  opts.limit = 10;
  int pages = 0;
  for (;;) {
    Result<TypedList<Pod>> page = server.List<Pod>(opts);
    ASSERT_TRUE(page.ok()) << page.status();
    pages++;
    for (const Pod& p : page->items) {
      EXPECT_TRUE(seen.insert(p.meta.name).second) << "duplicate " << p.meta.name;
    }
    if (!page->more) break;
    ASSERT_FALSE(page->continue_token.empty());
    opts.continue_token = page->continue_token;
  }
  EXPECT_EQ(seen.size(), 25u);
  EXPECT_EQ(pages, 3);  // 10 + 10 + 5
}

TEST(ReadPathTest, ContinueTokenExpiresAcrossCompaction) {
  APIServer server({});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server.Create(SimplePod("default", "pod-" + std::to_string(i))).ok());
  }
  ListOptions opts;
  opts.limit = 5;
  Result<TypedList<Pod>> first = server.List<Pod>(opts);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->more);

  // Churn + compaction past the token's pinned snapshot revision.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Create(SimplePod("default", "churn-" + std::to_string(i))).ok());
  }
  server.store().Compact(server.store().CurrentRevision());

  opts.continue_token = first->continue_token;
  Result<TypedList<Pod>> second = server.List<Pod>(opts);
  EXPECT_TRUE(second.status().IsGone()) << second.status();

  // 410 recovery: drop the token and relist from scratch.
  opts.continue_token.clear();
  std::set<std::string> seen;
  for (;;) {
    Result<TypedList<Pod>> page = server.List<Pod>(opts);
    ASSERT_TRUE(page.ok()) << page.status();
    for (const Pod& p : page->items) seen.insert(p.meta.name);
    if (!page->more) break;
    opts.continue_token = page->continue_token;
  }
  EXPECT_EQ(seen.size(), 25u);
}

TEST(ReadPathTest, MalformedContinueTokenIsInvalidArgument) {
  APIServer server({});
  for (const char* bad : {"garbage", "v1:", "v1:notanumber:key", "v1:-3:key", "v2:5:key"}) {
    ListOptions opts;
    opts.continue_token = bad;
    EXPECT_EQ(server.List<Pod>(opts).status().code(), Code::kInvalidArgument)
        << "token: " << bad;
  }
}

TEST(ReadPathTest, ForeignContinueKeyIsInvalidArgument) {
  // A token whose key lies outside the List's prefix must not page at all:
  // the store would start its scan past that key and stop at the first key
  // outside the prefix, answering a silent empty page.
  APIServer server({});
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(server.Create(SimplePod("kube-system", "pod-" + std::to_string(i))).ok());
  }
  const int64_t rev = server.store().CurrentRevision();
  for (const char* foreign : {"/registry/Pod/default/pod-1", "/registry/Service/kube-system/a"}) {
    ListOptions opts;
    opts.ns = "kube-system";
    opts.limit = 100;
    opts.continue_token = APIServer::MakeContinueToken(rev, foreign);
    EXPECT_EQ(server.List<Pod>(opts).status().code(), Code::kInvalidArgument)
        << "key: " << foreign;
  }
  // The same revision with a key under the prefix still pages normally.
  ListOptions opts;
  opts.ns = "kube-system";
  opts.limit = 100;
  opts.continue_token = APIServer::MakeContinueToken(rev, "/registry/Pod/kube-system/pod-1");
  Result<TypedList<Pod>> page = server.List<Pod>(opts);
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_FALSE(page->items.empty());
}

// -------------------------------------------------------------- selectors

TEST(ReadPathTest, LabelSelectorFiltersAndPaginates) {
  APIServer server({});
  for (int i = 0; i < 30; ++i) {
    const std::string tier = (i % 3 == 0) ? "web" : "batch";
    ASSERT_TRUE(
        server.Create(LabeledPod("default", "pod-" + std::to_string(i), "tier", tier))
            .ok());
  }
  ListOptions opts;
  opts.label_selector = "tier=web";
  Result<TypedList<Pod>> all = server.List<Pod>(opts);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->items.size(), 10u);

  // limit counts MATCHING objects, not scanned ones.
  opts.limit = 4;
  std::set<std::string> seen;
  for (;;) {
    Result<TypedList<Pod>> page = server.List<Pod>(opts);
    ASSERT_TRUE(page.ok());
    EXPECT_LE(page->items.size(), 4u);
    for (const Pod& p : page->items) {
      EXPECT_EQ(p.meta.labels.at("tier"), "web");
      seen.insert(p.meta.name);
    }
    if (!page->more) break;
    opts.continue_token = page->continue_token;
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(ReadPathTest, FieldSelectorMatchesScalarPaths) {
  APIServer server({});
  Pod bound = SimplePod("default", "bound");
  bound.spec.node_name = "node-1";
  ASSERT_TRUE(server.Create(bound).ok());
  ASSERT_TRUE(server.Create(SimplePod("default", "pending")).ok());

  ListOptions opts;
  opts.field_selector = "spec.nodeName=node-1";
  Result<TypedList<Pod>> got = server.List<Pod>(opts);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->items.size(), 1u);
  EXPECT_EQ(got->items[0].meta.name, "bound");

  // Missing path compares equal to the empty string (unscheduled pods).
  opts.field_selector = "spec.nodeName=";
  got = server.List<Pod>(opts);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->items.size(), 1u);
  EXPECT_EQ(got->items[0].meta.name, "pending");

  opts.field_selector = "metadata.name!=bound";
  got = server.List<Pod>(opts);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->items.size(), 1u);
  EXPECT_EQ(got->items[0].meta.name, "pending");
}

TEST(ReadPathTest, BadSelectorIsInvalidArgument) {
  APIServer server({});
  ListOptions opts;
  opts.label_selector = "a in b";  // set op without parentheses
  EXPECT_EQ(server.List<Pod>(opts).status().code(), Code::kInvalidArgument);
  WatchOptions wopts;
  wopts.field_selector = "justapath";
  EXPECT_EQ(server.Watch<Pod>(wopts).status().code(), Code::kInvalidArgument);
}

TEST(ReadPathTest, SelectiveListDecodesOnlyMatches) {
  APIServer server({});
  for (int i = 0; i < 200; ++i) {
    const std::string tier = (i == 57) ? "rare" : "common";
    ASSERT_TRUE(
        server.Create(LabeledPod("default", "pod-" + std::to_string(i), "tier", tier))
            .ok());
  }
  // Unpaged selective list: served from the watch cache — label selectors
  // are evaluated directly on cached decoded objects, so zero bytes go
  // through the JSON decoder (and none even need skip-scanning).
  {
    const uint64_t decoded0 = server.stats().list_bytes_decoded.load();
    const uint64_t cached0 = server.stats().cache_served_lists.load();
    ListOptions opts;
    opts.label_selector = "tier=rare";
    Result<TypedList<Pod>> got = server.List<Pod>(opts);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->items.size(), 1u);
    EXPECT_GT(server.stats().cache_served_lists.load(), cached0);
    EXPECT_EQ(server.stats().list_bytes_decoded.load(), decoded0);
  }
  // Paged selective list: falls back to the store path, which decodes only
  // the objects that pass the selector skip-scan.
  {
    const uint64_t scanned0 = server.stats().list_bytes_scanned.load();
    const uint64_t decoded0 = server.stats().list_bytes_decoded.load();
    ListOptions opts;
    opts.label_selector = "tier=rare";
    opts.limit = 10;
    Result<TypedList<Pod>> got = server.List<Pod>(opts);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->items.size(), 1u);
    const uint64_t scanned = server.stats().list_bytes_scanned.load() - scanned0;
    const uint64_t decoded = server.stats().list_bytes_decoded.load() - decoded0;
    EXPECT_GT(decoded, 0u);
    // 1 match in 200: decode cost must be a small fraction of the scan cost.
    EXPECT_GE(scanned, decoded * 10);
  }
}

// ---------------------------------------------------------- watch + bookmarks

TEST(ReadPathTest, SelectorWatchDeliversOnlyMatches) {
  APIServer server({});
  WatchOptions wopts;
  wopts.label_selector = "tier=web";
  wopts.from_revision = server.List<Pod>()->revision;
  auto w = server.Watch<Pod>(wopts);
  ASSERT_TRUE(w.ok()) << w.status();

  ASSERT_TRUE(server.Create(LabeledPod("default", "w0", "tier", "web")).ok());
  ASSERT_TRUE(server.Create(LabeledPod("default", "b0", "tier", "batch")).ok());
  Result<Pod> w1 = server.Create(LabeledPod("default", "w1", "tier", "web"));
  ASSERT_TRUE(w1.ok());

  Result<WatchEvent<Pod>> e = w->Next(Seconds(1));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->type, WatchEvent<Pod>::Type::kPut);
  EXPECT_EQ(e->object.meta.name, "w0");
  e = w->Next(Seconds(1));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->object.meta.name, "w1");  // b0 was filtered server-side

  // Leaving the selection is surfaced as a delete of the last matching state.
  w1->meta.labels["tier"] = "batch";
  ASSERT_TRUE(server.Update(*w1).ok());
  e = w->Next(Seconds(1));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->type, WatchEvent<Pod>::Type::kDelete);
  EXPECT_EQ(e->object.meta.name, "w1");

  // Deleting a never-matching object is invisible.
  ASSERT_TRUE(server.Delete<Pod>("default", "b0").ok());
  ASSERT_TRUE(server.Delete<Pod>("default", "w0").ok());
  e = w->Next(Seconds(1));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->type, WatchEvent<Pod>::Type::kDelete);
  EXPECT_EQ(e->object.meta.name, "w0");
}

TEST(ReadPathTest, FullyFilteredWatchReceivesBookmarks) {
  APIServer server({});
  WatchOptions wopts;
  wopts.label_selector = "tier=web";
  wopts.from_revision = server.List<Pod>()->revision;
  wopts.bookmark_interval = 4;
  auto w = server.Watch<Pod>(wopts);
  ASSERT_TRUE(w.ok());

  // Invisible churn only: every event is filtered, so the channel carries
  // nothing but bookmarks — and their revisions keep advancing.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        server.Create(LabeledPod("default", "b" + std::to_string(i), "tier", "batch"))
            .ok());
  }
  int bookmarks = 0;
  int64_t last_rev = 0;
  for (;;) {
    Result<WatchEvent<Pod>> e = w->Next(Millis(200));
    if (!e.ok()) break;
    ASSERT_EQ(e->type, WatchEvent<Pod>::Type::kBookmark);
    EXPECT_GT(e->revision, last_rev);
    last_rev = e->revision;
    bookmarks++;
  }
  EXPECT_GE(bookmarks, 2);
  EXPECT_GE(last_rev, server.store().CurrentRevision() - wopts.bookmark_interval);
}

TEST(ReadPathTest, BookmarksLetIdleInformerResumeWithoutRelist) {
  APIServer server({});
  ReflectorOptions<Pod> ropts;
  ropts.label_selector = "tier=web";
  ropts.bookmark_interval = 4;
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server, ropts)};
  inf.Start();
  ASSERT_TRUE(inf.WaitForSync(Seconds(3)));

  // Invisible churn far past the bookmark interval, then compact everything.
  // Without bookmarks the informer's resume revision would sit at its initial
  // list and fall below the compaction horizon — forcing a full relist.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        server.Create(LabeledPod("default", "b" + std::to_string(i), "tier", "batch"))
            .ok());
  }
  WaitUntil([&] { return inf.bookmarks() > 0; });
  // Quiesce: wait for the bookmark stream to drain so the informer's resume
  // revision reflects the latest churn (the final bookmark is always within
  // bookmark_interval of the head revision).
  uint64_t stable = inf.bookmarks();
  for (int i = 0; i < 60; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t now = inf.bookmarks();
    if (now == stable) break;
    stable = now;
  }
  server.store().Compact(server.store().CurrentRevision() - ropts.bookmark_interval);
  server.Restart();  // break the watch; resume must come from a bookmark rev

  // The informer still sees live matching traffic after resuming.
  std::atomic<int> adds{0};
  EventHandlers<Pod> h;
  h.on_add = [&](const Pod&) { adds++; };
  inf.AddHandlers(std::move(h));
  ASSERT_TRUE(server.Create(LabeledPod("default", "w0", "tier", "web")).ok());
  WaitUntil([&] { return adds.load() >= 1; });

  EXPECT_EQ(inf.relists(), 1u) << "bookmark resume should avoid a relist";
  EXPECT_GE(inf.resumes(), 1u);
  inf.Stop();
}

// ----------------------------------------------------- update-status RBAC

TEST(ReadPathTest, UpdateStatusVerbIsSeparateFromUpdate) {
  APIServer server({});
  Result<Pod> pod = server.Create(SimplePod("default", "web-0"));
  ASSERT_TRUE(pod.ok());

  server.authorizer().Grant(
      "kubelet", PolicyRule{{"get", "update-status"}, {"Pod"}, {"*"}});
  server.authorizer().Grant("editor", PolicyRule{{"get", "update"}, {"Pod"}, {"*"}});

  RequestContext kubelet;
  kubelet.identity = apiserver::Identity{"kubelet", {}, ""};
  RequestContext editor;
  editor.identity = apiserver::Identity{"editor", {}, ""};

  // Status-only identity: UpdateStatus allowed, spec Update forbidden.
  pod->status.message = "running";
  EXPECT_TRUE(server.UpdateStatus(*pod, kubelet).ok());
  EXPECT_EQ(server.Update(*pod, kubelet).status().code(), Code::kForbidden);

  // Spec identity: Update allowed, UpdateStatus forbidden.
  Result<Pod> fresh = server.Get<Pod>("default", "web-0", editor);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(server.Update(*fresh, editor).ok());
  fresh = server.Get<Pod>("default", "web-0", editor);
  EXPECT_EQ(server.UpdateStatus(*fresh, editor).status().code(), Code::kForbidden);

  // RetryUpdateStatus drives the status verb end to end.
  EXPECT_TRUE(apiserver::RetryUpdateStatus<Pod>(server, "default", "web-0",
                                                [](Pod& p) {
                                                  p.status.message = "ready";
                                                  return true;
                                                },
                                                kubelet)
                  .ok());
  EXPECT_EQ(server.Get<Pod>("default", "web-0")->status.message, "ready");
}

// ------------------------------------------------------------ TypedClient

TEST(ReadPathTest, TypedClientScopesVerbs) {
  APIServer server({});
  TypedClient<Pod> pods(&server, "default", RequestContext::Loopback("test-client"));

  ASSERT_TRUE(pods.Create(LabeledPod("", "w0", "tier", "web")).ok());
  ASSERT_TRUE(pods.Create(LabeledPod("", "b0", "tier", "batch")).ok());
  EXPECT_TRUE(pods.Get("w0").ok());

  ListOptions opts;
  opts.label_selector = "tier=web";
  Result<TypedList<Pod>> got = pods.List(opts);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->items.size(), 1u);
  EXPECT_EQ(got->items[0].meta.name, "w0");

  EXPECT_TRUE(pods.RetryUpdate("w0", [](Pod& p) {
    p.meta.labels["patched"] = "yes";
    return true;
  }).ok());
  EXPECT_EQ(pods.Get("w0")->meta.labels.count("patched"), 1u);

  EXPECT_TRUE(pods.Delete("b0").ok());
  EXPECT_TRUE(pods.Get("b0").status().IsNotFound());

  // Per-identity attribution keyed by user/user_agent.
  EXPECT_GT(server.stats().IdentityRequests("system:loopback/test-client"), 0u);
}

// ---------------------------------------------------- write-through decode

// While an ExecutorGate parks the default pool, no watch consumer (store
// fan-out, watch cache, informer) runs, so every reader of a write reaches
// the DecodeCache after the writer's verb has returned. That pins the order
// the seed is meant to win in the common case; a reader that wins the race
// just decodes, which costs time, not correctness.

TEST(ReadPathTest, WritesThroughThisServerAreDeliveredWithoutDecoding) {
  APIServer server({});
  ASSERT_TRUE(server.List<Pod>().ok());  // primes the Pod watch cache
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server)};
  inf.Start();
  ASSERT_TRUE(inf.WaitForSync(Seconds(3)));
  WatchOptions wopts;
  wopts.from_revision = server.store().CurrentRevision();
  Result<apiserver::TypedWatch<Pod>> w = server.Watch<Pod>(wopts);
  ASSERT_TRUE(w.ok());
  const uint64_t misses_before = server.decode_cache().misses();
  const uint64_t bytes_before = server.decode_cache().decoded_bytes();

  constexpr int kPods = 8;
  std::vector<Pod> committed;  // every object a verb returned, in order
  {
    ExecutorGate gate(Executor::Default());
    for (int i = 0; i < kPods; ++i) {
      Result<Pod> created = server.Create(SimplePod("default", "p" + std::to_string(i)));
      ASSERT_TRUE(created.ok()) << created.status();
      committed.push_back(*created);
      created->meta.labels["rev"] = "2";
      Result<Pod> updated = server.Update(*created);
      ASSERT_TRUE(updated.ok()) << updated.status();
      committed.push_back(*updated);
      updated->status.message = "ready";
      Result<Pod> status = server.UpdateStatus(*updated);
      ASSERT_TRUE(status.ok()) << status.status();
      committed.push_back(*status);
    }
  }

  // The watch delivers each committed object, shared rather than re-parsed.
  for (const Pod& want : committed) {
    Result<WatchEvent<Pod>> e = w->Next(Seconds(3));
    ASSERT_TRUE(e.ok()) << e.status();
    ASSERT_EQ(e->type, WatchEvent<Pod>::Type::kPut);
    ASSERT_TRUE(e->shared);
    EXPECT_EQ(e->revision, want.meta.resource_version);
    EXPECT_TRUE(*e->shared == want) << want.meta.name;
  }
  // The informer and the watch cache converge on the final objects.
  for (int i = 0; i < kPods; ++i) {
    const Pod& want = committed[3 * i + 2];
    WaitUntil([&] {
      auto got = inf.cache().Get("default", want.meta.name);
      return got && got->meta.resource_version == want.meta.resource_version;
    });
    EXPECT_TRUE(*inf.cache().Get("default", want.meta.name) == want);
    Result<Pod> got = server.Get<Pod>("default", want.meta.name);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(*got == want);
  }
  EXPECT_EQ(server.decode_cache().misses(), misses_before);
  EXPECT_EQ(server.decode_cache().decoded_bytes(), bytes_before);
  inf.Stop();
}

TEST(ReadPathTest, RawStoreWriteIsStillDecoded) {
  APIServer server({});
  SharedInformer<Pod> inf{ListerWatcher<Pod>(&server)};
  inf.Start();
  ASSERT_TRUE(inf.WaitForSync(Seconds(3)));
  WatchOptions wopts;
  wopts.from_revision = server.store().CurrentRevision();
  Result<apiserver::TypedWatch<Pod>> w = server.Watch<Pod>(wopts);
  ASSERT_TRUE(w.ok());
  const uint64_t misses_before = server.decode_cache().misses();

  // Written around the apiserver, undefaulted: no verb seeds it, so the
  // readers parse the blob and the decoder fills the defaults.
  Pod raw = SimplePod("default", "raw");
  api::PodAffinityTerm term;
  term.selector = api::LabelSelector::FromMap({{"app", "raw"}});
  term.topology_key = "";
  raw.spec.required_anti_affinity.push_back(term);
  const std::string blob = api::Encode(raw);
  Result<int64_t> rev = server.store().Put(APIServer::Key<Pod>("default", "raw"), blob, 0);
  ASSERT_TRUE(rev.ok()) << rev.status();
  Result<Pod> want = api::Decode<Pod>(blob);
  ASSERT_TRUE(want.ok());
  want->meta.resource_version = *rev;
  ASSERT_EQ(want->spec.required_anti_affinity[0].topology_key, "kubernetes.io/hostname");

  Result<WatchEvent<Pod>> e = w->Next(Seconds(3));
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(e->revision, *rev);
  EXPECT_TRUE(e->object == *want);
  WaitUntil([&] { return inf.cache().Get("default", "raw") != nullptr; });
  EXPECT_TRUE(*inf.cache().Get("default", "raw") == *want);
  Result<Pod> got = server.Get<Pod>("default", "raw");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got == *want);
  EXPECT_GE(server.decode_cache().misses(), misses_before + 1);
  inf.Stop();
}

TEST(ReadPathTest, CreateReturnsTheDefaultedObjectReadersSee) {
  APIServer server({});
  WatchOptions wopts;
  wopts.from_revision = server.store().CurrentRevision();
  Result<apiserver::TypedWatch<api::Service>> w = server.Watch<api::Service>(wopts);
  ASSERT_TRUE(w.ok());
  api::Service svc;
  svc.meta.ns = "default";
  svc.meta.name = "web";
  svc.spec.ports = {{"http", 80, 8080, ""}};
  svc.spec.type = "";
  Result<api::Service> created = server.Create(svc);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created->spec.ports[0].protocol, "TCP");
  EXPECT_EQ(created->spec.type, "ClusterIP");

  Result<WatchEvent<api::Service>> e = w->Next(Seconds(3));
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_TRUE(e->object == *created);
  Result<api::Service> cached = server.Get<api::Service>("default", "web");
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(*cached == *created);
  ListOptions paged;  // a paged List reads and parses the store's blob
  paged.ns = "default";
  paged.limit = 10;
  Result<TypedList<api::Service>> listed = server.List<api::Service>(paged);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->items.size(), 1u);
  EXPECT_TRUE(listed->items[0] == *created);
}

TEST(ReadPathTest, DecodeCacheSlotHoldsOneKeyAtATime) {
  DecodeCache cache;
  Pod a = SimplePod("default", "a");
  const std::string a_blob = api::Encode(a);
  a.meta.resource_version = 5;
  cache.Seed(5, a);
  Result<std::shared_ptr<const Pod>> got = cache.GetOrDecode<Pod>(5, a_blob, 5);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(**got == a);
  EXPECT_EQ(cache.misses(), 0u);

  // A second seed of a key already held is ignored: the held object is equal.
  Pod other = a;
  other.meta.labels["ignored"] = "yes";
  cache.Seed(5, other);
  EXPECT_TRUE(**cache.GetOrDecode<Pod>(5, a_blob, 5) == a);

  // -5 (the prev_value of revision 5) has its own slot.
  Pod prev = SimplePod("default", "a-prev");
  Result<std::shared_ptr<const Pod>> p = cache.GetOrDecode<Pod>(-5, api::Encode(prev), 5);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->meta.name, "a-prev");
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_TRUE(**cache.GetOrDecode<Pod>(5, a_blob, 5) == a);

  // Revision 5 + kSlots/2 (and 5 + kSlots) reuse 5's slot: each evicts the
  // previous key, which then decodes again from its blob.
  for (const int64_t far : {int64_t{5} + int64_t{DecodeCache::kSlots / 2},
                            int64_t{5} + int64_t{DecodeCache::kSlots}}) {
    const uint64_t misses = cache.misses();
    Pod b = SimplePod("default", "b" + std::to_string(far));
    Result<std::shared_ptr<const Pod>> got_b =
        cache.GetOrDecode<Pod>(far, api::Encode(b), far);
    ASSERT_TRUE(got_b.ok());
    EXPECT_EQ((*got_b)->meta.name, b.meta.name);
    EXPECT_EQ((*got_b)->meta.resource_version, far);
    Result<std::shared_ptr<const Pod>> again = cache.GetOrDecode<Pod>(5, a_blob, 5);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(**again == a);
    EXPECT_EQ(cache.misses(), misses + 2);
  }

  // The kind tag is checked: a Service read of key 5 never gets the Pod.
  api::Service svc;
  svc.meta.ns = "default";
  svc.meta.name = "svc";
  Result<std::shared_ptr<const api::Service>> s =
      cache.GetOrDecode<api::Service>(5, api::Encode(svc), 5);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->meta.name, "svc");
}

TEST(ReadPathTest, SeedingRacesConcurrentWatchersAcrossSlotReuse) {
  APIServer server({});
  ASSERT_TRUE(server.List<Pod>().ok());  // the watch cache joins the race
  constexpr int kPods = 4;
  std::vector<Pod> pods;
  for (int i = 0; i < kPods; ++i) {
    Result<Pod> p = server.Create(SimplePod("default", "race-" + std::to_string(i)));
    ASSERT_TRUE(p.ok());
    pods.push_back(*p);
  }
  const int64_t from = server.store().CurrentRevision();
  // Enough revisions that the ring wraps twice over: every slot is reused,
  // including by keys kSlots revisions apart.
  const int writes = static_cast<int>(DecodeCache::kSlots) + 512;
  const int64_t last = from + writes;

  kv::WatchParams raw_params;  // the blobs, for checking every delivery
  raw_params.from_revision = from;
  raw_params.buffer_capacity = static_cast<size_t>(writes) + 64;
  Result<std::shared_ptr<kv::WatchChannel>> raw =
      server.store().Watch(APIServer::KindPrefix<Pod>(), raw_params);
  ASSERT_TRUE(raw.ok());

  constexpr int kWatchers = 3;
  std::vector<apiserver::TypedWatch<Pod>> watches;
  for (int r = 0; r < kWatchers; ++r) {
    WatchOptions wopts;
    wopts.from_revision = from;
    Result<apiserver::TypedWatch<Pod>> w = server.Watch<Pod>(wopts);
    ASSERT_TRUE(w.ok());
    watches.push_back(std::move(*w));
  }
  std::vector<std::map<int64_t, std::shared_ptr<const Pod>>> seen(kWatchers);
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int r = 0; r < kWatchers; ++r) {
    readers.emplace_back([&, r] {
      for (;;) {
        Result<WatchEvent<Pod>> e = watches[r].Next(Seconds(10));
        if (!e.ok()) {
          failures++;
          return;
        }
        if (e->type != WatchEvent<Pod>::Type::kPut) continue;
        seen[r][e->revision] = e->shared;
        if (e->revision >= last) return;
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < writes; ++i) {
      Pod& p = pods[i % kPods];
      p.meta.annotations["seq"] = std::to_string(i);
      Result<Pod> updated = (i % 2 == 0) ? server.Update(p) : server.UpdateStatus(p);
      if (!updated.ok()) {
        failures++;
        return;
      }
      p = *updated;
    }
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_EQ(server.store().CurrentRevision(), last);

  int checked = 0;
  for (int64_t rev = from + 1; rev <= last; ++rev) {
    Result<kv::Event> e = (*raw)->Next(Seconds(3));
    ASSERT_TRUE(e.ok()) << e.status();
    ASSERT_EQ(e->revision, rev);
    Result<Pod> want = api::Decode<Pod>(e->value.str());
    ASSERT_TRUE(want.ok());
    want->meta.resource_version = rev;
    for (int r = 0; r < kWatchers; ++r) {
      auto it = seen[r].find(rev);
      ASSERT_NE(it, seen[r].end()) << "watcher " << r << " missed revision " << rev;
      ASSERT_TRUE(it->second);
      ASSERT_TRUE(*it->second == *want) << "watcher " << r << " revision " << rev;
      checked++;
    }
  }
  EXPECT_EQ(checked, kWatchers * writes);
}

}  // namespace
}  // namespace vc::client
