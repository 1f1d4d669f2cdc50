#include <gtest/gtest.h>

#include "apiserver/apiserver.h"
#include "common/executor.h"

namespace vc::apiserver {
namespace {

using api::NamespaceObj;
using api::Pod;
using api::Service;

std::unique_ptr<APIServer> NewServer(APIServer::Options opts = {}) {
  return std::make_unique<APIServer>(std::move(opts));
}

Pod SimplePod(const std::string& ns, const std::string& name) {
  Pod p;
  p.meta.ns = ns;
  p.meta.name = name;
  api::Container c;
  c.name = "app";
  c.image = "nginx";
  p.spec.containers.push_back(c);
  return p;
}

TEST(ApiServerTest, CreateAssignsMetadata) {
  auto s = NewServer();
  Result<Pod> p = s->Create(SimplePod("default", "web-0"));
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_FALSE(p->meta.uid.empty());
  EXPECT_GT(p->meta.resource_version, 0);
  EXPECT_GT(p->meta.creation_timestamp_ms, 0);
}

TEST(ApiServerTest, DefaultNamespacesExist) {
  auto s = NewServer();
  EXPECT_TRUE(s->Get<NamespaceObj>("", "default").ok());
  EXPECT_TRUE(s->Get<NamespaceObj>("", "kube-system").ok());
}

TEST(ApiServerTest, CreateRequiresExistingNamespace) {
  auto s = NewServer();
  Result<Pod> p = s->Create(SimplePod("ghost", "web-0"));
  EXPECT_TRUE(p.status().IsNotFound());
  NamespaceObj ns;
  ns.meta.name = "ghost";
  ASSERT_TRUE(s->Create(ns).ok());
  EXPECT_TRUE(s->Create(SimplePod("ghost", "web-0")).ok());
}

TEST(ApiServerTest, CreateRejectsTerminatingNamespace) {
  auto s = NewServer();
  Result<NamespaceObj> ns = s->Get<NamespaceObj>("", "default");
  ns->phase = "Terminating";
  ASSERT_TRUE(s->Update(*ns).ok());
  EXPECT_EQ(s->Create(SimplePod("default", "x")).status().code(), Code::kForbidden);
}

TEST(ApiServerTest, CreateValidation) {
  auto s = NewServer();
  Pod unnamed = SimplePod("default", "");
  EXPECT_EQ(s->Create(unnamed).status().code(), Code::kInvalidArgument);
  Pod unspaced = SimplePod("", "x");
  EXPECT_EQ(s->Create(unspaced).status().code(), Code::kInvalidArgument);
  NamespaceObj scoped;
  scoped.meta.name = "ok";
  scoped.meta.ns = "not-allowed";
  EXPECT_EQ(s->Create(scoped).status().code(), Code::kInvalidArgument);
}

TEST(ApiServerTest, DuplicateCreateIsAlreadyExists) {
  auto s = NewServer();
  ASSERT_TRUE(s->Create(SimplePod("default", "web-0")).ok());
  EXPECT_TRUE(s->Create(SimplePod("default", "web-0")).status().IsAlreadyExists());
  // Same name in a different namespace is fine.
  NamespaceObj ns;
  ns.meta.name = "other";
  s->Create(ns);
  EXPECT_TRUE(s->Create(SimplePod("other", "web-0")).ok());
}

TEST(ApiServerTest, GetReturnsCurrentResourceVersion) {
  auto s = NewServer();
  Result<Pod> created = s->Create(SimplePod("default", "web-0"));
  Result<Pod> got = s->Get<Pod>("default", "web-0");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->meta.resource_version, created->meta.resource_version);
  EXPECT_EQ(got->meta.uid, created->meta.uid);
}

TEST(ApiServerTest, UpdateCasConflict) {
  auto s = NewServer();
  Result<Pod> p = s->Create(SimplePod("default", "web-0"));
  Pod stale = *p;
  p->status.phase = api::PodPhase::kRunning;
  Result<Pod> updated = s->Update(*p);
  ASSERT_TRUE(updated.ok());
  EXPECT_GT(updated->meta.resource_version, p->meta.resource_version);
  // Stale writer conflicts.
  stale.status.message = "stale";
  EXPECT_TRUE(s->Update(stale).status().IsConflict());
  EXPECT_EQ(s->stats().conflicts.load(), 1u);
  // Update without resourceVersion is rejected.
  stale.meta.resource_version = 0;
  EXPECT_EQ(s->Update(stale).status().code(), Code::kInvalidArgument);
}

TEST(ApiServerTest, RetryUpdateResolvesConflicts) {
  auto s = NewServer();
  s->Create(SimplePod("default", "web-0"));
  ParallelFor(8, [&](int i) {
    Status st = RetryUpdate<Pod>(*s, "default", "web-0", [&](Pod& pod) {
      pod.meta.annotations["writer-" + std::to_string(i)] = "1";
      return true;
    });
    EXPECT_TRUE(st.ok()) << st;
  });
  Result<Pod> final = s->Get<Pod>("default", "web-0");
  EXPECT_EQ(final->meta.annotations.size(), 8u);
}

TEST(ApiServerTest, UpdateFromFreshCopyWritesWithoutGet) {
  auto s = NewServer();
  Result<Pod> cached = s->Create(SimplePod("default", "web-0"));
  ASSERT_TRUE(cached.ok());
  const uint64_t gets = s->stats().gets.load();
  const uint64_t updates = s->stats().updates.load();
  Status st = UpdateFrom(*s, *cached, [](Pod& pod) {
    pod.meta.annotations["mine"] = "1";
    return true;
  });
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(s->stats().gets.load(), gets);
  EXPECT_EQ(s->stats().updates.load(), updates + 1);
  EXPECT_EQ(s->stats().conflicts.load(), 0u);
  EXPECT_EQ(s->Get<Pod>("default", "web-0")->meta.annotations.count("mine"), 1u);
}

TEST(ApiServerTest, UpdateFromStaleCopyReevaluatesOnLiveObject) {
  auto s = NewServer();
  Result<Pod> cached = s->Create(SimplePod("default", "web-0"));
  ASSERT_TRUE(cached.ok());
  Pod other = *cached;
  other.meta.annotations["other"] = "1";
  ASSERT_TRUE(s->Update(other).ok());

  const uint64_t gets = s->stats().gets.load();
  std::vector<bool> saw_other;
  Status st = UpdateFrom(*s, *cached, [&](Pod& pod) {
    saw_other.push_back(pod.meta.annotations.count("other") == 1);
    pod.meta.annotations["mine"] = "1";
    return true;
  });
  ASSERT_TRUE(st.ok()) << st;
  // First on the stale copy (Conflict), then once on the re-read live object.
  EXPECT_EQ(saw_other, (std::vector<bool>{false, true}));
  EXPECT_EQ(s->stats().gets.load(), gets + 1);
  EXPECT_EQ(s->stats().conflicts.load(), 1u);
  Result<Pod> final = s->Get<Pod>("default", "web-0");
  EXPECT_EQ(final->meta.annotations.count("other"), 1u);
  EXPECT_EQ(final->meta.annotations.count("mine"), 1u);
}

TEST(ApiServerTest, UpdateFromNoChangeWritesNothing) {
  auto s = NewServer();
  Result<Pod> cached = s->Create(SimplePod("default", "web-0"));
  ASSERT_TRUE(cached.ok());
  const uint64_t gets = s->stats().gets.load();
  const uint64_t updates = s->stats().updates.load();
  EXPECT_TRUE(UpdateFrom(*s, *cached, [](Pod&) { return false; }).ok());
  EXPECT_TRUE(UpdateStatusFrom(*s, *cached, [](Pod&) { return false; }).ok());
  EXPECT_EQ(s->stats().gets.load(), gets);
  EXPECT_EQ(s->stats().updates.load(), updates);
  EXPECT_EQ(s->Get<Pod>("default", "web-0")->meta.resource_version,
            cached->meta.resource_version);
}

TEST(ApiServerTest, UpdateStatusFromAuthorizesAsUpdateStatus) {
  auto s = NewServer();
  Result<Pod> cached = s->Create(SimplePod("default", "web-0"));
  ASSERT_TRUE(cached.ok());
  s->authorizer().Grant("node-agent", PolicyRule{{"update-status"}, {"Pod"}, {"default"}});
  RequestContext agent;
  agent.identity = Identity{"node-agent", {}, ""};
  auto set_running = [](Pod& pod) {
    pod.status.phase = api::PodPhase::kRunning;
    return true;
  };
  EXPECT_EQ(UpdateFrom(*s, *cached, set_running, agent).code(), Code::kForbidden);
  Status st = UpdateStatusFrom(*s, *cached, set_running, agent);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(s->Get<Pod>("default", "web-0")->status.phase, api::PodPhase::kRunning);
}

TEST(ApiServerTest, ListScoping) {
  auto s = NewServer();
  NamespaceObj ns;
  ns.meta.name = "tenant-a";
  s->Create(ns);
  s->Create(SimplePod("default", "a"));
  s->Create(SimplePod("default", "b"));
  s->Create(SimplePod("tenant-a", "c"));
  EXPECT_EQ(s->List<Pod>({"default"})->items.size(), 2u);
  EXPECT_EQ(s->List<Pod>({"tenant-a"})->items.size(), 1u);
  EXPECT_EQ(s->List<Pod>()->items.size(), 3u);
  EXPECT_GT(s->List<Pod>()->revision, 0);
}

TEST(ApiServerTest, DeleteRemovesObject) {
  auto s = NewServer();
  s->Create(SimplePod("default", "web-0"));
  ASSERT_TRUE(s->Delete<Pod>("default", "web-0").ok());
  EXPECT_TRUE(s->Get<Pod>("default", "web-0").status().IsNotFound());
  EXPECT_TRUE(s->Delete<Pod>("default", "web-0").IsNotFound());
}

TEST(ApiServerTest, DeleteWithFinalizersSetsDeletionTimestamp) {
  auto s = NewServer();
  Pod p = SimplePod("default", "web-0");
  p.meta.finalizers = {"protect.example.com"};
  s->Create(p);
  ASSERT_TRUE(s->Delete<Pod>("default", "web-0").ok());
  Result<Pod> got = s->Get<Pod>("default", "web-0");
  ASSERT_TRUE(got.ok());  // still present
  EXPECT_TRUE(got->meta.deleting());
  // Second delete is a no-op.
  ASSERT_TRUE(s->Delete<Pod>("default", "web-0").ok());
  // Stripping the last finalizer from a terminating object completes the
  // deletion automatically (Kubernetes semantics).
  got->meta.finalizers.clear();
  ASSERT_TRUE(s->Update(*got).ok());
  EXPECT_TRUE(s->Get<Pod>("default", "web-0").status().IsNotFound());
}

TEST(ApiServerTest, WatchDeliversTypedEvents) {
  auto s = NewServer();
  Result<apiserver::TypedList<Pod>> list = s->List<Pod>();
  auto w = *s->Watch<Pod>({"", list->revision});
  Result<Pod> created = s->Create(SimplePod("default", "web-0"));
  Result<WatchEvent<Pod>> e = w.Next(Seconds(1));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->type, WatchEvent<Pod>::Type::kPut);
  EXPECT_EQ(e->object.meta.name, "web-0");
  EXPECT_EQ(e->object.meta.resource_version, created->meta.resource_version);
  s->Delete<Pod>("default", "web-0");
  Result<WatchEvent<Pod>> e2 = w.Next(Seconds(1));
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2->type, WatchEvent<Pod>::Type::kDelete);
  EXPECT_EQ(e2->object.meta.uid, created->meta.uid);
}

TEST(ApiServerTest, WatchIsKindAndNamespaceScoped) {
  auto s = NewServer();
  int64_t rv = s->List<Pod>()->revision;
  auto w = *s->Watch<Pod>({"default", rv});
  NamespaceObj ns;
  ns.meta.name = "other";
  s->Create(ns);
  s->Create(SimplePod("other", "x"));  // different namespace
  Service svc;
  svc.meta.ns = "default";
  svc.meta.name = "web";
  s->Create(svc);  // different kind
  s->Create(SimplePod("default", "mine"));
  Result<WatchEvent<Pod>> e = w.Next(Seconds(1));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->object.meta.name, "mine");
  EXPECT_EQ(w.Next(Millis(20)).status().code(), Code::kTimeout);
}

TEST(ApiServerTest, RestartBreaksWatchesKeepsData) {
  auto s = NewServer();
  s->Create(SimplePod("default", "web-0"));
  auto w = *s->Watch<Pod>({"", s->List<Pod>()->revision});
  s->Restart();
  Status st;
  for (int i = 0; i < 3; ++i) {
    Result<WatchEvent<Pod>> e = w.Next(Millis(10));
    if (!e.ok() && e.status().code() != Code::kTimeout) {
      st = e.status();
      break;
    }
  }
  EXPECT_TRUE(st.IsGone());
  EXPECT_TRUE(s->Get<Pod>("default", "web-0").ok());
}

TEST(ApiServerTest, RbacDeniesTenantAccess) {
  auto s = NewServer();
  s->authorizer().Grant("tenant-a", PolicyRule{{"get", "list"}, {"Pod"}, {"tenant-a-ns"}});
  RequestContext tenant;
  tenant.identity = Identity{"tenant-a", {}, ""};
  // Allowed in own namespace.
  EXPECT_FALSE(s->List<Pod>({"tenant-a-ns"}, tenant).status().code() == Code::kForbidden);
  // Denied elsewhere and for other verbs.
  EXPECT_EQ(s->List<Pod>({"default"}, tenant).status().code(), Code::kForbidden);
  EXPECT_EQ(s->Create(SimplePod("tenant-a-ns", "x"), tenant).status().code(),
            Code::kForbidden);
  // Unknown identity denied entirely once default-deny is on.
  RequestContext other;
  other.identity = Identity{"stranger", {}, ""};
  EXPECT_EQ(s->List<Pod>({"default"}, other).status().code(), Code::kForbidden);
  // Loopback bypasses.
  EXPECT_TRUE(s->List<Pod>({"default"}).ok());
}

// Demonstrates the namespace-List leak from paper §I: granting a tenant the
// list verb on the cluster-scoped Namespace kind exposes every namespace —
// the API cannot filter by tenant identity.
TEST(ApiServerTest, NamespaceListLeaksAllNamespaces) {
  auto s = NewServer();
  NamespaceObj ns;
  ns.meta.name = "tenant-b-secret-project";
  s->Create(ns);
  s->authorizer().Grant("tenant-a", PolicyRule{{"list"}, {"Namespace"}, {"*"}});
  RequestContext tenant;
  tenant.identity = Identity{"tenant-a", {}, ""};
  Result<apiserver::TypedList<NamespaceObj>> all = s->List<NamespaceObj>({""}, tenant);
  ASSERT_TRUE(all.ok());
  bool saw_other_tenant = false;
  for (const auto& n : all->items) {
    if (n.meta.name == "tenant-b-secret-project") saw_other_tenant = true;
  }
  EXPECT_TRUE(saw_other_tenant);  // the leak VirtualCluster eliminates
}

TEST(ApiServerTest, RateLimitReturns429) {
  ManualClock clock;
  APIServer::Options opts;
  opts.clock = &clock;
  opts.client_qps = 10;
  opts.client_burst = 5;
  auto s = NewServer(std::move(opts));
  RequestContext tenant;
  tenant.identity = Identity{"tenant-a", {}, ""};
  int ok = 0, limited = 0;
  for (int i = 0; i < 10; ++i) {
    Status st = s->List<Pod>({"default"}, tenant).status();
    if (st.IsTooManyRequests()) {
      limited++;
    } else {
      ok++;
    }
  }
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(limited, 5);
  EXPECT_EQ(s->stats().rate_limited.load(), 5u);
  // Loopback identity is never limited.
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(s->List<Pod>({"default"}).ok());
  clock.Advance(Seconds(1));
  EXPECT_TRUE(s->List<Pod>({"default"}, tenant).ok());
}

TEST(ApiServerTest, StatsCountVerbs) {
  auto s = NewServer();
  uint64_t base_creates = s->stats().creates.load();
  s->Create(SimplePod("default", "a"));
  s->Get<Pod>("default", "a");
  s->List<Pod>();
  s->Delete<Pod>("default", "a");
  EXPECT_EQ(s->stats().creates.load(), base_creates + 1);
  EXPECT_GE(s->stats().gets.load(), 1u);
  EXPECT_GE(s->stats().lists.load(), 1u);
  EXPECT_EQ(s->stats().deletes.load(), 1u);
}

TEST(ApiServerTest, UpdateStatusPath) {
  auto s = NewServer();
  Result<Pod> p = s->Create(SimplePod("default", "web-0"));
  p->status.phase = api::PodPhase::kRunning;
  p->status.SetCondition(api::kPodReady, true, 1);
  Result<Pod> updated = s->UpdateStatus(*p);
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(s->Get<Pod>("default", "web-0")->status.Ready());
}

// The Fig. 1 interference mechanism: a bounded handler pool means one
// client's flood delays another client's requests on a SHARED apiserver.
TEST(ApiServerTest, MaxInflightCreatesInterference) {
  APIServer::Options opts;
  opts.request_latency = Millis(2);
  opts.max_inflight = 2;
  auto s = NewServer(std::move(opts));
  s->Create(SimplePod("default", "target"));

  // Baseline: uncontended Get latency.
  Stopwatch sw(RealClock::Get());
  for (int i = 0; i < 10; ++i) (void)s->Get<Pod>("default", "target");
  double idle = ToSeconds(sw.Elapsed()) / 10;

  // Aggressor floods Lists from 8 threads; victim measures again.
  std::atomic<bool> stop{false};
  std::vector<std::thread> flood;
  for (int i = 0; i < 8; ++i) {
    flood.emplace_back([&] {
      while (!stop.load()) (void)s->List<Pod>({"default"});
    });
  }
  RealClock::Get()->SleepFor(Millis(20));
  sw.Reset();
  for (int i = 0; i < 10; ++i) (void)s->Get<Pod>("default", "target");
  double contended = ToSeconds(sw.Elapsed()) / 10;
  stop.store(true);
  for (auto& t : flood) t.join();

  EXPECT_GT(contended, idle * 1.5)
      << "shared apiserver should show interference (idle=" << idle
      << "s contended=" << contended << "s)";
}

TEST(ApiServerTest, UnlimitedInflightByDefault) {
  auto s = NewServer();
  // With no limit, many concurrent requests all proceed (no deadlock/blocking).
  ParallelFor(16, [&](int) {
    for (int i = 0; i < 50; ++i) (void)s->List<Pod>({"default"});
  });
}

TEST(ApiServerTest, ConcurrentCreatesUniqueNames) {
  auto s = NewServer();
  std::atomic<int> ok{0}, dup{0};
  ParallelFor(8, [&](int) {
    Result<Pod> r = s->Create(SimplePod("default", "contended"));
    if (r.ok()) {
      ok++;
    } else if (r.status().IsAlreadyExists()) {
      dup++;
    }
  });
  EXPECT_EQ(ok.load(), 1);
  EXPECT_EQ(dup.load(), 7);
}

}  // namespace
}  // namespace vc::apiserver
