// google-benchmark microbenchmarks for the substrate hot paths: kv store
// operations, watch fan-out, codec, the fair work queue, the executor's
// timers, and the scheduler filter cost — the building blocks whose constants the calibration in
// EXPERIMENTS.md rests on.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/codec.h"
#include "apiserver/apiserver.h"
#include "client/fairqueue.h"
#include "client/informer.h"
#include "common/executor.h"
#include "controllers/runtime.h"
#include "kv/kvstore.h"
#include "scheduler/predicates.h"

// Baseline-compat shim (see scripts/bench_compare.sh): pre-serving-tier
// checkouts have no RequestDispatcher.
#if __has_include("apiserver/dispatch.h")
#include "apiserver/dispatch.h"
#define VC_HAS_DISPATCHER 1
#endif

// Same shim for the trace facility: baseline checkouts predate vc::trace, and
// the dispatcher's Admit(ctx, trace) overload landed with it.
#if __has_include("common/trace.h")
#include "common/trace.h"
#define VC_HAS_TRACE 1
#endif

namespace vc {
namespace {

api::Pod BenchPod(int i) {
  api::Pod p;
  p.meta.ns = "default";
  p.meta.name = "pod-" + std::to_string(i);
  p.meta.uid = NewUid();
  p.meta.labels = {{"app", "bench"}, {"idx", std::to_string(i)}};
  api::Container c;
  c.name = "app";
  c.image = "registry.example.com/app:v1.2.3";
  c.requests = {250, 64ll << 20};
  c.limits = {500, 128ll << 20};
  p.spec.containers.push_back(c);
  return p;
}

// Multi-writer put throughput: the commit path's headline axis. All
// threads share ONE store (created/destroyed by thread 0 — google-benchmark
// barriers the threads at loop entry/exit, so the handoff is race-free);
// each thread hammers its own key set, so contention is the store's locking
// granularity, not key conflicts. Keys are pre-generated: the loop measures
// Put, not std::to_string.
void BM_KvPut(benchmark::State& state) {
  static kv::KvStore* store = nullptr;
  if (state.thread_index() == 0) store = new kv::KvStore;
  constexpr int kKeys = 512;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("/bench/t" + std::to_string(state.thread_index()) + "/k" +
                   std::to_string(i));
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Put(keys[i++ & (kKeys - 1)], "value"));
  }
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_KvPut)->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// Read path with writers absent: measures the map lookup itself, including
// the store lock's shared acquisition.
void BM_KvGet(benchmark::State& state) {
  static kv::KvStore* store = nullptr;
  constexpr int kKeys = 1024;
  if (state.thread_index() == 0) {
    store = new kv::KvStore;
    for (int i = 0; i < kKeys; ++i) {
      store->Put("/k" + std::to_string(i), "value");
    }
  }
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) keys.push_back("/k" + std::to_string(i));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Get(keys[i++ & (kKeys - 1)]));
  }
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_KvGet)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

void BM_KvList(benchmark::State& state) {
  kv::KvStore store;
  for (int64_t i = 0; i < state.range(0); ++i) {
    store.Put("/registry/Pod/default/p" + std::to_string(i), std::string(512, 'x'));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.List("/registry/Pod/"));
  }
}
BENCHMARK(BM_KvList)->Arg(100)->Arg(1000)->Arg(10000);

// Detection shim so scripts/bench_compare.sh can build this file against a
// baseline checkout whose KvStore has no FlushWatchDispatch (synchronous
// fan-out under the writer's lock).
template <typename S, typename = void>
struct HasFlushWatchDispatch : std::false_type {};
template <typename S>
struct HasFlushWatchDispatch<
    S, std::void_t<decltype(std::declval<S&>().FlushWatchDispatch())>>
    : std::true_type {};

template <typename S>
void FlushIfSupported(S& store) {
  if constexpr (HasFlushWatchDispatch<S>::value) store.FlushWatchDispatch();
}

// Per-Put cost seen by a WRITER while range(0) watchers are subscribed. With
// the off-lock fan-out the timed section is O(1) append+enqueue regardless of
// watcher count; the dispatch strand absorbs the O(watchers) work. Channels
// are drained off the clock so slow-watcher poisoning never distorts the
// measurement. That untimed drain delivers every Put to every watcher, so
// the 128- and 1024-watcher axes run a fixed 32 batches instead of letting
// the iteration probe scale them to ~0.5 s of timed Puts (which cost ~5 min
// of drains at 1024 watchers on 4 vCPUs).
void BM_WatchFanout(benchmark::State& state) {
  kv::KvStore store;
  std::vector<std::shared_ptr<kv::WatchChannel>> watchers;
  for (int64_t w = 0; w < state.range(0); ++w) {
    watchers.push_back(*store.Watch("/k", 0, 1 << 12));
  }
  constexpr int kBatch = 1024;
  int in_batch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Put("/k", "v"));
    if (++in_batch == kBatch) {
      in_batch = 0;
      state.PauseTiming();
      FlushIfSupported(store);
      for (auto& ch : watchers) {
        while (ch->TryNext()) {
        }
      }
      state.ResumeTiming();
    }
  }
  FlushIfSupported(store);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WatchFanout)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WatchFanout)->Arg(128)->Arg(1024)->Iterations(32 * 1024)->Unit(benchmark::kMicrosecond);

// List over a populated store: entries alias the stored blobs (shared_ptr
// values), so reported bytes/sec is snapshot-assembly cost, not memcpy.
void BM_ListZeroCopy(benchmark::State& state) {
  kv::KvStore store;
  constexpr int64_t kEntries = 4096;
  constexpr int64_t kValueBytes = 1024;
  for (int64_t i = 0; i < kEntries; ++i) {
    store.Put("/registry/Pod/default/p" + std::to_string(i),
              std::string(kValueBytes, 'x'));
  }
  for (auto _ : state) {
    kv::ListResult r = store.List("/registry/Pod/");
    benchmark::DoNotOptimize(r.entries.data());
  }
  state.SetBytesProcessed(state.iterations() * kEntries * kValueBytes);
}
BENCHMARK(BM_ListZeroCopy)->Unit(benchmark::kMicrosecond);

void BM_PodEncode(benchmark::State& state) {
  api::Pod p = BenchPod(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(api::Encode(p));
  }
}
BENCHMARK(BM_PodEncode);

void BM_PodDecode(benchmark::State& state) {
  std::string data = api::Encode(BenchPod(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(api::Decode<api::Pod>(data));
  }
}
BENCHMARK(BM_PodDecode);

void BM_ApiServerCreate(benchmark::State& state) {
  apiserver::APIServer server({});
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Create(BenchPod(i++)));
  }
}
BENCHMARK(BM_ApiServerCreate);

// Informer delivery: range(0) Pod Creates on an APIServer, timed until the
// last one reached a SharedInformer's add handler. Covers the Create verb,
// the kv commit, the watch fan-out, the watch cache, and the informer's step
// on the shared executor. items/s = Pods delivered per second.
void BM_InformerDelivery(benchmark::State& state) {
  apiserver::APIServer server({});
  client::SharedInformer<api::Pod> informer{client::ListerWatcher<api::Pod>(&server)};
  std::atomic<int64_t> delivered{0};
  client::EventHandlers<api::Pod> handlers;
  handlers.on_add = [&](const api::Pod&) { delivered.fetch_add(1); };
  informer.AddHandlers(std::move(handlers));
  informer.Start();
  informer.WaitForSync(Seconds(10));
  int next = 0;
  int64_t want = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(server.Create(BenchPod(next++)));
    }
    want += state.range(0);
    while (delivered.load() < want) std::this_thread::yield();
  }
  informer.Stop();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InformerDelivery)->Arg(256)->UseRealTime()->Unit(benchmark::kMicrosecond);

// Reconciler runtime: 1024 distinct keys per iteration through a Reconciler
// with range(0) workers and a no-op bool reconcile, timed until the last one
// finished. Covers the fair queue, the pump, one executor task per reconcile
// and the finish with its slot handoff. items/s = reconciles per second.
void BM_ReconcilerThroughput(benchmark::State& state) {
  constexpr int kKeys = 1024;
  controllers::Reconciler::Options o;
  o.name = "bm-reconciler";
  o.workers = static_cast<int>(state.range(0));
  controllers::Reconciler r(std::move(o),
                            controllers::Reconciler::SyncFn([](const std::string&) { return true; }));
  r.Start();
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back("default/key-" + std::to_string(i));
  uint64_t want = 0;
  for (auto _ : state) {
    for (const std::string& key : keys) r.Enqueue("tenant", key);
    want += kKeys;
    while (r.reconciles() < want) std::this_thread::yield();
  }
  r.Stop();
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_ReconcilerThroughput)->Arg(1)->Arg(20)->UseRealTime()->Unit(benchmark::kMicrosecond);

// WRR dequeue cost as a function of registered vs active tenants. The
// rotation only tracks tenants with queued work, so cost must follow
// range(1) (active), not range(0) (registered) — the 1000/10 point is the
// regression guard for O(1)-amortized dequeue.
void BM_FairQueueDequeue(benchmark::State& state) {
  client::FairQueue q;
  const int registered = static_cast<int>(state.range(0));
  const int active = static_cast<int>(state.range(1));
  for (int t = 0; t < registered; ++t) {
    q.RegisterTenant("tenant-" + std::to_string(t), 1);
  }
  int i = 0;
  for (auto _ : state) {
    q.Add("tenant-" + std::to_string(i % active), "key-" + std::to_string(i % 16));
    ++i;
    if (auto item = q.Get()) q.Done(*item);
  }
}
BENCHMARK(BM_FairQueueDequeue)
    ->Args({1, 1})
    ->Args({10, 10})
    ->Args({100, 10})
    ->Args({1000, 10})
    ->Args({1000, 1000});

#ifdef VC_HAS_DISPATCHER
// Fast-path admission: classify + grant an inflight slot + release, single
// uncontended caller. This is the per-request tax every verb now pays, so it
// must stay under 1us. With vc::trace available, range(0) selects the
// untraced (0) vs traced (1) axis: the traced run emits kAdmit + kExecute +
// kAccount per iteration and must stay within 10% of untraced.
void BM_DispatchAdmit(benchmark::State& state) {
  apiserver::RequestDispatcher::Options o;
  o.max_inflight = 64;  // never queues from one thread
  apiserver::RequestDispatcher d(std::move(o));
  apiserver::RequestContext ctx;
  ctx.identity.user = "tenant:bench";
  ctx.flow = "bench";
#ifdef VC_HAS_TRACE
  const bool traced = state.range(0) != 0;
  trace::SetEnabled(traced);
  const uint64_t id = traced ? trace::NewTraceId() : 0;
  for (auto _ : state) {
    Result<apiserver::RequestDispatcher::Ticket> t = d.Admit(ctx, id);
    benchmark::DoNotOptimize(t);
  }
  trace::SetEnabled(false);  // restore the process-wide default
  trace::Reset();
#else
  for (auto _ : state) {
    Result<apiserver::RequestDispatcher::Ticket> t = d.Admit(ctx);
    benchmark::DoNotOptimize(t);
  }
#endif
}
#ifdef VC_HAS_TRACE
BENCHMARK(BM_DispatchAdmit)->Arg(0)->Arg(1);
#else
BENCHMARK(BM_DispatchAdmit);
#endif
#endif  // VC_HAS_DISPATCHER

#ifdef VC_HAS_TRACE
// Cost of one trace::Emit on the hot path: TLS buffer lookup + steady-clock
// read + 8 relaxed word stores + key-tail copy + release publish. The budget
// the instrumentation sweep rests on is <= 100 ns/event (DESIGN.md §11); the
// ring overwrites in place, so a long benchmark run never allocates or stalls.
void BM_TraceRecord(benchmark::State& state) {
  trace::SetEnabled(true);
  const uint64_t id = trace::NewTraceId();
  int64_t rev = 0;
  for (auto _ : state) {
    trace::Emit(trace::Component::kKv, trace::Verb::kPut, id, ++rev,
                "/registry/pods/default/bench-pod", 7);
  }
  trace::SetEnabled(false);  // restore the process-wide default
  trace::Reset();
}
BENCHMARK(BM_TraceRecord);
#endif  // VC_HAS_TRACE

// Arming and cancelling one timer on an executor that already holds N armed
// timers: the timer service's per-arm cost as its population grows. The
// clock is manual, so nothing fires inside the timed loop. Cancellation is
// lazy (the entry stays armed until its deadline), so every 1024 iterations
// the loop advances the clock 1 ms untimed and waits until the cancelled
// entries are reaped, keeping the population at N.
void BM_TimerArmCancel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ManualClock clock;
  Executor::Options o;
  o.threads = 1;
  o.clock = &clock;
  Executor exec(o);
  std::vector<TimerHandle> held;
  held.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Duration delay = std::chrono::hours(1) + Millis(static_cast<int64_t>(i));
    held.push_back(exec.RunAfter(delay, [] {}));
  }
  int64_t armed = 0;
  for (auto _ : state) {
    TimerHandle h = exec.RunAfter(Millis(1), [] {});
    benchmark::DoNotOptimize(h.Cancel());
    if (++armed % 1024 == 0) {
      state.PauseTiming();
      clock.Advance(Millis(1));
      while (exec.pending_timers() > n) std::this_thread::yield();
      exec.Wait();
      state.ResumeTiming();
    }
  }
  for (TimerHandle& h : held) h.Cancel();
}
BENCHMARK(BM_TimerArmCancel)->Arg(16)->Arg(1024)->Arg(65536);

void BM_SchedulerFilter(benchmark::State& state) {
  std::vector<std::shared_ptr<const api::Node>> nodes;
  for (int64_t i = 0; i < state.range(0); ++i) {
    api::Node n;
    n.meta.name = "node-" + std::to_string(i);
    n.status.capacity = {96000, 328ll << 30};
    n.status.allocatable = n.status.capacity;
    n.status.conditions = {{api::kNodeReady, true, 1, ""}};
    nodes.push_back(std::make_shared<const api::Node>(std::move(n)));
  }
  std::vector<std::shared_ptr<const api::Pod>> pods;
  for (int i = 0; i < 200; ++i) {
    api::Pod p = BenchPod(i);
    p.spec.node_name = "node-" + std::to_string(i % state.range(0));
    pods.push_back(std::make_shared<const api::Pod>(std::move(p)));
  }
  api::Pod incoming = BenchPod(9999);
  for (auto _ : state) {
    auto infos = scheduler::BuildNodeInfos(nodes, pods);
    int fits = 0;
    for (auto& [name, info] : infos) {
      if (scheduler::FilterNode(incoming, info).empty()) fits++;
    }
    benchmark::DoNotOptimize(fits);
  }
}
BENCHMARK(BM_SchedulerFilter)->Arg(10)->Arg(100);

// Server-side selector evaluation: list 1 matching pod among range(0) total.
// The skip-scanner evaluates selectors on raw blobs, so full decode happens
// only for matches — decoded bytes stay O(matching) while scanned bytes stay
// O(total). Reported as the decode_reduction counter (scanned / decoded),
// which must come out ≥ 10x at 10k objects.
void BM_ApiServerListSelective(benchmark::State& state) {
  apiserver::APIServer server({});
  for (int64_t i = 0; i < state.range(0); ++i) {
    api::Pod p = BenchPod(static_cast<int>(i));
    p.meta.labels["tier"] = (i == state.range(0) / 2) ? "rare" : "common";
    if (!server.Create(std::move(p)).ok()) std::abort();
  }
  apiserver::ListOptions opts;
  opts.label_selector = "tier=rare";
  const uint64_t scanned0 = server.stats().list_bytes_scanned.load();
  const uint64_t decoded0 = server.stats().list_bytes_decoded.load();
  for (auto _ : state) {
    Result<apiserver::TypedList<api::Pod>> got = server.List<api::Pod>(opts);
    if (!got.ok() || got->items.size() != 1) std::abort();
    benchmark::DoNotOptimize(got);
  }
  const double scanned =
      static_cast<double>(server.stats().list_bytes_scanned.load() - scanned0);
  const double decoded =
      static_cast<double>(server.stats().list_bytes_decoded.load() - decoded0);
  // Cache-served lists decode zero bytes; report the raw counter and make
  // decode_reduction the full scanned volume in that (best) case.
  state.counters["decoded_bytes"] = decoded;
  state.counters["decode_reduction"] = decoded > 0 ? scanned / decoded : scanned;
  state.SetBytesProcessed(static_cast<int64_t>(scanned));
}
BENCHMARK(BM_ApiServerListSelective)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

// Baseline for the same store size without a selector: every blob is decoded.
void BM_ApiServerListFull(benchmark::State& state) {
  apiserver::APIServer server({});
  for (int64_t i = 0; i < state.range(0); ++i) {
    if (!server.Create(BenchPod(static_cast<int>(i))).ok()) std::abort();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.List<api::Pod>());
  }
}
BENCHMARK(BM_ApiServerListFull)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_LabelSelectorMatch(benchmark::State& state) {
  api::LabelSelector sel;
  sel.match_labels = {{"app", "web"}, {"tier", "frontend"}};
  sel.match_expressions = {{"env", api::LabelSelectorRequirement::Op::kIn, {"prod"}}};
  api::LabelMap labels = {{"app", "web"}, {"tier", "frontend"}, {"env", "prod"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.Matches(labels));
  }
}
BENCHMARK(BM_LabelSelectorMatch);

}  // namespace
}  // namespace vc

BENCHMARK_MAIN();
