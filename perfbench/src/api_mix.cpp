// api_mix: direct traffic to one super-cluster APIServer — no syncer,
// scheduler or kubelet. APF fairness on, watch cache on, WAL on with the
// default buffered flush (wal_sync_every_commit=false).
//
// Data: 16 namespaces x 256 Pods preloaded; 16 namespace-scoped watches
// drained by one thread. Load: 3 closed-loop clients (3 + the watcher = four
// benchmark threads), each issuing 60% Get, 10% namespace List, 20% Update,
// 5% Create, 5% Delete. A client writes only keys it owns, so it knows the
// exact resourceVersion every read of its own keys must return.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "apiserver/apiserver.h"
#include "common/executor.h"
#include "layers.h"
#include "report.h"

namespace perfbench {
namespace {

using vc::apiserver::APIServer;
using PodWatch = vc::apiserver::TypedWatch<vc::api::Pod>;
using PodEvent = vc::apiserver::WatchEvent<vc::api::Pod>;

constexpr int kRounds = 5;  // counted rounds, after one warm-up round
constexpr const char* kGenAnnotation = "bench/gen";

struct Shape {
  int namespaces = 16;
  int pods_per_ns = 256;
  int clients = 3;
};

enum Verb { kGet, kList, kCreate, kUpdate, kDelete, kNumVerbs };
constexpr const char* kVerbNames[kNumVerbs] = {"get", "list", "create", "update", "delete"};

vc::api::Pod MakePod(const std::string& ns, const std::string& name, int client) {
  vc::api::Pod pod;
  pod.meta.ns = ns;
  pod.meta.name = name;
  pod.meta.labels["owner"] = "client-" + std::to_string(client);
  pod.meta.annotations[kGenAnnotation] = "0";
  vc::api::Container c;
  c.name = "app";
  c.image = "bench:latest";
  pod.spec.containers.push_back(c);
  return pod;
}

// One closed-loop client and the keys it owns (last written state of each).
struct Client {
  int id = 0;
  std::mt19937_64 rng;
  vc::apiserver::RequestContext ctx;
  std::vector<vc::api::Pod> owned;
  uint64_t next_name = 0;
  std::string tag;
  uint64_t attempted = 0, failed = 0, ok = 0;
  Samples verb_us[kNumVerbs];
  std::vector<std::string> mismatches;
  std::vector<std::pair<int64_t, SteadyTime>> writes;  // traced: rev -> returned
  uint64_t write_events = 0;  // successful writes (each yields one watch event)
};

// Accumulated over the traced rounds of one run.
struct ApiLayers {
  Samples verb_us[kNumVerbs];
  Samples band_wait_us[vc::apiserver::kNumBands];
  Samples band_exec_us[vc::apiserver::kNumBands];
  Samples lag_us;
  double writes = 0, requests = 0, commits = 0, checkpoints = 0;
  double wal_bytes = 0, wal_writes = 0;  // rounds without a WAL checkpoint
  double reads = 0, cache_served = 0, lists = 0, decoded = 0, tasks = 0, log_bytes = 0;
};

class ApiRound {
 public:
  ApiRound(const Shape& shape, uint64_t seed, bool traced, std::string wal_dir)
      : shape_(shape), seed_(seed), traced_(traced), wal_dir_(std::move(wal_dir)) {}

  ~ApiRound() { Teardown(); }

  ApiRound(const ApiRound&) = delete;
  ApiRound& operator=(const ApiRound&) = delete;

  bool Setup(Report* report, double* setup_s) {
    const SteadyTime start = SteadyClock::now();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
    APIServer::Options so;
    so.name = "bench-apiserver";
    so.fairness = true;
    so.max_inflight = 40;  // assured workload-band share (8) exceeds the clients
    so.enable_watch_cache = true;
    so.store_options.wal_dir = wal_dir_;
    so.store_options.wal_sync_every_commit = false;
    server_ = std::make_unique<APIServer>(std::move(so));

    std::mt19937_64 rng(seed_);
    const std::string tag = Hex(rng(), 6);
    for (int n = 0; n < shape_.namespaces; ++n) {
      vc::api::NamespaceObj ns;
      ns.meta.name = "ns" + tag + "-" + std::to_string(100 + n).substr(1);
      if (!server_->Create(ns).ok()) {
        report->Mismatch("namespace create failed");
        return false;
      }
      namespaces_.push_back(ns.meta.name);
    }
    clients_.resize(static_cast<size_t>(shape_.clients));
    for (int c = 0; c < shape_.clients; ++c) {
      Client& cl = clients_[static_cast<size_t>(c)];
      cl.id = c;
      cl.rng.seed(SplitMix(seed_ + 7919ull * static_cast<uint64_t>(c + 1)));
      cl.ctx.identity.user = "client-" + std::to_string(c);
      cl.ctx.identity.groups = {"system:masters"};  // RBAC bypass; workload band
      cl.tag = Hex(cl.rng(), 6);
    }
    // Preload, with a seeded owner per Pod.
    for (int n = 0; n < shape_.namespaces; ++n) {
      for (int i = 0; i < shape_.pods_per_ns; ++i) {
        Client& cl = clients_[rng() % clients_.size()];
        auto created = server_->Create(
            MakePod(namespaces_[static_cast<size_t>(n)], NewName(&cl), cl.id));
        if (!created.ok()) {
          report->Mismatch("preload failed: " + created.status().ToString());
          return false;
        }
        cl.owned.push_back(std::move(*created));
      }
    }
    // Prime the watch cache (the first typed read pays its priming list).
    for (const std::string& ns : namespaces_) {
      vc::apiserver::ListOptions lo;
      lo.ns = ns;
      if (!server_->List<vc::api::Pod>(lo).ok()) {
        report->Mismatch("priming list failed");
        return false;
      }
    }
    const int64_t from = server_->store().CurrentRevision();
    for (const std::string& ns : namespaces_) {
      vc::apiserver::WatchOptions wo;
      wo.ns = ns;
      wo.from_revision = from;
      auto w = server_->Watch<vc::api::Pod>(wo);
      if (!w.ok()) {
        report->Mismatch("watch failed: " + w.status().ToString());
        return false;
      }
      w->SetSignal([this] {
        {
          std::lock_guard<std::mutex> l(signal_mu_);
          signalled_ = true;
        }
        signal_cv_.notify_one();
      });
      watches_.push_back(std::move(*w));
      last_rev_.push_back(from);
    }
    *setup_s = std::chrono::duration<double>(SteadyClock::now() - start).count();
    return true;
  }

  void Measure(double window_s, Report* report, RoundResult* out, ApiLayers* layers) {
    const Baseline base = Capture();
    std::atomic<bool> clients_done{false};
    std::atomic<uint64_t> expected_events{0};
    const double cpu0 = ProcessCpuSeconds();
    const SteadyTime t0 = SteadyClock::now();
    const SteadyTime end =
        t0 + std::chrono::duration_cast<SteadyClock::duration>(std::chrono::duration<double>(window_s));

    std::thread watcher([&] { Watch(clients_done, expected_events); });
    std::vector<std::thread> threads;
    for (Client& cl : clients_) threads.emplace_back([&, c = &cl] { RunClient(c, end); });
    for (std::thread& t : threads) t.join();
    const SteadyTime t1 = SteadyClock::now();
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    uint64_t writes = 0, ok = 0, attempted = 0;
    for (Client& cl : clients_) {
      writes += cl.write_events;
      ok += cl.ok;
      attempted += cl.attempted;
      report->Attempt(cl.attempted);
      report->Failed(cl.failed);
      for (const std::string& m : cl.mismatches) report->Mismatch(m);
      for (int v = 0; v < kNumVerbs; ++v) {
        (v == kGet || v == kList ? out->latency_ms : out->write_us)
            .Append(cl.verb_us[v].Scaled(v == kGet || v == kList ? 1e-3 : 1.0));
        if (traced_) layers->verb_us[v].Append(cl.verb_us[v]);
      }
    }
    expected_events.store(writes);
    clients_done.store(true);
    watcher.join();

    const double elapsed_s = std::chrono::duration<double>(t1 - t0).count();
    out->ops_per_s = Ratio(static_cast<double>(ok), elapsed_s);
    out->cpu_ms_per_op = Ratio(cpu_s * 1e3, static_cast<double>(attempted));
    report->Note("round: " + std::to_string(attempted) + " requests in " +
                 std::to_string(elapsed_s) + " s, " + std::to_string(writes) + " writes, " +
                 std::to_string(events_) + " watch events");
    for (const std::string& e : watch_errors_) report->Mismatch(e);
    if (events_ != writes) {
      report->Mismatch("watchers received " + std::to_string(events_) + " events for " +
                       std::to_string(writes) + " writes");
    }
    if (traced_) CollectLayers(base, writes, attempted, layers);
  }

  // Each client reads back the last write to every key it owns, and a final
  // List matches the owned sets exactly.
  void Check(bool fault, Report* report) {
    if (fault) {
      // Seeded mismatch: a write to a client-owned key the client never made.
      Client& cl = clients_[SplitMix(seed_) % clients_.size()];
      if (!cl.owned.empty()) {
        vc::api::Pod stray = cl.owned[SplitMix(seed_ + 1) % cl.owned.size()];
        stray.meta.annotations[kGenAnnotation] = "stray";
        auto r = server_->Update(stray);
        report->Note("fault: stray update of " + stray.meta.ns + "/" + stray.meta.name + ": " +
                     r.status().ToString());
      }
    }
    std::set<std::string> expected;
    for (Client& cl : clients_) {
      for (const vc::api::Pod& want : cl.owned) {
        expected.insert(want.meta.ns + "/" + want.meta.name);
        auto got = server_->Get<vc::api::Pod>(want.meta.ns, want.meta.name);
        if (!got.ok()) {
          report->Mismatch("read-back " + want.meta.name + ": " + got.status().ToString());
        } else if (got->meta.resource_version != want.meta.resource_version ||
                   got->meta.annotations != want.meta.annotations) {
          report->Mismatch("read-back " + want.meta.name + ": rv " +
                           std::to_string(got->meta.resource_version) + ", last write " +
                           std::to_string(want.meta.resource_version));
        }
      }
    }
    auto all = server_->List<vc::api::Pod>();
    if (!all.ok()) {
      report->Mismatch("final list failed: " + all.status().ToString());
      return;
    }
    std::set<std::string> listed;
    for (const vc::api::Pod& p : all->items) listed.insert(p.meta.ns + "/" + p.meta.name);
    if (listed != expected) {
      report->Mismatch("final list has " + std::to_string(listed.size()) + " Pods, expected " +
                       std::to_string(expected.size()));
    }
  }

  void Teardown() {
    for (PodWatch& w : watches_) {
      w.SetSignal(nullptr);
      w.Cancel();
    }
    watches_.clear();
    if (server_) server_->store().Shutdown();
    server_.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
  }

 private:
  struct Baseline {
    int64_t revision = 0;
    size_t wal_bytes = 0;
    uint64_t checkpoints = 0;
    uint64_t gets = 0, lists = 0, cache_gets = 0, cache_lists = 0, decoded = 0;
    size_t band_wait[vc::apiserver::kNumBands] = {};
    size_t band_exec[vc::apiserver::kNumBands] = {};
    uint64_t tasks = 0;
  };

  std::string NewName(Client* cl) {
    return "c" + std::to_string(cl->id) + "-" + cl->tag + "-" + std::to_string(cl->next_name++);
  }

  void RunClient(Client* cl, SteadyTime end) {
    while (SteadyClock::now() < end) {
      const int dice = static_cast<int>(cl->rng() % 100);
      Verb verb = dice < 60 ? kGet : dice < 70 ? kList : dice < 90 ? kUpdate : dice < 95 ? kCreate : kDelete;
      if (cl->owned.empty() && verb != kList) verb = kCreate;
      const size_t k = cl->owned.empty() ? 0 : cl->rng() % cl->owned.size();
      const std::string& ns = namespaces_[cl->rng() % namespaces_.size()];
      cl->attempted++;
      bool ok = false;
      const SteadyTime start = SteadyClock::now();
      switch (verb) {
        case kGet: {
          const vc::api::Pod& want = cl->owned[k];
          auto got = server_->Get<vc::api::Pod>(want.meta.ns, want.meta.name, cl->ctx);
          ok = got.ok();
          if (ok && got->meta.resource_version != want.meta.resource_version) {
            cl->mismatches.push_back("client " + std::to_string(cl->id) + " read " +
                                     want.meta.name + " at rv " +
                                     std::to_string(got->meta.resource_version) +
                                     ", its last write was rv " +
                                     std::to_string(want.meta.resource_version));
          }
          break;
        }
        case kList: {
          vc::apiserver::ListOptions lo;
          lo.ns = ns;
          ok = server_->List<vc::api::Pod>(lo, cl->ctx).ok();
          break;
        }
        case kUpdate: {
          vc::api::Pod next = cl->owned[k];
          next.meta.annotations[kGenAnnotation] =
              std::to_string(std::stoll(next.meta.annotations[kGenAnnotation]) + 1);
          auto updated = server_->Update(std::move(next), cl->ctx);
          ok = updated.ok();
          if (ok) Wrote(cl, std::move(*updated), k);
          break;
        }
        case kCreate: {
          auto created = server_->Create(MakePod(ns, NewName(cl), cl->id), cl->ctx);
          ok = created.ok();
          if (ok) Wrote(cl, std::move(*created), cl->owned.size());
          break;
        }
        case kDelete: {
          const vc::api::Pod& victim = cl->owned[k];
          ok = server_->Delete<vc::api::Pod>(victim.meta.ns, victim.meta.name, cl->ctx).ok();
          if (ok) {
            cl->write_events++;
            cl->owned[k] = std::move(cl->owned.back());
            cl->owned.pop_back();
          }
          break;
        }
        case kNumVerbs:
          break;
      }
      const SteadyTime done = SteadyClock::now();
      if (ok) {
        cl->ok++;
        cl->verb_us[verb].Add(MicrosBetween(start, done));
      } else {
        cl->failed++;
      }
    }
  }

  void Wrote(Client* cl, vc::api::Pod obj, size_t slot) {
    cl->write_events++;
    if (traced_) cl->writes.emplace_back(obj.meta.resource_version, SteadyClock::now());
    if (slot == cl->owned.size()) {
      cl->owned.push_back(std::move(obj));
    } else {
      cl->owned[slot] = std::move(obj);
    }
  }

  // Drains the namespace watches: every watcher's revisions must strictly
  // increase, and after the clients stop every write must have arrived.
  void Watch(const std::atomic<bool>& clients_done, const std::atomic<uint64_t>& expected) {
    const auto drain_budget = std::chrono::seconds(10);
    SteadyTime drain_deadline{};
    for (;;) {
      if (clients_done.load()) {
        if (events_ >= expected.load()) return;
        if (drain_deadline == SteadyTime{}) drain_deadline = SteadyClock::now() + drain_budget;
        if (SteadyClock::now() > drain_deadline) return;
      }
      {
        std::unique_lock<std::mutex> l(signal_mu_);
        signal_cv_.wait_for(l, std::chrono::milliseconds(5), [this] { return signalled_; });
        signalled_ = false;
      }
      for (size_t w = 0; w < watches_.size(); ++w) {
        for (;;) {
          vc::Result<PodEvent> ev = watches_[w].TryNext();
          if (!ev.ok()) {
            if (ev.status().code() != vc::Code::kTimeout && !watch_died_) {
              watch_died_ = true;
              watch_errors_.push_back("watch died: " + ev.status().ToString());
            }
            break;
          }
          if (ev->type == PodEvent::Type::kBookmark) continue;
          if (ev->revision <= last_rev_[w]) {
            watch_errors_.push_back("watch " + namespaces_[w] + ": revision " +
                                    std::to_string(ev->revision) + " after " +
                                    std::to_string(last_rev_[w]));
          }
          last_rev_[w] = ev->revision;
          events_++;
          if (traced_) received_.emplace(ev->revision, SteadyClock::now());
        }
      }
    }
  }

  Baseline Capture() {
    Baseline b;
    vc::kv::KvStore& store = server_->store();
    vc::apiserver::ServerStats& st = server_->stats();
    b.revision = store.CurrentRevision();
    b.wal_bytes = store.WalFileBytes();
    b.checkpoints = store.WalCheckpoints();
    b.gets = st.gets.load();
    b.lists = st.lists.load();
    b.cache_gets = st.cache_served_gets.load();
    b.cache_lists = st.cache_served_lists.load();
    b.decoded = st.list_bytes_decoded.load();
    for (int band = 0; band < vc::apiserver::kNumBands; ++band) {
      auto stats = server_->dispatcher().Stats(static_cast<vc::apiserver::PriorityBand>(band));
      b.band_wait[band] = stats.queue_wait.Count();
      b.band_exec[band] = stats.exec.Count();
    }
    b.tasks = vc::Executor::Default()->tasks_run();
    return b;
  }

  void CollectLayers(const Baseline& b, uint64_t writes, uint64_t requests, ApiLayers* out) {
    const Baseline now = Capture();
    out->writes += static_cast<double>(writes);
    out->requests += static_cast<double>(requests);
    out->commits += static_cast<double>(now.revision - b.revision);
    // A checkpoint truncates the WAL; count only growth between checkpoints.
    if (now.checkpoints == b.checkpoints && now.wal_bytes >= b.wal_bytes) {
      out->wal_bytes += static_cast<double>(now.wal_bytes - b.wal_bytes);
      out->wal_writes += static_cast<double>(writes);
    }
    out->checkpoints += static_cast<double>(now.checkpoints - b.checkpoints);
    out->reads += static_cast<double>((now.gets - b.gets) + (now.lists - b.lists));
    out->cache_served +=
        static_cast<double>((now.cache_gets - b.cache_gets) + (now.cache_lists - b.cache_lists));
    out->lists += static_cast<double>(now.lists - b.lists);
    out->decoded += static_cast<double>(now.decoded - b.decoded);
    out->tasks += static_cast<double>(now.tasks - b.tasks);
    out->log_bytes = std::max(out->log_bytes, static_cast<double>(server_->store().LogBytes()));
    for (int band = 0; band < vc::apiserver::kNumBands; ++band) {
      auto stats = server_->dispatcher().Stats(static_cast<vc::apiserver::PriorityBand>(band));
      out->band_wait_us[band].Append(SliceOf(stats.queue_wait, b.band_wait[band], 1e6));
      out->band_exec_us[band].Append(SliceOf(stats.exec, b.band_exec[band], 1e6));
    }
    for (const Client& cl : clients_) {
      for (const auto& [rev, returned] : cl.writes) {
        auto it = received_.find(rev);
        if (it != received_.end()) {
          out->lag_us.Add(std::max(0.0, MicrosBetween(returned, it->second)));
        }
      }
    }
  }

  const Shape shape_;
  const uint64_t seed_;
  const bool traced_;
  const std::string wal_dir_;
  std::unique_ptr<APIServer> server_;
  std::vector<std::string> namespaces_;
  std::vector<Client> clients_;
  std::mutex signal_mu_;
  std::condition_variable signal_cv_;
  bool signalled_ = false;
  std::vector<PodWatch> watches_;  // after the signal state its callbacks touch
  std::vector<int64_t> last_rev_;
  uint64_t events_ = 0;
  bool watch_died_ = false;
  std::vector<std::string> watch_errors_;
  std::map<int64_t, SteadyTime> received_;  // traced: revision -> received
};

}  // namespace

void RunApiMix(const Args& args, Report* report) {
  Shape shape;
  if (args.smoke) {
    shape.namespaces = 4;
    shape.pods_per_ns = 16;
  }
  // Round 0 warms the process up and is checked but not counted.
  const double window_s = static_cast<double>(args.seconds) / kRounds;
  EndToEnd untraced, traced;
  ApiLayers layers;
  for (int round = 0; round <= kRounds; ++round) {
    const uint64_t seed = SplitMix(args.seed * 1000003ull + static_cast<uint64_t>(round));
    // Paired rounds alternate which side runs first, so drift over the run
    // does not bias the overhead.
    const bool traced_first = round % 2 == 1;
    for (bool with_trace : {traced_first, !traced_first}) {
      if (with_trace && (!args.trace || round == 0)) continue;
      ApiRound r(shape, seed, with_trace, args.work_dir + "/api-wal");
      RoundResult result;
      if (!r.Setup(report, &result.setup_s)) return;
      r.Measure(round == 0 ? std::min(window_s, 1.0) : window_s, report, &result, &layers);
      r.Check(args.fault && round == 0, report);
      if (round > 0) (with_trace ? traced : untraced).rounds.push_back(std::move(result));
    }
  }
  if (!args.trace) {
    untraced.Emit(report);
    return;
  }
  SetLayerDefaults(report);
  for (int v = 0; v < kNumVerbs; ++v) {
    const std::string name = std::string("apiserver.") + kVerbNames[v] + "_us_";
    report->Set(name + "p50", layers.verb_us[v].Pct(50), "us");
    report->Set(name + "p99", layers.verb_us[v].Pct(99), "us");
  }
  report->Set("apiserver.cache_served_ratio", Ratio(layers.cache_served, layers.reads), "ratio");
  for (int b = 0; b < vc::apiserver::kNumBands; ++b) {
    const std::string band = vc::apiserver::BandName(static_cast<vc::apiserver::PriorityBand>(b));
    report->Set("apiserver.dispatch_queue_wait_us_p99." + band, layers.band_wait_us[b].Pct(99), "us");
    report->Set("apiserver.dispatch_exec_us_p99." + band, layers.band_exec_us[b].Pct(99), "us");
  }
  report->Set("watch.lag_us_p50", layers.lag_us.Pct(50), "us");
  report->Set("watch.lag_us_p99", layers.lag_us.Pct(99), "us");
  report->Set("kv.commits_per_op", Ratio(layers.commits, layers.writes), "count");
  report->Set("kv.wal_bytes_per_write", Ratio(layers.wal_bytes, layers.wal_writes), "B");
  report->Set("kv.wal_checkpoints", layers.checkpoints, "count");
  report->Set("kv.log_mb", layers.log_bytes / (1 << 20), "MiB");
  report->Set("api.decoded_bytes_per_list", Ratio(layers.decoded, layers.lists), "B");
  report->Set("common.executor_tasks_per_op", Ratio(layers.tasks, layers.requests), "count");
  report->Set("common.executor_threads", vc::Executor::Default()->threads(), "count");
  EndToEnd::EmitOverhead(untraced, traced, report);
}

}  // namespace perfbench
