#include "scheduler/scheduler.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"

namespace vc::scheduler {

namespace {

bool IsTerminal(const api::Pod& pod) {
  return pod.status.phase == api::PodPhase::kSucceeded ||
         pod.status.phase == api::PodPhase::kFailed;
}

bool NeedsScheduling(const api::Pod& pod) {
  return pod.spec.node_name.empty() && !pod.meta.deleting() && !IsTerminal(pod) &&
         (pod.spec.scheduler_name.empty() || pod.spec.scheduler_name == "default-scheduler");
}

bool HasAffinityTerms(const api::Pod& pod) {
  return !pod.spec.required_anti_affinity.empty() || !pod.spec.required_affinity.empty();
}

// Retry backoff for a Pod that did not bind (unschedulable or bind failed).
constexpr Duration kBackoffBase = Millis(10);
constexpr Duration kBackoffMax = Millis(200);

}  // namespace

Scheduler::Scheduler(Options opts)
    : opts_(std::move(opts)),
      loop_(
          [&] {
            controllers::Reconciler::Options o;
            o.name = "scheduler";
            o.clock = opts_.clock;
            o.workers = 1;  // sequential scheduling (§IV-A)
            o.backoff_base = kBackoffBase;
            o.backoff_max = kBackoffMax;
            return o;
          }(),
          [this](const controllers::Reconciler::Item& item) { return ScheduleOne(item.key); }) {
  pod_informer_ = std::make_unique<client::SharedInformer<api::Pod>>(
      client::ListerWatcher<api::Pod>(opts_.server, "",
                                      apiserver::RequestContext::System("scheduler")));
  node_informer_ = std::make_unique<client::SharedInformer<api::Node>>(
      client::ListerWatcher<api::Node>(opts_.server, "",
                                       apiserver::RequestContext::System("scheduler")));

  client::EventHandlers<api::Pod> h;
  h.on_add = [this](const api::Pod& pod) {
    ObservePod(nullptr, std::make_shared<const api::Pod>(pod));
    if (NeedsScheduling(pod)) loop_.Enqueue(pod.meta.FullName());
  };
  h.on_update = [this](const api::Pod& old_pod, const api::Pod& new_pod) {
    ObservePod(std::make_shared<const api::Pod>(old_pod),
               std::make_shared<const api::Pod>(new_pod));
    if (NeedsScheduling(new_pod)) loop_.Enqueue(new_pod.meta.FullName());
  };
  h.on_delete = [this](const api::Pod& pod) {
    ObservePod(std::make_shared<const api::Pod>(pod), nullptr);
  };
  pod_informer_->AddHandlers(std::move(h));
}

Scheduler::~Scheduler() { Stop(); }

void Scheduler::Start() {
  node_informer_->Start();
  pod_informer_->Start();
  loop_.Start();
}

void Scheduler::Stop() {
  loop_.Stop();
  pod_informer_->Stop();
  node_informer_->Stop();
}

bool Scheduler::WaitForSync(Duration timeout) {
  return pod_informer_->WaitForSync(timeout) && node_informer_->WaitForSync(timeout);
}

size_t Scheduler::assigned_pods() const {
  std::lock_guard<std::mutex> l(cache_mu_);
  return assigned_count_;
}

void Scheduler::ObservePod(const PodPtr& old_pod, const PodPtr& new_pod) {
  auto assigned = [](const PodPtr& p) {
    return p && !p->spec.node_name.empty() && !IsTerminal(*p);
  };
  std::lock_guard<std::mutex> l(cache_mu_);
  if (assigned(old_pod)) {
    auto it = assignments_.find(old_pod->spec.node_name);
    if (it != assignments_.end()) {
      auto pit = it->second.pods.find(old_pod->meta.FullName());
      if (pit != it->second.pods.end()) {
        it->second.requested -= pit->second->spec.TotalRequests();
        it->second.pods.erase(pit);
        it->second.anti_affine.erase(old_pod->meta.FullName());
        assigned_count_--;
      }
    }
  }
  if (assigned(new_pod)) {
    const std::string key = new_pod->meta.FullName();
    NodeState& state = assignments_[new_pod->spec.node_name];
    auto [pit, inserted] = state.pods.try_emplace(key, new_pod);
    if (inserted) {
      state.requested += new_pod->spec.TotalRequests();
      assigned_count_++;
    } else {
      // Replace, adjusting the request sum in case the spec changed.
      state.requested -= pit->second->spec.TotalRequests();
      pit->second = new_pod;
      state.requested += new_pod->spec.TotalRequests();
    }
    if (new_pod->spec.required_anti_affinity.empty()) {
      state.anti_affine.erase(key);
    } else {
      state.anti_affine.insert_or_assign(key, new_pod);
    }
  }
}

controllers::ReconcileResult Scheduler::ScheduleOne(const std::string& key) {
  using controllers::ReconcileResult;
  PodPtr pod = pod_informer_->cache().GetByKey(key);
  if (!pod || !NeedsScheduling(*pod)) return ReconcileResult::Done();

  Stopwatch cycle(opts_.clock);
  std::vector<std::shared_ptr<const api::Node>> nodes = node_informer_->cache().List();

  // Modeled CPU cost of one sequential scheduling cycle (see header), held
  // by the loop after the cycle returns.
  size_t resident;
  {
    std::lock_guard<std::mutex> l(cache_mu_);
    resident = assigned_count_;
  }
  Duration cost = opts_.cost.per_pod_base +
                  opts_.cost.per_node_filter * static_cast<int64_t>(nodes.size()) +
                  opts_.cost.per_resident_pod * static_cast<int64_t>(resident);

  const bool full_scan = HasAffinityTerms(*pod);
  const api::Node* best = nullptr;
  double best_score = -1;
  std::string last_reason = "no nodes available";
  {
    std::lock_guard<std::mutex> l(cache_mu_);
    for (const auto& node : nodes) {
      NodeInfo info;
      info.node = node;
      auto it = assignments_.find(node->meta.name);
      if (it != assignments_.end()) {
        info.requested = it->second.requested;
        // The incoming pod's own terms need every resident; symmetric
        // anti-affinity needs only the residents that carry terms.
        const auto& residents = full_scan ? it->second.pods : it->second.anti_affine;
        info.pods.reserve(residents.size());
        for (const auto& [k, p] : residents) info.pods.push_back(p);
      }
      std::string reason = FilterNode(*pod, info);
      if (!reason.empty()) {
        last_reason = std::move(reason);
        continue;
      }
      double score = ScoreNode(*pod, info);
      if (score > best_score ||
          (score == best_score && best && node->meta.name < best->meta.name)) {
        best_score = score;
        best = node.get();
      }
    }
  }

  if (best == nullptr) {
    failed_attempts_.fetch_add(1);
    VLOG(2) << opts_.name << ": pod " << key << " unschedulable: " << last_reason;
    return ReconcileResult::Retry(cost);
  }

  const std::string node_name = best->meta.name;
  // The Pod as bound: the informer copy, or the live object the conflict
  // fallback re-read, which may differ from it (e.g. in its affinity terms).
  std::optional<api::Pod> bound;
  const apiserver::RequestContext ctx = apiserver::RequestContext::System("scheduler");
  // The informer copy passed NeedsScheduling above; bind by CAS on it. A
  // conflict means another writer got there first, and the fallback re-reads.
  Status st = apiserver::UpdateFrom(
      *opts_.server, *pod,
      [&](api::Pod& live) {
        bound.reset();
        if (!live.spec.node_name.empty() || live.meta.deleting()) return false;
        live.spec.node_name = node_name;
        live.status.SetCondition(api::kPodScheduled, true,
                                 opts_.clock->WallUnixMillis(), "Scheduled");
        bound = live;
        return true;
      },
      ctx);
  if (!st.ok()) {
    if (st.IsNotFound()) return ReconcileResult::Done(cost);  // pod vanished
    failed_attempts_.fetch_add(1);
    VLOG(1) << opts_.name << ": bind failed for " << key << ": " << st;
    return ReconcileResult::Retry(cost);
  }
  if (bound) {
    // Assume the bind immediately (like the real scheduler's assume cache)
    // so back-to-back cycles see up-to-date occupancy before the informer
    // echo arrives.
    ObservePod(pod, std::make_shared<const api::Pod>(std::move(*bound)));
    scheduled_.fetch_add(1);
    bind_latency_.Record(cycle.Elapsed() + cost);
  }
  return ReconcileResult::Done(cost);
}

}  // namespace vc::scheduler
