#include "net/kubeproxy.h"

#include "common/executor.h"
#include "common/logging.h"

namespace vc::net {

std::map<std::string, std::vector<DnatRule>> BuildDesiredRules(
    const client::ObjectCache<api::Service>& services,
    const client::ObjectCache<api::Endpoints>& endpoints) {
  std::map<std::string, std::vector<DnatRule>> out;
  for (const auto& svc : services.List()) {
    if (svc->spec.cluster_ip.empty() || svc->spec.cluster_ip == "None") continue;
    std::vector<DnatRule> rules;
    auto ep = endpoints.GetByKey(svc->meta.FullName());
    for (const api::ServicePort& port : svc->spec.ports) {
      DnatRule rule;
      rule.cluster_ip = svc->spec.cluster_ip;
      rule.port = port.port;
      rule.protocol = port.protocol;
      if (ep) {
        for (const api::EndpointSubset& subset : ep->subsets) {
          // Match the subset port by name (or by the lone port).
          int32_t target = port.EffectiveTargetPort();
          for (const api::ServicePort& sp : subset.ports) {
            if (sp.name == port.name || subset.ports.size() == 1) {
              target = sp.EffectiveTargetPort();
              break;
            }
          }
          for (const api::EndpointAddress& addr : subset.addresses) {
            rule.backends.push_back(Backend{addr.ip, target});
          }
        }
      }
      rules.push_back(std::move(rule));
    }
    out.emplace(svc->meta.FullName(), std::move(rules));
  }
  return out;
}

KubeProxy::KubeProxy(Options opts) : opts_(std::move(opts)) {
  svc_informer_ = std::make_unique<client::SharedInformer<api::Service>>(
      client::ListerWatcher<api::Service>(opts_.server, "",
                                          apiserver::RequestContext::System("kube-proxy")));
  ep_informer_ = std::make_unique<client::SharedInformer<api::Endpoints>>(
      client::ListerWatcher<api::Endpoints>(opts_.server, "",
                                            apiserver::RequestContext::System("kube-proxy")));
}

KubeProxy::~KubeProxy() { Stop(); }

void KubeProxy::Start() {
  svc_informer_->Start();
  ep_informer_->Start();
  stop_.store(false);
  sync_timer_ = Executor::SharedFor(opts_.clock)->RunEvery(opts_.sync_period, [this] {
    if (stop_.load()) return;
    if (svc_informer_->HasSynced() && ep_informer_->HasSynced()) {
      SyncOnce();
      sync_rounds_.fetch_add(1);
    }
  });
}

void KubeProxy::Stop() {
  stop_.store(true);
  sync_timer_.Cancel();
  svc_informer_->Stop();
  ep_informer_->Stop();
}

bool KubeProxy::WaitForSync(Duration timeout) {
  return svc_informer_->WaitForSync(timeout) && ep_informer_->WaitForSync(timeout);
}

void KubeProxy::SyncOnce() {
  std::map<std::string, std::vector<DnatRule>> desired =
      BuildDesiredRules(svc_informer_->cache(), ep_informer_->cache());
  IpTables& host = opts_.fabric->HostTables(opts_.node);
  std::map<std::string, std::vector<DnatRule>> current = host.AllRules();
  for (const auto& [svc, rules] : desired) {
    host.ReplaceServiceRules(svc, rules);
  }
  for (const auto& [svc, rules] : current) {
    if (!desired.count(svc)) host.RemoveServiceRules(svc);
  }
}

EnhancedKubeProxy::EnhancedKubeProxy(EnhancedOptions opts)
    : KubeProxy(opts.base), eopts_(std::move(opts)) {}

void EnhancedKubeProxy::SyncOnce() {
  // Host tables still maintained (host-network daemons keep working).
  KubeProxy::SyncOnce();

  std::map<std::string, std::vector<DnatRule>> desired =
      BuildDesiredRules(svc_informer_->cache(), ep_informer_->cache());

  // Push rules into every Kata guest on this node. ApplyServiceRules is a
  // fingerprint-guarded no-op when the guest is already current, so the tight
  // reconcile loop only pays for real changes and newly appeared guests.
  // Guests are synced concurrently: per-guest injection takes ~1 s for a
  // hundred services (§IV-E), and serializing 30 booting pods would stack
  // their init-container gates.
  // Keep draining until no un-synced guest remains, so a guest that appears
  // while a batch is in flight doesn't wait a full batch duration for the
  // next reconcile round.
  for (;;) {
    std::vector<std::shared_ptr<KataAgent>> pending;
    for (const std::shared_ptr<KataAgent>& guest :
         opts_.fabric->GuestsOnNode(opts_.node)) {
      if (!guest->NetworkReady()) {
        pending.push_back(guest);
      } else {
        Status st = guest->ApplyServiceRules(desired);  // cheap no-op if current
        if (!st.ok()) {
          LOG(WARN) << "enhanced kubeproxy: rule refresh failed for "
                    << guest->pod_key() << ": " << st;
        }
      }
    }
    if (pending.empty()) break;
    ParallelFor(static_cast<int>(pending.size()), [&](int i) {
      const std::shared_ptr<KataAgent>& guest = pending[static_cast<size_t>(i)];
      Stopwatch sw(opts_.clock);
      Status st = guest->ApplyServiceRules(desired);
      if (!st.ok()) {
        LOG(WARN) << "enhanced kubeproxy: rule injection failed for "
                  << guest->pod_key() << ": " << st;
        return;
      }
      // Account first, then release the init-container gate: observers woken
      // by MarkNetworkReady must see consistent telemetry.
      inject_latency_.Record(sw.Elapsed());
      guests_synced_.fetch_add(1);
      guest->MarkNetworkReady();
    });
  }

  // Periodic drift scan across all guests (paper §IV-E).
  TimePoint now = opts_.clock->Now();
  if (last_scan_ == TimePoint{} || now - last_scan_ >= eopts_.guest_scan_interval) {
    last_scan_ = now;
    Stopwatch sw(opts_.clock);
    for (const std::shared_ptr<KataAgent>& guest :
         opts_.fabric->GuestsOnNode(opts_.node)) {
      guest->ScanAndRepair(desired);
    }
    if (opts_.fabric->GuestsOnNode(opts_.node).empty() == false) {
      scan_latency_.Record(sw.Elapsed());
    }
  }
}

}  // namespace vc::net
