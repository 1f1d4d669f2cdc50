// A tenant control plane that runs on an executor of its own, attached
// straight to a VcDeployment's syncer. While an ExecutorGate parks that
// executor, the tenant apiserver still takes writes but fans none of them
// out, so the syncer's tenant informers fall behind it while the syncer
// itself keeps running.
#pragma once

#include <optional>
#include <string>

#include "pool_gate.h"
#include "vc/deployment.h"

namespace vc::core {

class OwnPoolTenant {
 public:
  // No tenant controllers run, so the tenant apiserver serves only the
  // syncer's requests and the test's.
  OwnPoolTenant(VcDeployment& deploy, const std::string& name)
      : deploy_(deploy), tcp_([&] {
          TenantControlPlane::Options o;
          o.tenant_id = name;
          o.clock = &clock_;
          o.run_controllers = false;
          return o;
        }()) {
    tcp_.Start();
    VirtualClusterObj vc;
    vc.meta.ns = "default";
    vc.meta.name = name;
    vc.meta.uid = "uid-" + name;
    deploy_.syncer().AttachTenant(vc, &tcp_);
  }
  // Stops the deployment first: its syncer holds this control plane.
  ~OwnPoolTenant() { deploy_.Stop(); }

  OwnPoolTenant(const OwnPoolTenant&) = delete;
  OwnPoolTenant& operator=(const OwnPoolTenant&) = delete;

  apiserver::APIServer& server() { return tcp_.server(); }
  // The tenant's executor, for an ExecutorGate; the apiserver keeps it alive.
  Executor* pool() { return Executor::SharedFor(&clock_).get(); }

  // The tenant object `ns/name`, read with a List: the tests count the
  // tenant apiserver's Gets.
  template <typename T>
  std::optional<T> Find(const std::string& ns, const std::string& name) {
    Result<apiserver::TypedList<T>> list = server().template List<T>();
    if (!list.ok()) return std::nullopt;
    for (T& obj : list->items) {
      if (obj.meta.ns == ns && obj.meta.name == name) return std::move(obj);
    }
    return std::nullopt;
  }

 private:
  VcDeployment& deploy_;
  OwnPoolClock clock_;
  TenantControlPlane tcp_;
};

}  // namespace vc::core
