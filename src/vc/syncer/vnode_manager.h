// Virtual-node bookkeeping (paper §III-C): "The syncer controller manages all
// virtual node objects in the tenant control planes. ... The binding
// associations between the tenant Pods and the virtual nodes are tracked in
// the syncer as well. Once a virtual node has no binding Pods, it will be
// removed from the tenant control plane by the syncer."
//
// vNodes map 1:1 to physical nodes (Fig. 6), so node-level semantics like
// inter-Pod anti-affinity remain visible in the tenant view.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/types.h"

namespace vc::core {

class VNodeManager {
 public:
  enum class BindResult {
    kAlreadyBound,   // pod already tracked on this node
    kBound,          // pod added; vNode already existed for this tenant
    kNewVNode,       // pod added AND this tenant needs a new vNode object
  };

  BindResult Bind(const std::string& tenant, const std::string& node,
                  const std::string& tenant_pod_key);

  enum class UnbindResult {
    kNotBound,
    kUnbound,        // pod removed; vNode still has other pods
    kVNodeEmpty,     // pod removed and the vNode has no bindings left
  };

  UnbindResult Unbind(const std::string& tenant, const std::string& node,
                      const std::string& tenant_pod_key);

  bool HasVNode(const std::string& tenant, const std::string& node) const;
  std::vector<std::string> NodesOf(const std::string& tenant) const;
  size_t PodsOn(const std::string& tenant, const std::string& node) const;
  size_t VNodeCount() const;

  void ForgetTenant(const std::string& tenant);

  // The vNode object as the syncer last wrote it, so a heartbeat broadcast
  // can skip an unchanged vNode and write a changed one without a Get.
  // Dropped with the binding (Unbind to empty, ForgetTenant).
  std::optional<api::Node> Written(const std::string& tenant, const std::string& node) const;
  // Records `vn` for a bound vNode (no-op otherwise); nullopt forgets it.
  void SetWritten(const std::string& tenant, const std::string& node,
                  std::optional<api::Node> vn);

 private:
  struct VNode {
    std::set<std::string> pods;  // bound tenant pod keys
    std::optional<api::Node> written;
  };

  mutable std::mutex mu_;
  // tenant -> node -> vNode
  std::map<std::string, std::map<std::string, VNode>> bindings_;
};

}  // namespace vc::core
