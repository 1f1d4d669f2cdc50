#include "vc/syncer/vnode_manager.h"

namespace vc::core {

VNodeManager::BindResult VNodeManager::Bind(const std::string& tenant,
                                            const std::string& node,
                                            const std::string& tenant_pod_key) {
  std::lock_guard<std::mutex> l(mu_);
  auto& nodes = bindings_[tenant];
  auto [it, new_node] = nodes.try_emplace(node);
  bool inserted = it->second.pods.insert(tenant_pod_key).second;
  if (new_node) return BindResult::kNewVNode;
  return inserted ? BindResult::kBound : BindResult::kAlreadyBound;
}

VNodeManager::UnbindResult VNodeManager::Unbind(const std::string& tenant,
                                                const std::string& node,
                                                const std::string& tenant_pod_key) {
  std::lock_guard<std::mutex> l(mu_);
  auto tit = bindings_.find(tenant);
  if (tit == bindings_.end()) return UnbindResult::kNotBound;
  auto nit = tit->second.find(node);
  if (nit == tit->second.end()) return UnbindResult::kNotBound;
  if (nit->second.pods.erase(tenant_pod_key) == 0) return UnbindResult::kNotBound;
  if (nit->second.pods.empty()) {
    tit->second.erase(nit);
    if (tit->second.empty()) bindings_.erase(tit);
    return UnbindResult::kVNodeEmpty;
  }
  return UnbindResult::kUnbound;
}

bool VNodeManager::HasVNode(const std::string& tenant, const std::string& node) const {
  std::lock_guard<std::mutex> l(mu_);
  auto tit = bindings_.find(tenant);
  return tit != bindings_.end() && tit->second.count(node) > 0;
}

std::vector<std::string> VNodeManager::NodesOf(const std::string& tenant) const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<std::string> out;
  auto tit = bindings_.find(tenant);
  if (tit == bindings_.end()) return out;
  for (const auto& [node, vnode] : tit->second) out.push_back(node);
  return out;
}

size_t VNodeManager::PodsOn(const std::string& tenant, const std::string& node) const {
  std::lock_guard<std::mutex> l(mu_);
  auto tit = bindings_.find(tenant);
  if (tit == bindings_.end()) return 0;
  auto nit = tit->second.find(node);
  return nit == tit->second.end() ? 0 : nit->second.pods.size();
}

size_t VNodeManager::VNodeCount() const {
  std::lock_guard<std::mutex> l(mu_);
  size_t n = 0;
  for (const auto& [tenant, nodes] : bindings_) n += nodes.size();
  return n;
}

void VNodeManager::ForgetTenant(const std::string& tenant) {
  std::lock_guard<std::mutex> l(mu_);
  bindings_.erase(tenant);
}

std::optional<api::Node> VNodeManager::Written(const std::string& tenant,
                                               const std::string& node) const {
  std::lock_guard<std::mutex> l(mu_);
  auto tit = bindings_.find(tenant);
  if (tit == bindings_.end()) return std::nullopt;
  auto nit = tit->second.find(node);
  return nit == tit->second.end() ? std::nullopt : nit->second.written;
}

void VNodeManager::SetWritten(const std::string& tenant, const std::string& node,
                              std::optional<api::Node> vn) {
  std::lock_guard<std::mutex> l(mu_);
  auto tit = bindings_.find(tenant);
  if (tit == bindings_.end()) return;
  auto nit = tit->second.find(node);
  if (nit != tit->second.end()) nit->second.written = std::move(vn);
}

}  // namespace vc::core
