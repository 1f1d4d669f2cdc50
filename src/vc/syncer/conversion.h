// Object conversion between a tenant control plane and the super cluster.
//
// Namespace prefixing (paper §III-B (2)): "In Kubernetes, any namespace
// scoped object's full name ... has to be unique. The syncer adds a prefix
// for each synchronized tenant namespace to avoid name conflicts. The prefix
// is the concatenation of the owner VC's object name and a short hash of the
// object's UID."
//
// Downward-synced shadows carry origin annotations so upward reconcilers and
// the vn-agent can translate back without guessing.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "api/types.h"
#include "common/hash.h"
#include "common/strings.h"

namespace vc::core {

inline constexpr const char* kSyncerAnnotationPrefix = "tenant.virtualcluster.io/";
inline constexpr const char* kTenantAnnotation = "tenant.virtualcluster.io/id";
// Tenant identity is ALSO stamped as a label so syncer reflectors can use a
// server-side label selector ("tenant.virtualcluster.io/id" Exists) and never
// list/decode the super cluster's non-tenant objects.
inline constexpr const char* kTenantLabel = "tenant.virtualcluster.io/id";
inline constexpr const char* kOriginNamespaceAnnotation =
    "tenant.virtualcluster.io/namespace";
inline constexpr const char* kOriginUidAnnotation = "tenant.virtualcluster.io/uid";
// Stamped on the TENANT pod when the upward reconciler first reports Ready;
// benches measure end-to-end Pod creation time from this (paper §IV workload:
// "the timestamp that the Pod's condition is updated as ready in the tenant").
inline constexpr const char* kReadyAtAnnotation = "tenant.virtualcluster.io/ready-at-ms";

// Removes every syncer-owned annotation (idempotence: syncer-stamped state
// must never feed back into downward comparisons).
inline void StripSyncerAnnotations(api::LabelMap& annotations) {
  for (auto it = annotations.begin(); it != annotations.end();) {
    if (StartsWith(it->first, kSyncerAnnotationPrefix)) {
      it = annotations.erase(it);
    } else {
      ++it;
    }
  }
}

// Same for syncer-owned labels (currently just the tenant label).
inline void StripSyncerLabels(api::LabelMap& labels) {
  for (auto it = labels.begin(); it != labels.end();) {
    if (StartsWith(it->first, kSyncerAnnotationPrefix)) {
      it = labels.erase(it);
    } else {
      ++it;
    }
  }
}

// Identity of one tenant's namespace mapping.
struct TenantMapping {
  std::string tenant_id;  // VC object name
  std::string ns_prefix;  // "<vcName>-<hash(vcUID)>"

  static TenantMapping ForVc(const std::string& vc_name, const std::string& vc_uid) {
    return TenantMapping{vc_name, vc_name + "-" + ShortHash(vc_uid)};
  }

  std::string SuperNamespace(const std::string& tenant_ns) const {
    return ns_prefix + "-" + tenant_ns;
  }

  // Inverse mapping; nullopt when super_ns doesn't belong to this tenant.
  std::optional<std::string> TenantNamespace(const std::string& super_ns) const {
    const std::string p = ns_prefix + "-";
    if (!StartsWith(super_ns, p)) return std::nullopt;
    return super_ns.substr(p.size());
  }
};

// Builds the super-cluster shadow of a tenant object:
//   * namespace mapped through the prefix;
//   * origin annotations stamped;
//   * uid/resourceVersion/finalizers/ownerReferences cleared — tenant-side
//     controller relationships must not leak into the super cluster (a
//     tenant ReplicaSet does not exist there, and the super GC must never
//     collect the shadow);
//   * Pod: spec.nodeName and status cleared (the super scheduler/kubelet own
//     those).
template <typename T>
T ToSuper(const TenantMapping& map, const T& tenant_obj) {
  T out = tenant_obj;
  out.meta.uid.clear();
  out.meta.resource_version = 0;
  out.meta.generation = 0;
  out.meta.creation_timestamp_ms = 0;
  out.meta.deletion_timestamp_ms.reset();
  out.meta.finalizers.clear();
  out.meta.owner_references.clear();
  StripSyncerAnnotations(out.meta.annotations);
  StripSyncerLabels(out.meta.labels);
  out.meta.annotations[kTenantAnnotation] = map.tenant_id;
  out.meta.annotations[kOriginUidAnnotation] = tenant_obj.meta.uid;
  // Label (not just annotation): shadow objects must be label-selectable so
  // the syncer's super-cluster reflectors can filter server-side.
  out.meta.labels[kTenantLabel] = map.tenant_id;
  if constexpr (std::is_same_v<T, api::NamespaceObj>) {
    out.meta.annotations[kOriginNamespaceAnnotation] = tenant_obj.meta.name;
    out.meta.name = map.SuperNamespace(tenant_obj.meta.name);
    out.phase = "Active";
  } else {
    out.meta.annotations[kOriginNamespaceAnnotation] = tenant_obj.meta.ns;
    out.meta.ns = map.SuperNamespace(tenant_obj.meta.ns);
  }
  if constexpr (std::is_same_v<T, api::Pod>) {
    out.spec.node_name.clear();
    out.status = api::PodStatus{};
  }
  if constexpr (std::is_same_v<T, api::PersistentVolumeClaim>) {
    out.volume_name.clear();
    out.phase = "Pending";
  }
  // Custom resources (paper §V future work: "Synchronizing CRDs") opt in by
  // providing a static ClearSuperOwned(T&) that resets the fields the super
  // cluster owns (status and the like).
  if constexpr (requires(T& t) { T::ClearSuperOwned(t); }) {
    T::ClearSuperOwned(out);
  }
  return out;
}

// The object reduced to the fields the DOWNWARD direction owns. Two objects
// whose normalized forms are equal need no downward update. Status and
// super-owned fields (pod nodeName, PVC binding) are cleared. Compared with
// operator==, not by encoding: both sides come defaulted (api::Default), and
// the codec round-trips a defaulted object exactly, so equality here is
// equality of the encodings without paying for two of them.
template <typename T>
T DownwardNormalized(const T& obj) {
  T norm = obj;
  norm.meta.uid.clear();
  norm.meta.resource_version = 0;
  norm.meta.generation = 0;
  norm.meta.creation_timestamp_ms = 0;
  norm.meta.deletion_timestamp_ms.reset();
  norm.meta.finalizers.clear();
  norm.meta.owner_references.clear();
  StripSyncerAnnotations(norm.meta.annotations);
  StripSyncerLabels(norm.meta.labels);
  norm.meta.name.clear();
  norm.meta.ns.clear();
  if constexpr (std::is_same_v<T, api::Pod>) {
    norm.spec.node_name.clear();
    norm.status = api::PodStatus{};
  }
  if constexpr (std::is_same_v<T, api::NamespaceObj>) {
    norm.phase.clear();
  }
  if constexpr (std::is_same_v<T, api::PersistentVolumeClaim>) {
    norm.volume_name.clear();
    norm.phase.clear();
  }
  if constexpr (std::is_same_v<T, api::Secret> || std::is_same_v<T, api::ConfigMap> ||
                std::is_same_v<T, api::ServiceAccount> ||
                std::is_same_v<T, api::Service>) {
    // Entire object minus metadata is downward-owned for these kinds.
  }
  if constexpr (requires(T& t) { T::ClearSuperOwned(t); }) {
    T::ClearSuperOwned(norm);
  }
  return norm;
}

// Whether `shadow` mirrors the tenant object that `desired` (its ToSuper)
// was built from: the same origin uid — a tenant object recreated under the
// same name has a new uid, and the old shadow must not pass for it — and
// equal downward-normalized forms. A shadow without an origin uid matches any
// object. Namespaces compare by normalized form only: deleting a super namespace
// cascades to everything in it, and the syncer creates namespace shadows
// without a uid.
template <typename T>
bool SameOrigin(const T& shadow, const T& desired) {
  if constexpr (std::is_same_v<T, api::NamespaceObj>) {
    return true;
  } else {
    auto uid = [](const T& obj) -> std::string_view {
      auto it = obj.meta.annotations.find(kOriginUidAnnotation);
      return it == obj.meta.annotations.end() ? std::string_view() : it->second;
    };
    return uid(shadow).empty() || uid(shadow) == uid(desired);
  }
}

template <typename T>
bool ShadowMatches(const T& shadow, const T& desired) {
  return SameOrigin(shadow, desired) &&
         DownwardNormalized(shadow) == DownwardNormalized(desired);
}

// Whether a tenant update from `old_obj` to `new_obj` can change what the
// downward reconcile does: the downward-owned fields, the deletion state or
// the uid moved. A status write — the syncer's own upward copy among them —
// moves none of them. The uid is compared on its own because a relist
// reports an object recreated under the same name as an update, and
// DownwardNormalized clears the uid.
template <typename T>
bool DownwardChanged(const T& old_obj, const T& new_obj) {
  return old_obj.meta.uid != new_obj.meta.uid ||
         old_obj.meta.deleting() != new_obj.meta.deleting() ||
         !(DownwardNormalized(old_obj) == DownwardNormalized(new_obj));
}

// Reads origin annotations from a super-cluster shadow object. Returns false
// if the object is not tenant-owned.
struct Origin {
  std::string tenant_id;
  std::string tenant_ns;
  std::string tenant_uid;
};

template <typename T>
std::optional<Origin> OriginOf(const T& super_obj) {
  auto it = super_obj.meta.annotations.find(kTenantAnnotation);
  if (it == super_obj.meta.annotations.end()) return std::nullopt;
  Origin o;
  o.tenant_id = it->second;
  if (auto n = super_obj.meta.annotations.find(kOriginNamespaceAnnotation);
      n != super_obj.meta.annotations.end()) {
    o.tenant_ns = n->second;
  }
  if (auto u = super_obj.meta.annotations.find(kOriginUidAnnotation);
      u != super_obj.meta.annotations.end()) {
    o.tenant_uid = u->second;
  }
  return o;
}

}  // namespace vc::core
