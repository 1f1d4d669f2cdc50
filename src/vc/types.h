// The VirtualCluster custom resource (paper §III-B (1)): "A VirtualCluster
// CRD, referred to as VC, is defined to describe the tenant control plane
// specifications such as the apiserver version, resource configurations, etc.
// VC objects are managed by the super cluster administrator."
//
// Because the apiserver's typed registry is extensible by Codec
// specialization, this CRD plugs into the super cluster with no change to
// core components — exactly the extensibility story the paper leans on.
#pragma once

#include "api/codec.h"
#include "api/meta.h"

namespace vc::core {

struct VirtualClusterObj {
  static constexpr const char* kKind = "VirtualCluster";
  static constexpr bool kNamespaced = true;
  api::ObjectMeta meta;

  // ----- spec
  std::string apiserver_version = "1.18";
  // "Local": control plane provisioned in-process (on the super cluster's
  // nodes); "Cloud": provisioned via a managed service (ACK/EKS in the paper)
  // with a realistic provisioning delay.
  std::string provision_mode = "Local";
  int64_t etcd_storage_mb = 512;
  double client_qps = 500;     // built-in tenant rate limit (§III-C)
  double client_burst = 1000;
  int weight = 1;              // fair-queuing weight (equal by default, §IV-A)

  // ----- status
  std::string phase = "Pending";  // Pending | Creating | Running | Deleting | Error
  std::string kubeconfig_secret;  // super-cluster Secret holding the credential
  // Hash of the tenant's TLS credential; the vn-agent identifies tenants by
  // comparing request credential hashes against this (§III-B (3)).
  std::string cert_fingerprint;
  std::string message;

  bool operator==(const VirtualClusterObj&) const = default;
};

}  // namespace vc::core

namespace vc::api {

template <>
struct Codec<vc::core::VirtualClusterObj> {
  static Json Encode(const vc::core::VirtualClusterObj& obj);
  static Result<vc::core::VirtualClusterObj> Decode(const Json& j);
  static void Default(vc::core::VirtualClusterObj& obj);
};

}  // namespace vc::api
