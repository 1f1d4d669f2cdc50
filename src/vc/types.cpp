#include "vc/types.h"

namespace vc::api {

Json Codec<vc::core::VirtualClusterObj>::Encode(const vc::core::VirtualClusterObj& obj) {
  Json out = Json::Object();
  out["kind"] = vc::core::VirtualClusterObj::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json spec = Json::Object();
  spec["apiserverVersion"] = obj.apiserver_version;
  spec["provisionMode"] = obj.provision_mode;
  spec["etcdStorageMB"] = obj.etcd_storage_mb;
  spec["clientQPS"] = obj.client_qps;
  spec["clientBurst"] = obj.client_burst;
  spec["weight"] = static_cast<int64_t>(obj.weight);
  out["spec"] = std::move(spec);
  Json status = Json::Object();
  status["phase"] = obj.phase;
  if (!obj.kubeconfig_secret.empty()) status["kubeconfigSecret"] = obj.kubeconfig_secret;
  if (!obj.cert_fingerprint.empty()) status["certFingerprint"] = obj.cert_fingerprint;
  if (!obj.message.empty()) status["message"] = obj.message;
  out["status"] = std::move(status);
  return out;
}

Result<vc::core::VirtualClusterObj> Codec<vc::core::VirtualClusterObj>::Decode(
    const Json& j) {
  vc::core::VirtualClusterObj obj;
  obj.meta = ObjectMetaFromJson(j.Get("metadata"));
  const Json& spec = j.Get("spec");
  obj.apiserver_version = spec.Get("apiserverVersion").as_string();
  obj.provision_mode = spec.Get("provisionMode").as_string();
  obj.etcd_storage_mb = spec.Get("etcdStorageMB").as_int(512);
  obj.client_qps = spec.Get("clientQPS").as_double(500);
  obj.client_burst = spec.Get("clientBurst").as_double(1000);
  obj.weight = static_cast<int>(spec.Get("weight").as_int(1));
  const Json& status = j.Get("status");
  obj.phase = status.Get("phase").as_string();
  obj.kubeconfig_secret = status.Get("kubeconfigSecret").as_string();
  obj.cert_fingerprint = status.Get("certFingerprint").as_string();
  obj.message = status.Get("message").as_string();
  Default(obj);
  return obj;
}

void Codec<vc::core::VirtualClusterObj>::Default(vc::core::VirtualClusterObj& obj) {
  if (obj.apiserver_version.empty()) obj.apiserver_version = "1.18";
  if (obj.provision_mode.empty()) obj.provision_mode = "Local";
  if (obj.phase.empty()) obj.phase = "Pending";
}

}  // namespace vc::api
