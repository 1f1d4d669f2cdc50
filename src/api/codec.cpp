#include "api/codec.h"

namespace vc::api {

// ---------------------------------------------------------------- helpers

std::string PodPhaseName(PodPhase p) {
  switch (p) {
    case PodPhase::kPending: return "Pending";
    case PodPhase::kRunning: return "Running";
    case PodPhase::kSucceeded: return "Succeeded";
    case PodPhase::kFailed: return "Failed";
  }
  return "Pending";
}

PodPhase PodPhaseFromName(const std::string& s) {
  if (s == "Running") return PodPhase::kRunning;
  if (s == "Succeeded") return PodPhase::kSucceeded;
  if (s == "Failed") return PodPhase::kFailed;
  return PodPhase::kPending;
}

const PodCondition* PodStatus::FindCondition(const std::string& type) const {
  for (const auto& c : conditions) {
    if (c.type == type) return &c;
  }
  return nullptr;
}

bool PodStatus::SetCondition(const std::string& type, bool status, int64_t now_ms,
                             const std::string& reason) {
  for (auto& c : conditions) {
    if (c.type == type) {
      if (c.status == status) return false;
      c.status = status;
      c.last_transition_ms = now_ms;
      c.reason = reason;
      return true;
    }
  }
  conditions.push_back(PodCondition{type, status, now_ms, reason});
  return true;
}

namespace {

Json ContainerToJson(const Container& c) {
  Json out = Json::Object();
  out["name"] = c.name;
  out["image"] = c.image;
  if (!c.command.empty()) {
    Json arr = Json::Array();
    for (const auto& s : c.command) arr.Append(s);
    out["command"] = std::move(arr);
  }
  if (!c.env.empty()) {
    Json arr = Json::Array();
    for (const auto& e : c.env) {
      Json v = Json::Object();
      v["name"] = e.name;
      v["value"] = e.value;
      arr.Append(std::move(v));
    }
    out["env"] = std::move(arr);
  }
  Json res = Json::Object();
  res["requests"] = ResourceListToJson(c.requests);
  res["limits"] = ResourceListToJson(c.limits);
  out["resources"] = std::move(res);
  return out;
}

Container ContainerFromJson(const Json& j) {
  Container c;
  c.name = j.Get("name").as_string();
  c.image = j.Get("image").as_string();
  for (const Json& s : j.Get("command").array()) c.command.push_back(s.as_string());
  for (const Json& e : j.Get("env").array()) {
    c.env.push_back(EnvVar{e.Get("name").as_string(), e.Get("value").as_string()});
  }
  c.requests = ResourceListFromJson(j.Get("resources").Get("requests"));
  c.limits = ResourceListFromJson(j.Get("resources").Get("limits"));
  return c;
}

Json TolerationToJson(const Toleration& t) {
  Json out = Json::Object();
  out["key"] = t.key;
  out["operator"] = t.op == Toleration::Op::kExists ? "Exists" : "Equal";
  if (!t.value.empty()) out["value"] = t.value;
  if (!t.effect.empty()) out["effect"] = t.effect;
  return out;
}

Toleration TolerationFromJson(const Json& j) {
  Toleration t;
  t.key = j.Get("key").as_string();
  t.op = j.Get("operator").as_string() == "Exists" ? Toleration::Op::kExists
                                                   : Toleration::Op::kEqual;
  t.value = j.Get("value").as_string();
  t.effect = j.Get("effect").as_string();
  return t;
}

Json TaintToJson(const Taint& t) {
  Json out = Json::Object();
  out["key"] = t.key;
  if (!t.value.empty()) out["value"] = t.value;
  out["effect"] = t.effect;
  return out;
}

Taint TaintFromJson(const Json& j) {
  Taint t;
  t.key = j.Get("key").as_string();
  t.value = j.Get("value").as_string();
  t.effect = j.Get("effect").as_string();
  return t;
}

Json AffinityTermToJson(const PodAffinityTerm& t) {
  Json out = Json::Object();
  out["labelSelector"] = LabelSelectorToJson(t.selector);
  out["topologyKey"] = t.topology_key;
  return out;
}

PodAffinityTerm AffinityTermFromJson(const Json& j) {
  PodAffinityTerm t;
  t.selector = LabelSelectorFromJson(j.Get("labelSelector"));
  t.topology_key = j.Get("topologyKey").as_string();
  return t;
}

void DefaultPodSpec(PodSpec& s) {
  for (std::vector<PodAffinityTerm>* terms : {&s.required_anti_affinity, &s.required_affinity}) {
    for (PodAffinityTerm& t : *terms) {
      if (t.topology_key.empty()) t.topology_key = "kubernetes.io/hostname";
    }
  }
}

Json PodSpecToJson(const PodSpec& s) {
  Json out = Json::Object();
  auto containers = [](const std::vector<Container>& cs) {
    Json arr = Json::Array();
    for (const auto& c : cs) arr.Append(ContainerToJson(c));
    return arr;
  };
  if (!s.init_containers.empty()) out["initContainers"] = containers(s.init_containers);
  out["containers"] = containers(s.containers);
  if (!s.node_selector.empty()) out["nodeSelector"] = LabelMapToJson(s.node_selector);
  if (!s.node_name.empty()) out["nodeName"] = s.node_name;
  if (!s.tolerations.empty()) {
    Json arr = Json::Array();
    for (const auto& t : s.tolerations) arr.Append(TolerationToJson(t));
    out["tolerations"] = std::move(arr);
  }
  if (!s.required_anti_affinity.empty()) {
    Json arr = Json::Array();
    for (const auto& t : s.required_anti_affinity) arr.Append(AffinityTermToJson(t));
    out["podAntiAffinity"] = std::move(arr);
  }
  if (!s.required_affinity.empty()) {
    Json arr = Json::Array();
    for (const auto& t : s.required_affinity) arr.Append(AffinityTermToJson(t));
    out["podAffinity"] = std::move(arr);
  }
  if (!s.runtime_class.empty()) out["runtimeClassName"] = s.runtime_class;
  if (!s.service_account.empty()) out["serviceAccountName"] = s.service_account;
  if (!s.hostname.empty()) out["hostname"] = s.hostname;
  if (!s.subdomain.empty()) out["subdomain"] = s.subdomain;
  if (!s.scheduler_name.empty()) out["schedulerName"] = s.scheduler_name;
  if (!s.volumes.empty()) {
    Json arr = Json::Array();
    for (const auto& v : s.volumes) {
      Json vol = Json::Object();
      vol["name"] = v.name;
      if (!v.secret_name.empty()) vol["secret"] = v.secret_name;
      if (!v.config_map_name.empty()) vol["configMap"] = v.config_map_name;
      if (!v.pvc_name.empty()) vol["persistentVolumeClaim"] = v.pvc_name;
      arr.Append(std::move(vol));
    }
    out["volumes"] = std::move(arr);
  }
  return out;
}

PodSpec PodSpecFromJson(const Json& j) {
  PodSpec s;
  for (const Json& c : j.Get("initContainers").array())
    s.init_containers.push_back(ContainerFromJson(c));
  for (const Json& c : j.Get("containers").array()) s.containers.push_back(ContainerFromJson(c));
  s.node_selector = LabelMapFromJson(j.Get("nodeSelector"));
  s.node_name = j.Get("nodeName").as_string();
  for (const Json& t : j.Get("tolerations").array())
    s.tolerations.push_back(TolerationFromJson(t));
  for (const Json& t : j.Get("podAntiAffinity").array())
    s.required_anti_affinity.push_back(AffinityTermFromJson(t));
  for (const Json& t : j.Get("podAffinity").array())
    s.required_affinity.push_back(AffinityTermFromJson(t));
  s.runtime_class = j.Get("runtimeClassName").as_string();
  s.service_account = j.Get("serviceAccountName").as_string();
  s.hostname = j.Get("hostname").as_string();
  s.subdomain = j.Get("subdomain").as_string();
  s.scheduler_name = j.Get("schedulerName").as_string();
  for (const Json& v : j.Get("volumes").array()) {
    VolumeSource vol;
    vol.name = v.Get("name").as_string();
    vol.secret_name = v.Get("secret").as_string();
    vol.config_map_name = v.Get("configMap").as_string();
    vol.pvc_name = v.Get("persistentVolumeClaim").as_string();
    s.volumes.push_back(std::move(vol));
  }
  return s;
}

Json PodStatusToJson(const PodStatus& s) {
  Json out = Json::Object();
  out["phase"] = PodPhaseName(s.phase);
  if (!s.conditions.empty()) {
    Json arr = Json::Array();
    for (const auto& c : s.conditions) {
      Json v = Json::Object();
      v["type"] = c.type;
      v["status"] = c.status;
      v["lastTransitionTime"] = c.last_transition_ms;
      if (!c.reason.empty()) v["reason"] = c.reason;
      arr.Append(std::move(v));
    }
    out["conditions"] = std::move(arr);
  }
  if (!s.pod_ip.empty()) out["podIP"] = s.pod_ip;
  if (!s.host_ip.empty()) out["hostIP"] = s.host_ip;
  if (s.start_time_ms != 0) out["startTime"] = s.start_time_ms;
  if (!s.message.empty()) out["message"] = s.message;
  if (!s.container_statuses.empty()) {
    Json arr = Json::Array();
    for (const auto& c : s.container_statuses) {
      Json v = Json::Object();
      v["name"] = c.name;
      v["ready"] = c.ready;
      v["restartCount"] = static_cast<int64_t>(c.restart_count);
      v["state"] = c.state;
      arr.Append(std::move(v));
    }
    out["containerStatuses"] = std::move(arr);
  }
  return out;
}

PodStatus PodStatusFromJson(const Json& j) {
  PodStatus s;
  s.phase = PodPhaseFromName(j.Get("phase").as_string());
  for (const Json& c : j.Get("conditions").array()) {
    PodCondition pc;
    pc.type = c.Get("type").as_string();
    pc.status = c.Get("status").as_bool();
    pc.last_transition_ms = c.Get("lastTransitionTime").as_int();
    pc.reason = c.Get("reason").as_string();
    s.conditions.push_back(std::move(pc));
  }
  s.pod_ip = j.Get("podIP").as_string();
  s.host_ip = j.Get("hostIP").as_string();
  s.start_time_ms = j.Get("startTime").as_int();
  s.message = j.Get("message").as_string();
  for (const Json& c : j.Get("containerStatuses").array()) {
    ContainerStatus cs;
    cs.name = c.Get("name").as_string();
    cs.ready = c.Get("ready").as_bool();
    cs.restart_count = static_cast<int32_t>(c.Get("restartCount").as_int());
    cs.state = c.Get("state").as_string();
    s.container_statuses.push_back(std::move(cs));
  }
  return s;
}

Json ServicePortToJson(const ServicePort& p) {
  Json out = Json::Object();
  if (!p.name.empty()) out["name"] = p.name;
  out["port"] = static_cast<int64_t>(p.port);
  if (p.target_port != 0) out["targetPort"] = static_cast<int64_t>(p.target_port);
  out["protocol"] = p.protocol;
  return out;
}

ServicePort ServicePortFromJson(const Json& j) {
  ServicePort p;
  p.name = j.Get("name").as_string();
  p.port = static_cast<int32_t>(j.Get("port").as_int());
  p.target_port = static_cast<int32_t>(j.Get("targetPort").as_int());
  p.protocol = j.Get("protocol").as_string();
  return p;
}

void DefaultPorts(std::vector<ServicePort>& ports) {
  for (ServicePort& p : ports) {
    if (p.protocol.empty()) p.protocol = "TCP";
  }
}

Json TemplateToJson(const PodTemplateSpec& t) {
  Json out = Json::Object();
  Json meta = Json::Object();
  if (!t.labels.empty()) meta["labels"] = LabelMapToJson(t.labels);
  if (!t.annotations.empty()) meta["annotations"] = LabelMapToJson(t.annotations);
  out["metadata"] = std::move(meta);
  out["spec"] = PodSpecToJson(t.spec);
  return out;
}

PodTemplateSpec TemplateFromJson(const Json& j) {
  PodTemplateSpec t;
  t.labels = LabelMapFromJson(j.Get("metadata").Get("labels"));
  t.annotations = LabelMapFromJson(j.Get("metadata").Get("annotations"));
  t.spec = PodSpecFromJson(j.Get("spec"));
  return t;
}

}  // namespace

// ---------------------------------------------------------------- Pod

Json Codec<Pod>::Encode(const Pod& obj) {
  Json out = Json::Object();
  out["kind"] = Pod::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  out["spec"] = PodSpecToJson(obj.spec);
  out["status"] = PodStatusToJson(obj.status);
  return out;
}

Result<Pod> Codec<Pod>::Decode(const Json& j) {
  Pod p;
  p.meta = ObjectMetaFromJson(j.Get("metadata"));
  p.spec = PodSpecFromJson(j.Get("spec"));
  p.status = PodStatusFromJson(j.Get("status"));
  Default(p);
  return p;
}

void Codec<Pod>::Default(Pod& obj) { DefaultPodSpec(obj.spec); }

// ---------------------------------------------------------------- Service

Json Codec<Service>::Encode(const Service& obj) {
  Json out = Json::Object();
  out["kind"] = Service::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json spec = Json::Object();
  if (!obj.spec.selector.empty()) spec["selector"] = LabelMapToJson(obj.spec.selector);
  Json ports = Json::Array();
  for (const auto& p : obj.spec.ports) ports.Append(ServicePortToJson(p));
  spec["ports"] = std::move(ports);
  if (!obj.spec.cluster_ip.empty()) spec["clusterIP"] = obj.spec.cluster_ip;
  spec["type"] = obj.spec.type;
  out["spec"] = std::move(spec);
  return out;
}

Result<Service> Codec<Service>::Decode(const Json& j) {
  Service s;
  s.meta = ObjectMetaFromJson(j.Get("metadata"));
  const Json& spec = j.Get("spec");
  s.spec.selector = LabelMapFromJson(spec.Get("selector"));
  for (const Json& p : spec.Get("ports").array()) s.spec.ports.push_back(ServicePortFromJson(p));
  s.spec.cluster_ip = spec.Get("clusterIP").as_string();
  s.spec.type = spec.Get("type").as_string();
  Default(s);
  return s;
}

void Codec<Service>::Default(Service& obj) {
  DefaultPorts(obj.spec.ports);
  if (obj.spec.type.empty()) obj.spec.type = "ClusterIP";
}

// ---------------------------------------------------------------- Endpoints

Json Codec<Endpoints>::Encode(const Endpoints& obj) {
  Json out = Json::Object();
  out["kind"] = Endpoints::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json subsets = Json::Array();
  for (const auto& ss : obj.subsets) {
    Json sub = Json::Object();
    Json addrs = Json::Array();
    for (const auto& a : ss.addresses) {
      Json v = Json::Object();
      v["ip"] = a.ip;
      if (!a.node_name.empty()) v["nodeName"] = a.node_name;
      if (!a.target_pod.empty()) v["targetPod"] = a.target_pod;
      addrs.Append(std::move(v));
    }
    sub["addresses"] = std::move(addrs);
    Json ports = Json::Array();
    for (const auto& p : ss.ports) ports.Append(ServicePortToJson(p));
    sub["ports"] = std::move(ports);
    subsets.Append(std::move(sub));
  }
  out["subsets"] = std::move(subsets);
  return out;
}

Result<Endpoints> Codec<Endpoints>::Decode(const Json& j) {
  Endpoints e;
  e.meta = ObjectMetaFromJson(j.Get("metadata"));
  for (const Json& sub : j.Get("subsets").array()) {
    EndpointSubset ss;
    for (const Json& a : sub.Get("addresses").array()) {
      EndpointAddress addr;
      addr.ip = a.Get("ip").as_string();
      addr.node_name = a.Get("nodeName").as_string();
      addr.target_pod = a.Get("targetPod").as_string();
      ss.addresses.push_back(std::move(addr));
    }
    for (const Json& p : sub.Get("ports").array()) ss.ports.push_back(ServicePortFromJson(p));
    e.subsets.push_back(std::move(ss));
  }
  Default(e);
  return e;
}

void Codec<Endpoints>::Default(Endpoints& obj) {
  for (EndpointSubset& ss : obj.subsets) DefaultPorts(ss.ports);
}

// ---------------------------------------------------------------- Node

Json Codec<Node>::Encode(const Node& obj) {
  Json out = Json::Object();
  out["kind"] = Node::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json spec = Json::Object();
  if (!obj.spec.taints.empty()) {
    Json arr = Json::Array();
    for (const auto& t : obj.spec.taints) arr.Append(TaintToJson(t));
    spec["taints"] = std::move(arr);
  }
  if (obj.spec.unschedulable) spec["unschedulable"] = true;
  if (!obj.spec.provider_id.empty()) spec["providerID"] = obj.spec.provider_id;
  out["spec"] = std::move(spec);
  Json status = Json::Object();
  status["capacity"] = ResourceListToJson(obj.status.capacity);
  status["allocatable"] = ResourceListToJson(obj.status.allocatable);
  if (!obj.status.conditions.empty()) {
    Json arr = Json::Array();
    for (const auto& c : obj.status.conditions) {
      Json v = Json::Object();
      v["type"] = c.type;
      v["status"] = c.status;
      v["lastTransitionTime"] = c.last_transition_ms;
      if (!c.reason.empty()) v["reason"] = c.reason;
      arr.Append(std::move(v));
    }
    status["conditions"] = std::move(arr);
  }
  if (!obj.status.address.empty()) status["address"] = obj.status.address;
  if (!obj.status.kubelet_endpoint.empty())
    status["kubeletEndpoint"] = obj.status.kubelet_endpoint;
  if (obj.status.last_heartbeat_ms != 0) status["lastHeartbeat"] = obj.status.last_heartbeat_ms;
  out["status"] = std::move(status);
  return out;
}

Result<Node> Codec<Node>::Decode(const Json& j) {
  Node n;
  n.meta = ObjectMetaFromJson(j.Get("metadata"));
  const Json& spec = j.Get("spec");
  for (const Json& t : spec.Get("taints").array()) n.spec.taints.push_back(TaintFromJson(t));
  n.spec.unschedulable = spec.Get("unschedulable").as_bool();
  n.spec.provider_id = spec.Get("providerID").as_string();
  const Json& status = j.Get("status");
  n.status.capacity = ResourceListFromJson(status.Get("capacity"));
  n.status.allocatable = ResourceListFromJson(status.Get("allocatable"));
  for (const Json& c : status.Get("conditions").array()) {
    NodeCondition nc;
    nc.type = c.Get("type").as_string();
    nc.status = c.Get("status").as_bool();
    nc.last_transition_ms = c.Get("lastTransitionTime").as_int();
    nc.reason = c.Get("reason").as_string();
    n.status.conditions.push_back(std::move(nc));
  }
  n.status.address = status.Get("address").as_string();
  n.status.kubelet_endpoint = status.Get("kubeletEndpoint").as_string();
  n.status.last_heartbeat_ms = status.Get("lastHeartbeat").as_int();
  return n;
}

void Codec<Node>::Default(Node&) {}

// ---------------------------------------------------------------- Namespace

Json Codec<NamespaceObj>::Encode(const NamespaceObj& obj) {
  Json out = Json::Object();
  out["kind"] = NamespaceObj::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json status = Json::Object();
  status["phase"] = obj.phase;
  out["status"] = std::move(status);
  return out;
}

Result<NamespaceObj> Codec<NamespaceObj>::Decode(const Json& j) {
  NamespaceObj n;
  n.meta = ObjectMetaFromJson(j.Get("metadata"));
  n.phase = j.Get("status").Get("phase").as_string();
  Default(n);
  return n;
}

void Codec<NamespaceObj>::Default(NamespaceObj& obj) {
  if (obj.phase.empty()) obj.phase = "Active";
}

// ---------------------------------------------------------------- Secret

namespace {

Json StringMapToJson(const std::map<std::string, std::string>& m) {
  Json out = Json::Object();
  for (const auto& [k, v] : m) out[k] = v;
  return out;
}

std::map<std::string, std::string> StringMapFromJson(const Json& j) {
  std::map<std::string, std::string> out;
  for (const auto& [k, v] : j.object()) out[k] = v.as_string();
  return out;
}

}  // namespace

Json Codec<Secret>::Encode(const Secret& obj) {
  Json out = Json::Object();
  out["kind"] = Secret::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  out["type"] = obj.type;
  out["data"] = StringMapToJson(obj.data);
  return out;
}

Result<Secret> Codec<Secret>::Decode(const Json& j) {
  Secret s;
  s.meta = ObjectMetaFromJson(j.Get("metadata"));
  s.type = j.Get("type").as_string();
  s.data = StringMapFromJson(j.Get("data"));
  Default(s);
  return s;
}

void Codec<Secret>::Default(Secret& obj) {
  if (obj.type.empty()) obj.type = "Opaque";
}

// ---------------------------------------------------------------- ConfigMap

Json Codec<ConfigMap>::Encode(const ConfigMap& obj) {
  Json out = Json::Object();
  out["kind"] = ConfigMap::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  out["data"] = StringMapToJson(obj.data);
  return out;
}

Result<ConfigMap> Codec<ConfigMap>::Decode(const Json& j) {
  ConfigMap c;
  c.meta = ObjectMetaFromJson(j.Get("metadata"));
  c.data = StringMapFromJson(j.Get("data"));
  return c;
}

void Codec<ConfigMap>::Default(ConfigMap&) {}

// ---------------------------------------------------------------- SA

Json Codec<ServiceAccount>::Encode(const ServiceAccount& obj) {
  Json out = Json::Object();
  out["kind"] = ServiceAccount::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json arr = Json::Array();
  for (const auto& s : obj.secrets) arr.Append(s);
  out["secrets"] = std::move(arr);
  return out;
}

Result<ServiceAccount> Codec<ServiceAccount>::Decode(const Json& j) {
  ServiceAccount s;
  s.meta = ObjectMetaFromJson(j.Get("metadata"));
  for (const Json& v : j.Get("secrets").array()) s.secrets.push_back(v.as_string());
  return s;
}

void Codec<ServiceAccount>::Default(ServiceAccount&) {}

// ---------------------------------------------------------------- PV / PVC

Json Codec<PersistentVolume>::Encode(const PersistentVolume& obj) {
  Json out = Json::Object();
  out["kind"] = PersistentVolume::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  out["capacityBytes"] = obj.capacity_bytes;
  if (!obj.storage_class.empty()) out["storageClassName"] = obj.storage_class;
  if (!obj.claim_ref.empty()) out["claimRef"] = obj.claim_ref;
  out["phase"] = obj.phase;
  return out;
}

Result<PersistentVolume> Codec<PersistentVolume>::Decode(const Json& j) {
  PersistentVolume p;
  p.meta = ObjectMetaFromJson(j.Get("metadata"));
  p.capacity_bytes = j.Get("capacityBytes").as_int();
  p.storage_class = j.Get("storageClassName").as_string();
  p.claim_ref = j.Get("claimRef").as_string();
  p.phase = j.Get("phase").as_string();
  Default(p);
  return p;
}

void Codec<PersistentVolume>::Default(PersistentVolume& obj) {
  if (obj.phase.empty()) obj.phase = "Available";
}

Json Codec<PersistentVolumeClaim>::Encode(const PersistentVolumeClaim& obj) {
  Json out = Json::Object();
  out["kind"] = PersistentVolumeClaim::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  out["requestBytes"] = obj.request_bytes;
  if (!obj.storage_class.empty()) out["storageClassName"] = obj.storage_class;
  if (!obj.volume_name.empty()) out["volumeName"] = obj.volume_name;
  out["phase"] = obj.phase;
  return out;
}

Result<PersistentVolumeClaim> Codec<PersistentVolumeClaim>::Decode(const Json& j) {
  PersistentVolumeClaim p;
  p.meta = ObjectMetaFromJson(j.Get("metadata"));
  p.request_bytes = j.Get("requestBytes").as_int();
  p.storage_class = j.Get("storageClassName").as_string();
  p.volume_name = j.Get("volumeName").as_string();
  p.phase = j.Get("phase").as_string();
  Default(p);
  return p;
}

void Codec<PersistentVolumeClaim>::Default(PersistentVolumeClaim& obj) {
  if (obj.phase.empty()) obj.phase = "Pending";
}

// ---------------------------------------------------------------- Event

Json Codec<EventObj>::Encode(const EventObj& obj) {
  Json out = Json::Object();
  out["kind"] = EventObj::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json inv = Json::Object();
  inv["kind"] = obj.involved_kind;
  inv["name"] = obj.involved_name;
  if (!obj.involved_uid.empty()) inv["uid"] = obj.involved_uid;
  out["involvedObject"] = std::move(inv);
  out["reason"] = obj.reason;
  out["message"] = obj.message;
  out["type"] = obj.type;
  out["count"] = static_cast<int64_t>(obj.count);
  if (obj.last_timestamp_ms != 0) out["lastTimestamp"] = obj.last_timestamp_ms;
  return out;
}

Result<EventObj> Codec<EventObj>::Decode(const Json& j) {
  EventObj e;
  e.meta = ObjectMetaFromJson(j.Get("metadata"));
  e.involved_kind = j.Get("involvedObject").Get("kind").as_string();
  e.involved_name = j.Get("involvedObject").Get("name").as_string();
  e.involved_uid = j.Get("involvedObject").Get("uid").as_string();
  e.reason = j.Get("reason").as_string();
  e.message = j.Get("message").as_string();
  e.type = j.Get("type").as_string();
  e.count = static_cast<int32_t>(j.Get("count").as_int(1));
  e.last_timestamp_ms = j.Get("lastTimestamp").as_int();
  Default(e);
  return e;
}

void Codec<EventObj>::Default(EventObj& obj) {
  if (obj.type.empty()) obj.type = "Normal";
}

// ---------------------------------------------------------------- ReplicaSet

Json Codec<ReplicaSet>::Encode(const ReplicaSet& obj) {
  Json out = Json::Object();
  out["kind"] = ReplicaSet::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json spec = Json::Object();
  spec["replicas"] = static_cast<int64_t>(obj.replicas);
  spec["selector"] = LabelSelectorToJson(obj.selector);
  spec["template"] = TemplateToJson(obj.template_);
  out["spec"] = std::move(spec);
  Json status = Json::Object();
  status["replicas"] = static_cast<int64_t>(obj.status_replicas);
  status["readyReplicas"] = static_cast<int64_t>(obj.status_ready);
  out["status"] = std::move(status);
  return out;
}

Result<ReplicaSet> Codec<ReplicaSet>::Decode(const Json& j) {
  ReplicaSet r;
  r.meta = ObjectMetaFromJson(j.Get("metadata"));
  const Json& spec = j.Get("spec");
  r.replicas = static_cast<int32_t>(spec.Get("replicas").as_int(1));
  r.selector = LabelSelectorFromJson(spec.Get("selector"));
  r.template_ = TemplateFromJson(spec.Get("template"));
  r.status_replicas = static_cast<int32_t>(j.Get("status").Get("replicas").as_int());
  r.status_ready = static_cast<int32_t>(j.Get("status").Get("readyReplicas").as_int());
  Default(r);
  return r;
}

void Codec<ReplicaSet>::Default(ReplicaSet& obj) { DefaultPodSpec(obj.template_.spec); }

// ---------------------------------------------------------------- Deployment

Json Codec<Deployment>::Encode(const Deployment& obj) {
  Json out = Json::Object();
  out["kind"] = Deployment::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json spec = Json::Object();
  spec["replicas"] = static_cast<int64_t>(obj.replicas);
  spec["selector"] = LabelSelectorToJson(obj.selector);
  spec["template"] = TemplateToJson(obj.template_);
  out["spec"] = std::move(spec);
  Json status = Json::Object();
  status["replicas"] = static_cast<int64_t>(obj.status_replicas);
  status["readyReplicas"] = static_cast<int64_t>(obj.status_ready);
  status["observedGeneration"] = obj.observed_generation;
  out["status"] = std::move(status);
  return out;
}

Result<Deployment> Codec<Deployment>::Decode(const Json& j) {
  Deployment d;
  d.meta = ObjectMetaFromJson(j.Get("metadata"));
  const Json& spec = j.Get("spec");
  d.replicas = static_cast<int32_t>(spec.Get("replicas").as_int(1));
  d.selector = LabelSelectorFromJson(spec.Get("selector"));
  d.template_ = TemplateFromJson(spec.Get("template"));
  d.status_replicas = static_cast<int32_t>(j.Get("status").Get("replicas").as_int());
  d.status_ready = static_cast<int32_t>(j.Get("status").Get("readyReplicas").as_int());
  d.observed_generation = j.Get("status").Get("observedGeneration").as_int();
  Default(d);
  return d;
}

void Codec<Deployment>::Default(Deployment& obj) { DefaultPodSpec(obj.template_.spec); }

}  // namespace vc::api
