// Defaulting round trip over every kind with a Codec: the 13 core kinds plus
// the two custom resources. The apiserver defaults an object before it
// encodes it, seeds its DecodeCache with that object, and returns it to the
// caller, so Decode(Encode(Default(x))) must give back Default(x) exactly —
// otherwise a seeded watch delivery and a parsed one would disagree.
//
// Each sample sets every field the codec carries (so a field the encoder
// drops shows up as a mismatch) and leaves every defaulted string blank.
#include <gtest/gtest.h>

#include "api/codec.h"
#include "api/types.h"
#include "vc/crds.h"
#include "vc/types.h"

namespace vc::api {
namespace {

ObjectMeta FullMeta(const std::string& ns, const std::string& name) {
  ObjectMeta m;
  m.name = name;
  m.ns = ns;
  m.uid = "uid-" + name;
  m.resource_version = 41;
  m.generation = 3;
  m.creation_timestamp_ms = 1234;
  m.deletion_timestamp_ms = 5678;
  m.labels = {{"app", "web"}, {"tier", "frontend"}};
  m.annotations = {{"owner", "team-a"}, {"note", "quote \" and \\ and\nnewline"}};
  m.finalizers = {"example.com/protect", "kubernetes"};
  m.owner_references = {{"ReplicaSet", "web", "rs-uid", true}, {"Deployment", "d", "d-uid", false}};
  return m;
}

LabelSelector FullSelector() {
  LabelSelector s = LabelSelector::FromMap({{"app", "web"}});
  using Op = LabelSelectorRequirement::Op;
  s.match_expressions = {{"tier", Op::kIn, {"a", "b"}},
                         {"zone", Op::kNotIn, {"z1"}},
                         {"gpu", Op::kExists, {}},
                         {"legacy", Op::kDoesNotExist, {}}};
  return s;
}

PodSpec FullPodSpec() {
  PodSpec s;
  Container c;
  c.name = "app";
  c.image = "nginx:1.19";
  c.command = {"/bin/nginx", "-g", "daemon off;"};
  c.env = {{"PORT", "8080"}, {"EMPTY", ""}};
  c.requests = {500, 1 << 20};
  c.limits = {1000, 2 << 20};
  s.containers.push_back(c);
  Container init;
  init.name = "init";
  init.image = "routes:v1";
  s.init_containers.push_back(init);
  s.node_selector = {{"disk", "ssd"}};
  s.node_name = "node-7";
  s.tolerations = {{"dedicated", Toleration::Op::kEqual, "tenant", "NoSchedule"},
                   {"any", Toleration::Op::kExists, "", ""}};
  PodAffinityTerm blank;  // defaulted: topology_key "" → kubernetes.io/hostname
  blank.selector = FullSelector();
  blank.topology_key = "";
  PodAffinityTerm zoned;
  zoned.selector = LabelSelector::FromMap({{"app", "db"}});
  zoned.topology_key = "topology.kubernetes.io/zone";
  s.required_anti_affinity = {blank, zoned};
  s.required_affinity = {zoned, blank};
  s.runtime_class = "kata";
  s.service_account = "web-sa";
  s.hostname = "web-0";
  s.subdomain = "web-svc";
  s.volumes = {{"cfg", "", "web-config", ""}, {"tok", "web-token", "", ""},
               {"data", "", "", "data-0"}};
  s.scheduler_name = "gang";
  return s;
}

template <typename T>
T Sample();

template <>
Pod Sample<Pod>() {
  Pod p;
  p.meta = FullMeta("default", "web-0");
  p.spec = FullPodSpec();
  p.status.phase = PodPhase::kRunning;
  p.status.SetCondition(kPodReady, true, 5678, "ContainersReady");
  p.status.SetCondition(kPodScheduled, false, 10);
  p.status.pod_ip = "10.1.2.3";
  p.status.host_ip = "192.168.0.10";
  p.status.start_time_ms = 99;
  p.status.container_statuses = {{"app", true, 2, "running"}};
  p.status.message = "ok";
  return p;
}

template <>
Service Sample<Service>() {
  Service s;
  s.meta = FullMeta("default", "web");
  s.spec.selector = {{"app", "web"}};
  s.spec.ports = {{"http", 80, 8080, ""}, {"dns", 53, 0, "UDP"}};
  s.spec.cluster_ip = "10.96.0.10";
  s.spec.type = "";
  return s;
}

template <>
Endpoints Sample<Endpoints>() {
  Endpoints e;
  e.meta = FullMeta("default", "web");
  EndpointSubset ss;
  ss.addresses = {{"10.1.0.5", "node-1", "web-0"}, {"10.1.0.6", "", ""}};
  ss.ports = {{"http", 80, 8080, ""}, {"", 53, 0, "UDP"}};
  e.subsets = {ss, EndpointSubset{}};
  return e;
}

template <>
Node Sample<Node>() {
  Node n;
  n.meta = FullMeta("", "node-1");
  n.spec.taints = {{"dedicated", "tenant", "NoSchedule"}, {"gpu", "", "NoExecute"}};
  n.spec.unschedulable = true;
  n.spec.provider_id = "mock://node-1";
  n.status.capacity = {96000, 328ll << 30};
  n.status.allocatable = {95000, 320ll << 30};
  n.status.conditions = {{kNodeReady, true, 42, "KubeletReady"}};
  n.status.address = "192.168.0.10";
  n.status.kubelet_endpoint = "192.168.0.10:10250";
  n.status.last_heartbeat_ms = 777;
  return n;
}

template <>
NamespaceObj Sample<NamespaceObj>() {
  NamespaceObj n;
  n.meta = FullMeta("", "tenant-a");
  n.phase = "";
  return n;
}

template <>
Secret Sample<Secret>() {
  Secret s;
  s.meta = FullMeta("default", "creds");
  s.type = "";
  s.data = {{"token", "abc123"}, {"empty", ""}};
  return s;
}

template <>
ConfigMap Sample<ConfigMap>() {
  ConfigMap c;
  c.meta = FullMeta("default", "conf");
  c.data = {{"config.yaml", "a: 1\nb: 2\n"}};
  return c;
}

template <>
ServiceAccount Sample<ServiceAccount>() {
  ServiceAccount s;
  s.meta = FullMeta("default", "web-sa");
  s.secrets = {"creds", "other"};
  return s;
}

template <>
PersistentVolume Sample<PersistentVolume>() {
  PersistentVolume pv;
  pv.meta = FullMeta("", "pv-1");
  pv.capacity_bytes = 10ll << 30;
  pv.storage_class = "ssd";
  pv.claim_ref = "default/data-0";
  pv.phase = "";
  return pv;
}

template <>
PersistentVolumeClaim Sample<PersistentVolumeClaim>() {
  PersistentVolumeClaim pvc;
  pvc.meta = FullMeta("default", "data-0");
  pvc.request_bytes = 5ll << 30;
  pvc.storage_class = "ssd";
  pvc.volume_name = "pv-1";
  pvc.phase = "";
  return pvc;
}

template <>
EventObj Sample<EventObj>() {
  EventObj e;
  e.meta = FullMeta("default", "web-0.123");
  e.involved_kind = "Pod";
  e.involved_name = "web-0";
  e.involved_uid = "uid-1";
  e.reason = "Scheduled";
  e.message = "Successfully assigned default/web-0 to node-1";
  e.type = "";
  e.count = 0;
  e.last_timestamp_ms = 999;
  return e;
}

PodTemplateSpec FullTemplate() {
  PodTemplateSpec t;
  t.labels = {{"app", "web"}};
  t.annotations = {{"rev", "7"}};
  t.spec = FullPodSpec();
  return t;
}

template <>
ReplicaSet Sample<ReplicaSet>() {
  ReplicaSet rs;
  rs.meta = FullMeta("default", "web-abc");
  rs.replicas = 0;
  rs.selector = FullSelector();
  rs.template_ = FullTemplate();
  rs.status_replicas = 2;
  rs.status_ready = 1;
  return rs;
}

template <>
Deployment Sample<Deployment>() {
  Deployment d;
  d.meta = FullMeta("default", "web");
  d.replicas = 0;
  d.selector = FullSelector();
  d.template_ = FullTemplate();
  d.status_replicas = 3;
  d.status_ready = 2;
  d.observed_generation = 7;
  return d;
}

template <>
core::VirtualClusterObj Sample<core::VirtualClusterObj>() {
  core::VirtualClusterObj v;
  v.meta = FullMeta("tenants", "acme");
  v.apiserver_version = "";
  v.provision_mode = "";
  v.etcd_storage_mb = 2048;
  v.client_qps = 12.625;
  v.client_burst = 0.1;
  v.weight = 3;
  v.phase = "";
  v.kubeconfig_secret = "acme-kubeconfig";
  v.cert_fingerprint = "sha256:abcd";
  v.message = "provisioning";
  return v;
}

template <>
core::GpuJob Sample<core::GpuJob>() {
  core::GpuJob j;
  j.meta = FullMeta("default", "train");
  j.replicas = 4;
  j.gpus_per_replica = 8;
  j.framework = "";
  j.queue = "";
  j.phase = "";
  j.ready_replicas = 2;
  j.scheduler_message = "gang waiting";
  return j;
}

template <typename T>
class CodecDefaultsTest : public ::testing::Test {};

using AllKinds =
    ::testing::Types<Pod, Service, Endpoints, Node, NamespaceObj, Secret, ConfigMap,
                     ServiceAccount, PersistentVolume, PersistentVolumeClaim, EventObj,
                     ReplicaSet, Deployment, core::VirtualClusterObj, core::GpuJob>;
TYPED_TEST_SUITE(CodecDefaultsTest, AllKinds);

TYPED_TEST(CodecDefaultsTest, DefaultedObjectRoundTripsExactly) {
  TypeParam defaulted = Sample<TypeParam>();
  Default(defaulted);
  Result<TypeParam> back = Decode<TypeParam>(Encode(defaulted));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == defaulted) << Encode(*back) << "\n  vs\n" << Encode(defaulted);
}

TYPED_TEST(CodecDefaultsTest, DecodeAppliesTheSameDefaults) {
  // A blob written without defaulting (a raw kv write, an older writer) still
  // decodes to the defaulted object.
  const TypeParam raw = Sample<TypeParam>();
  TypeParam defaulted = raw;
  Default(defaulted);
  Result<TypeParam> back = Decode<TypeParam>(Encode(raw));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == defaulted) << Encode(*back) << "\n  vs\n" << Encode(defaulted);
  // Defaulting is idempotent.
  TypeParam twice = defaulted;
  Default(twice);
  EXPECT_TRUE(twice == defaulted);
}

TEST(CodecDefaultsTest, BlankDefaultedFieldsAreFilled) {
  Service s = Sample<Service>();
  Default(s);
  EXPECT_EQ(s.spec.ports[0].protocol, "TCP");
  EXPECT_EQ(s.spec.ports[1].protocol, "UDP");
  EXPECT_EQ(s.spec.type, "ClusterIP");

  Pod p = Sample<Pod>();
  Default(p);
  EXPECT_EQ(p.spec.required_anti_affinity[0].topology_key, "kubernetes.io/hostname");
  EXPECT_EQ(p.spec.required_anti_affinity[1].topology_key, "topology.kubernetes.io/zone");
  EXPECT_EQ(p.spec.required_affinity[1].topology_key, "kubernetes.io/hostname");

  Deployment d = Sample<Deployment>();
  Default(d);
  EXPECT_EQ(d.template_.spec.required_anti_affinity[0].topology_key,
            "kubernetes.io/hostname");

  core::VirtualClusterObj v = Sample<core::VirtualClusterObj>();
  Default(v);
  EXPECT_EQ(v.apiserver_version, "1.18");
  EXPECT_EQ(v.provision_mode, "Local");
  EXPECT_EQ(v.phase, "Pending");

  core::GpuJob j = Sample<core::GpuJob>();
  Default(j);
  EXPECT_EQ(j.framework, "pytorch");
  EXPECT_EQ(j.queue, "default");
  EXPECT_EQ(j.phase, "Pending");
}

}  // namespace
}  // namespace vc::api
