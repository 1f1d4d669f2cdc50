// JSON codecs: every API type is persisted in the kv store as its JSON
// encoding and decoded on every read/watch delivery, giving the simulation
// realistic (de)serialization work and byte-accurate object sizes.
//
// To add a new type (e.g. a CRD like vc::VirtualClusterObj) specialize
// Codec<T> next to the type; the templated apiserver/client machinery picks
// it up with no central registration.
#pragma once

#include "api/types.h"
#include "common/json.h"
#include "common/status.h"

namespace vc::api {

template <typename T>
struct Codec;  // { static Json Encode(const T&); static Result<T> Decode(const Json&);
               //   static void Default(T&); }

// Defaulting: fills the empty fields that carry a default ("" protocol →
// "TCP", ...). Decode applies it to every blob it parses, and the apiserver
// applies it on the write path before encoding (kube-apiserver defaults at
// admission), so a written object, its stored blob and every decode of that
// blob agree: Decode(Encode(Default(x))) == Default(x).
template <typename T>
void Default(T& obj) {
  Codec<T>::Default(obj);
}

template <typename T>
std::string Encode(const T& obj) {
  return Codec<T>::Encode(obj).Dump();
}

template <typename T>
Result<T> Decode(std::string_view data) {
  Result<Json> j = Json::Parse(data);
  if (!j.ok()) return j.status();
  return Codec<T>::Decode(*j);
}

// Overload for callers holding a std::string (or anything convertible to one,
// e.g. kv::Blob): avoids requiring two user-defined conversions to reach the
// string_view overload.
// Approximate in-memory size of an object, used by informer-cache byte
// accounting (Fig. 10 reproduction).
template <typename T>
size_t ApproxObjectBytes(const T& obj) {
  return Codec<T>::Encode(obj).ApproxBytes();
}

#define VC_DECLARE_CODEC(T)                \
  template <>                              \
  struct Codec<T> {                        \
    static Json Encode(const T& obj);      \
    static Result<T> Decode(const Json& j); \
    static void Default(T& obj);           \
  }

VC_DECLARE_CODEC(Pod);
VC_DECLARE_CODEC(Service);
VC_DECLARE_CODEC(Endpoints);
VC_DECLARE_CODEC(Node);
VC_DECLARE_CODEC(NamespaceObj);
VC_DECLARE_CODEC(Secret);
VC_DECLARE_CODEC(ConfigMap);
VC_DECLARE_CODEC(ServiceAccount);
VC_DECLARE_CODEC(PersistentVolume);
VC_DECLARE_CODEC(PersistentVolumeClaim);
VC_DECLARE_CODEC(EventObj);
VC_DECLARE_CODEC(ReplicaSet);
VC_DECLARE_CODEC(Deployment);

#undef VC_DECLARE_CODEC

}  // namespace vc::api
