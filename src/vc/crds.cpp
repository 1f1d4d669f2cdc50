#include "vc/crds.h"

namespace vc::core {

GpuJobPlugin::GpuJobPlugin(Options opts) : opts_(std::move(opts)) {
  client::SharedInformer<GpuJob>::Options io;
  io.clock = opts_.clock;
  informer_ = std::make_unique<client::SharedInformer<GpuJob>>(
      client::ListerWatcher<GpuJob>(opts_.server, "",
                                    apiserver::RequestContext::System("gpujob-plugin")),
      io);
}

GpuJobPlugin::~GpuJobPlugin() { Stop(); }

void GpuJobPlugin::Start() {
  stop_.store(false);
  informer_->Start();
  reconcile_timer_ = Executor::SharedFor(opts_.clock)->RunEvery(Millis(20), [this] {
    if (!stop_.load() && informer_->HasSynced()) ReconcileAll();
  });
}

void GpuJobPlugin::Stop() {
  if (stop_.exchange(true)) return;
  reconcile_timer_.Cancel();
  informer_->Stop();
}

bool GpuJobPlugin::WaitForSync(Duration timeout) { return informer_->WaitForSync(timeout); }

void GpuJobPlugin::ReconcileAll() {
  int32_t in_use = 0;
  // First pass: account for admitted/running jobs.
  for (const auto& job : informer_->cache().List()) {
    if (job->phase == "Admitted" || job->phase == "Running") {
      in_use += job->replicas * job->gpus_per_replica;
    }
  }
  for (const auto& job : informer_->cache().List()) {
    if (job->meta.deleting()) continue;
    if (job->phase == "Pending") {
      const int32_t need = job->replicas * job->gpus_per_replica;
      const bool fits = in_use + need <= opts_.total_gpus;
      opts_.clock->SleepFor(opts_.admit_delay);
      Status st = apiserver::RetryUpdate<GpuJob>(
          *opts_.server, job->meta.ns, job->meta.name, [&](GpuJob& live) {
            if (live.phase != "Pending") return false;
            if (fits) {
              live.phase = "Admitted";
              live.scheduler_message = "gang admitted";
              return true;
            }
            if (live.scheduler_message != "waiting for GPUs") {
              live.scheduler_message = "waiting for GPUs";
              return true;
            }
            return false;
          });
      if (st.ok() && fits) in_use += need;
    } else if (job->phase == "Admitted") {
      // All replicas come up together (gang semantics).
      (void)apiserver::RetryUpdate<GpuJob>(
          *opts_.server, job->meta.ns, job->meta.name, [&](GpuJob& live) {
            if (live.phase != "Admitted") return false;
            live.phase = "Running";
            live.ready_replicas = live.replicas;
            live.scheduler_message = "all replicas running";
            return true;
          });
    }
  }
  gpus_in_use_.store(in_use);
}

}  // namespace vc::core

namespace vc::api {

Json Codec<vc::core::GpuJob>::Encode(const vc::core::GpuJob& obj) {
  Json out = Json::Object();
  out["kind"] = vc::core::GpuJob::kKind;
  out["metadata"] = ObjectMetaToJson(obj.meta);
  Json spec = Json::Object();
  spec["replicas"] = static_cast<int64_t>(obj.replicas);
  spec["gpusPerReplica"] = static_cast<int64_t>(obj.gpus_per_replica);
  spec["framework"] = obj.framework;
  spec["queue"] = obj.queue;
  out["spec"] = std::move(spec);
  Json status = Json::Object();
  status["phase"] = obj.phase;
  status["readyReplicas"] = static_cast<int64_t>(obj.ready_replicas);
  if (!obj.scheduler_message.empty()) status["schedulerMessage"] = obj.scheduler_message;
  out["status"] = std::move(status);
  return out;
}

Result<vc::core::GpuJob> Codec<vc::core::GpuJob>::Decode(const Json& j) {
  vc::core::GpuJob obj;
  obj.meta = ObjectMetaFromJson(j.Get("metadata"));
  const Json& spec = j.Get("spec");
  obj.replicas = static_cast<int32_t>(spec.Get("replicas").as_int(1));
  obj.gpus_per_replica = static_cast<int32_t>(spec.Get("gpusPerReplica").as_int(1));
  obj.framework = spec.Get("framework").as_string();
  obj.queue = spec.Get("queue").as_string();
  const Json& status = j.Get("status");
  obj.phase = status.Get("phase").as_string();
  obj.ready_replicas = static_cast<int32_t>(status.Get("readyReplicas").as_int());
  obj.scheduler_message = status.Get("schedulerMessage").as_string();
  Default(obj);
  return obj;
}

void Codec<vc::core::GpuJob>::Default(vc::core::GpuJob& obj) {
  if (obj.framework.empty()) obj.framework = "pytorch";
  if (obj.queue.empty()) obj.queue = "default";
  if (obj.phase.empty()) obj.phase = "Pending";
}

}  // namespace vc::api
