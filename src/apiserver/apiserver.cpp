#include "apiserver/apiserver.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/hash.h"

namespace vc::apiserver {

APIServer::APIServer(Options opts) : opts_(std::move(opts)) {
  exec_ = Executor::SharedFor(opts_.clock);
  if (opts_.store) {
    store_ = opts_.store;  // front end over a shared store (FrontendTier)
  } else {
    kv::KvStore::Options store_opts = opts_.store_options;
    store_opts.executor = exec_;
    store_ = std::make_shared<kv::KvStore>(std::move(store_opts));
  }
  RequestDispatcher::Options dopts;
  dopts.clock = opts_.clock;
  dopts.max_inflight = opts_.max_inflight;
  dopts.fairness = opts_.fairness;
  dopts.queue_limit = opts_.queue_limit;
  dopts.best_effort_max_wait = opts_.best_effort_max_wait;
  dispatcher_ = std::make_unique<RequestDispatcher>(dopts);
  decode_cache_ = std::make_shared<DecodeCache>();
  if (opts_.create_default_namespaces) {
    for (const char* ns : {"default", "kube-system"}) {
      api::NamespaceObj n;
      n.meta.name = ns;
      Result<api::NamespaceObj> r = Create(std::move(n));
      // A sibling front end over the same store already bootstrapped them.
      if (!r.ok() && !r.status().IsAlreadyExists()) {
        LOG(ERROR) << name() << ": failed to create namespace " << ns << ": " << r.status();
      }
    }
  }
  metrics_reg_ = MetricsRegistry::Global().Register(opts_.name, [this] {
    std::vector<MetricsRegistry::Sample> s;
    s.emplace_back("creates", static_cast<double>(stats_.creates.load()));
    s.emplace_back("gets", static_cast<double>(stats_.gets.load()));
    s.emplace_back("lists", static_cast<double>(stats_.lists.load()));
    s.emplace_back("updates", static_cast<double>(stats_.updates.load()));
    s.emplace_back("deletes", static_cast<double>(stats_.deletes.load()));
    s.emplace_back("watches", static_cast<double>(stats_.watches.load()));
    s.emplace_back("rate_limited", static_cast<double>(stats_.rate_limited.load()));
    s.emplace_back("conflicts", static_cast<double>(stats_.conflicts.load()));
    s.emplace_back("cache_served_gets",
                   static_cast<double>(stats_.cache_served_gets.load()));
    s.emplace_back("cache_served_lists",
                   static_cast<double>(stats_.cache_served_lists.load()));
    s.emplace_back("store_log_bytes",
                   static_cast<double>(stats_.store_log_bytes.load()));
    s.emplace_back("store_log_events",
                   static_cast<double>(stats_.store_log_events.load()));
    s.emplace_back("decode_misses", static_cast<double>(decode_cache_->misses()));
    s.emplace_back("decoded_bytes", static_cast<double>(decode_cache_->decoded_bytes()));
    for (MetricsRegistry::Sample& ds : dispatcher_->CollectSamples()) {
      s.push_back(std::move(ds));
    }
    return s;
  });
}

void APIServer::Restart() {
  LOG(INFO) << name() << ": simulated restart ("
            << (owns_store() ? "breaking all watches" : "breaking this front end's watches")
            << ")";
  if (owns_store()) {
    // Single-apiserver mode: apiserver + etcd restart together, every watch
    // on the store (including other components') breaks with Gone.
    store_->BreakWatches();
  } else {
    // Shared-store mode: only THIS front end crashed. Break the watches it
    // vended; sibling front ends' watchers must be untouched.
    std::vector<std::weak_ptr<kv::WatchChannel>> vended;
    {
      std::lock_guard<std::mutex> l(watches_mu_);
      vended.swap(vended_watches_);
    }
    for (const std::weak_ptr<kv::WatchChannel>& w : vended) {
      if (std::shared_ptr<kv::WatchChannel> ch = w.lock()) ch->CloseGone();
    }
  }
  // Drop the per-front-end watch caches (each holds its own store watch —
  // destroyed here, re-primed lazily on the next read) and reset the
  // dispatcher's inflight accounting; old-epoch tickets release as no-ops.
  std::map<std::string, std::shared_ptr<void>> dropped;
  {
    std::lock_guard<std::mutex> l(cache_mu_);
    dropped.swap(caches_);
  }
  dropped.clear();  // destroys caches outside cache_mu_
  dispatcher_->Reset();
}

void APIServer::TrackWatch(const std::shared_ptr<kv::WatchChannel>& ch) const {
  std::lock_guard<std::mutex> l(watches_mu_);
  // Opportunistic pruning keeps the list proportional to LIVE watches.
  vended_watches_.erase(
      std::remove_if(vended_watches_.begin(), vended_watches_.end(),
                     [](const std::weak_ptr<kv::WatchChannel>& w) { return w.expired(); }),
      vended_watches_.end());
  vended_watches_.push_back(ch);
}

std::string APIServer::MakeContinueToken(int64_t revision, const std::string& last_key) {
  return StrFormat("v1:%lld:", static_cast<long long>(revision)) + last_key;
}

Result<APIServer::ContinueToken> APIServer::ParseContinueToken(const std::string& token,
                                                               const std::string& prefix) {
  if (!StartsWith(token, "v1:")) {
    return InvalidArgumentError("malformed continue token: " + token);
  }
  size_t sep = token.find(':', 3);
  if (sep == std::string::npos) {
    return InvalidArgumentError("malformed continue token: " + token);
  }
  ContinueToken out;
  errno = 0;
  char* end = nullptr;
  out.revision = std::strtoll(token.c_str() + 3, &end, 10);
  if (errno != 0 || end != token.c_str() + sep || out.revision <= 0) {
    return InvalidArgumentError("malformed continue token revision: " + token);
  }
  out.last_key = token.substr(sep + 1);
  if (!StartsWith(out.last_key, prefix)) {
    return InvalidArgumentError("continue key is not valid: " + out.last_key);
  }
  return out;
}

std::function<std::optional<kv::Event>(const kv::Event&)> APIServer::MakeSelectorFilter(
    api::LabelSelector labels, api::FieldSelector fields) {
  return [labels = std::move(labels),
          fields = std::move(fields)](const kv::Event& e) -> std::optional<kv::Event> {
    if (e.type == kv::EventType::kBookmark) return e;
    const bool now =
        !e.value.empty() && api::BlobMatchesSelectors(e.value.str(), labels, fields);
    const bool before =
        !e.prev_value.empty() && api::BlobMatchesSelectors(e.prev_value.str(), labels, fields);
    if (e.type == kv::EventType::kPut) {
      if (now) return e;
      if (before) {
        // The object left the selection; to this watcher that is a delete.
        kv::Event out = e;
        out.type = kv::EventType::kDelete;
        out.value.reset();
        return out;
      }
      return std::nullopt;
    }
    return before ? std::optional<kv::Event>(e) : std::nullopt;
  };
}

Result<RequestDispatcher::Ticket> APIServer::Admit(const char* verb, const char* kind,
                                                   const std::string& ns,
                                                   const RequestContext& ctx) const {
  if (store_->IsShutdown()) return UnavailableError(name() + " is shut down");
  // Effective trace id: an explicitly-stamped context wins, then the ambient
  // scope (a reconcile body calling back into the apiserver), then a fresh id
  // — every admitted request is traceable end to end.
  uint64_t trace = ctx.trace_id;
  if (trace == 0) trace = trace::CurrentTraceId();
  if (trace == 0 && trace::Enabled()) trace = trace::NewTraceId();
  stats_.BumpIdentity(ctx.StatsKey(), trace);
  trace::Emit(trace::Component::kApiServer, trace::Verb::kRequest, trace, 0,
              std::string(verb) + " " + kind);
  if (LogEnabled(LogLevel::kDebug)) {
    LOG(DEBUG) << name() << ": " << verb << " " << kind
               << (ns.empty() ? "" : " ns=" + ns) << " user=" << ctx.identity.user
               << (ctx.user_agent.empty() ? "" : " ua=" + ctx.user_agent)
               << (ctx.trace_id == 0 ? "" : " trace=" + Hex64(ctx.trace_id))
               << " band=" << BandName(ClassifyBand(ctx));
  }
  if (!authorizer_.Allowed(ctx.identity, verb, kind, ns)) {
    return ForbiddenError(StrFormat("user %s cannot %s %s in namespace %s",
                                    ctx.identity.user.c_str(), verb, kind,
                                    ns.empty() ? "<cluster>" : ns.c_str()));
  }
  // Control-plane components (system:masters — loopback and the attributed
  // system:<component> identities) are exempt from the per-tenant token
  // bucket, like kube's --max-requests-inflight exemptions; the dispatcher
  // still classifies and accounts them.
  const bool exempt = std::find(ctx.identity.groups.begin(), ctx.identity.groups.end(),
                                "system:masters") != ctx.identity.groups.end();
  if (opts_.client_qps > 0 && !exempt) {
    TokenBucket* bucket = nullptr;
    {
      std::lock_guard<std::mutex> l(rl_mu_);
      auto& slot = rate_limiters_[ctx.identity.user];
      if (!slot) {
        slot = std::make_unique<TokenBucket>(opts_.client_qps, opts_.client_burst,
                                             opts_.clock);
      }
      bucket = slot.get();
    }
    if (!bucket->TryTake()) {
      stats_.rate_limited++;
      return TooManyRequestsError(StrFormat("client %s rate limited (qps=%.0f)",
                                            ctx.identity.user.c_str(), opts_.client_qps));
    }
  }
  Result<RequestDispatcher::Ticket> ticket = dispatcher_->Admit(ctx, trace);
  if (!ticket.ok()) {
    stats_.rate_limited++;
    return ticket.status();
  }
  if (opts_.request_latency > Duration::zero()) {
    // The slot is held while the handler "executes": on a shared apiserver
    // without fairness this is what lets one flooding client crowd out
    // everyone else (Fig. 1); with fairness on, the crowd-out stops at its
    // band's assured share.
    opts_.clock->SleepFor(opts_.request_latency);
  }
  return ticket;
}

Status APIServer::CheckNamespaceActive(const std::string& ns) const {
  Result<kv::Entry> e = store_->Get(Key<api::NamespaceObj>("", ns));
  if (!e.ok()) return NotFoundError("namespace " + ns + " not found");
  // Memoized by mod_revision: every namespaced create between two namespace
  // writes reuses one decode instead of re-parsing the namespace blob.
  Result<std::shared_ptr<const api::NamespaceObj>> n =
      decode_cache_->GetOrDecode<api::NamespaceObj>(e->mod_revision, e->value,
                                                    e->mod_revision);
  if (!n.ok()) return n.status();
  if ((*n)->meta.deleting() || (*n)->phase == "Terminating") {
    return ForbiddenError("namespace " + ns + " is terminating");
  }
  return OkStatus();
}

}  // namespace vc::apiserver
