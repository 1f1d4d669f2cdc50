// Property-based tests: model-checked invariants under randomized operation
// sequences and parameterized sweeps.
#include <gtest/gtest.h>

#include <map>

#include "client/informer.h"
#include "common/executor.h"
#include "common/rand.h"
#include "kv/kvstore.h"

namespace vc {
namespace {

// ---------------------------------------------------------------- kv model

// Random Put/Delete sequences against the store and a reference std::map:
// List() must always agree with the model, and revisions must be strictly
// monotone.
class KvModelSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvModelSweep, StoreMatchesReferenceModel) {
  Rng rng(GetParam());
  kv::KvStore store;
  std::map<std::string, std::string> model;
  int64_t last_rev = 0;
  for (int op = 0; op < 2000; ++op) {
    std::string key = "/k" + std::to_string(rng.Uniform(50));
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 6) {  // unconditional put
      std::string value = "v" + std::to_string(rng.Next() % 1000);
      Result<int64_t> rev = store.Put(key, value);
      ASSERT_TRUE(rev.ok());
      ASSERT_GT(*rev, last_rev);
      last_rev = *rev;
      model[key] = value;
    } else if (action < 8) {  // delete
      Result<int64_t> rev = store.Delete(key);
      if (model.count(key)) {
        ASSERT_TRUE(rev.ok());
        ASSERT_GT(*rev, last_rev);
        last_rev = *rev;
        model.erase(key);
      } else {
        ASSERT_TRUE(rev.status().IsNotFound());
      }
    } else if (action < 9) {  // create-if-absent
      Result<int64_t> rev = store.Put(key, "created", 0);
      if (model.count(key)) {
        ASSERT_TRUE(rev.status().IsAlreadyExists());
      } else {
        ASSERT_TRUE(rev.ok());
        last_rev = *rev;
        model[key] = "created";
      }
    } else {  // CAS update with current revision
      Result<kv::Entry> e = store.Get(key);
      if (e.ok()) {
        Result<int64_t> rev = store.Put(key, "cas", e->mod_revision);
        ASSERT_TRUE(rev.ok());
        last_rev = *rev;
        model[key] = "cas";
      }
    }
  }
  kv::ListResult all = store.List("/");
  ASSERT_EQ(all.entries.size(), model.size());
  for (const kv::Entry& e : all.entries) {
    auto it = model.find(e.key);
    ASSERT_NE(it, model.end()) << e.key;
    EXPECT_EQ(e.value, it->second);
  }
  EXPECT_EQ(store.EntryCount(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvModelSweep, ::testing::Values(1, 7, 42, 1337, 0xBEEF));

// ----------------------------------------------- snapshot + events == state
//
// The informer invariant the whole system rests on: a consistent List
// snapshot plus every watch event after its revision reconstructs the exact
// final state, regardless of how writes interleave with the watch.
class WatchReplaySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WatchReplaySweep, SnapshotPlusEventsEqualsFinalState) {
  Rng rng(GetParam());
  kv::KvStore store;
  // Phase 1: pre-populate.
  for (int i = 0; i < 200; ++i) {
    store.Put("/obj/" + std::to_string(rng.Uniform(60)), "v" + std::to_string(i));
  }
  kv::ListResult snapshot = store.List("/obj/");
  auto watch = *store.Watch("/obj/", snapshot.revision, 1 << 16);

  // Phase 2: concurrent-ish mutations after the snapshot.
  int mutations = 0;
  for (int i = 0; i < 500; ++i) {
    std::string key = "/obj/" + std::to_string(rng.Uniform(60));
    if (rng.Uniform(4) == 0) {
      if (store.Delete(key).ok()) mutations++;
    } else {
      store.Put(key, "w" + std::to_string(i));
      mutations++;
    }
  }

  // Reconstruct: snapshot + replayed events.
  std::map<std::string, std::string> reconstructed;
  for (const kv::Entry& e : snapshot.entries) reconstructed[e.key] = e.value;
  for (int i = 0; i < mutations; ++i) {
    Result<kv::Event> e = watch->Next(Seconds(5));
    ASSERT_TRUE(e.ok()) << "event " << i << ": " << e.status();
    if (e->type == kv::EventType::kPut) {
      reconstructed[e->key] = e->value;
    } else {
      reconstructed.erase(e->key);
    }
  }
  // No extra events pending.
  EXPECT_EQ(watch->Next(Millis(20)).status().code(), Code::kTimeout);

  kv::ListResult final_state = store.List("/obj/");
  ASSERT_EQ(final_state.entries.size(), reconstructed.size());
  for (const kv::Entry& e : final_state.entries) {
    EXPECT_EQ(reconstructed.at(e.key), e.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WatchReplaySweep, ::testing::Values(3, 99, 2024));

// ------------------------------------------------------- JSON fuzz roundtrip

Json RandomJson(Rng& rng, int depth) {
  switch (depth <= 0 ? rng.Uniform(4) : rng.Uniform(6)) {
    case 0: return Json();
    case 1: return Json(static_cast<int64_t>(rng.Next() % 100000) - 50000);
    case 2: return Json(rng.Uniform(2) == 0);
    case 3: {
      std::string s;
      for (uint64_t i = 0; i < rng.Uniform(12); ++i) {
        s += static_cast<char>('a' + rng.Uniform(26));
        if (rng.Uniform(8) == 0) s += "\"\\\n\t";
      }
      return Json(s);
    }
    case 4: {
      Json arr = Json::Array();
      for (uint64_t i = 0; i < rng.Uniform(5); ++i) {
        arr.Append(RandomJson(rng, depth - 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::Object();
      for (uint64_t i = 0; i < rng.Uniform(5); ++i) {
        obj["key" + std::to_string(rng.Uniform(10))] = RandomJson(rng, depth - 1);
      }
      return obj;
    }
  }
}

class JsonFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonFuzzSweep, DumpParseDumpIsStable) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Json doc = RandomJson(rng, 4);
    std::string once = doc.Dump();
    Result<Json> parsed = Json::Parse(once);
    ASSERT_TRUE(parsed.ok()) << once;
    EXPECT_EQ(parsed->Dump(), once);
    EXPECT_TRUE(*parsed == doc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzSweep, ::testing::Values(11, 222, 3333));

// ----------------------------------------------- informer converges to truth

class InformerConvergenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(InformerConvergenceSweep, CacheEqualsServerAfterChurn) {
  const int writers = GetParam();
  apiserver::APIServer server({});
  client::SharedInformer<api::Pod> informer{client::ListerWatcher<api::Pod>(&server)};
  informer.Start();
  ASSERT_TRUE(informer.WaitForSync(Seconds(5)));

  ParallelFor(writers, [&](int w) {
    Rng rng(static_cast<uint64_t>(w) + 77);
    for (int i = 0; i < 120; ++i) {
      std::string name = "p" + std::to_string(rng.Uniform(30));
      api::Pod pod;
      pod.meta.ns = "default";
      pod.meta.name = name;
      api::Container c;
      c.name = "app";
      c.image = "img";
      pod.spec.containers.push_back(c);
      switch (rng.Uniform(3)) {
        case 0: (void)server.Create(pod); break;
        case 1:
          (void)apiserver::RetryUpdate<api::Pod>(server, "default", name,
                                                 [&](api::Pod& live) {
                                                   live.meta.annotations["w"] =
                                                       std::to_string(w);
                                                   return true;
                                                 });
          break;
        default: (void)server.Delete<api::Pod>("default", name); break;
      }
    }
  });

  // Eventual consistency: the cache must converge exactly to the server.
  Result<apiserver::TypedList<api::Pod>> truth = server.List<api::Pod>({"default"});
  ASSERT_TRUE(truth.ok());
  bool converged = false;
  for (int tries = 0; tries < 2500 && !converged; ++tries) {
    if (informer.cache().Size() == truth->items.size()) {
      converged = true;
      for (const api::Pod& p : truth->items) {
        auto cached = informer.cache().Get("default", p.meta.name);
        if (!cached || cached->meta.resource_version != p.meta.resource_version) {
          converged = false;
          break;
        }
      }
    }
    if (!converged) RealClock::Get()->SleepFor(Millis(2));
  }
  EXPECT_TRUE(converged) << "cache=" << informer.cache().Size()
                         << " truth=" << truth->items.size();
  informer.Stop();
}

INSTANTIATE_TEST_SUITE_P(Writers, InformerConvergenceSweep, ::testing::Values(1, 4, 8));

}  // namespace
}  // namespace vc
