#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "common/executor.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/rand.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/token_bucket.h"

namespace vc {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("pod missing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: pod missing");
}

TEST(StatusTest, PredicatesMatchOnlyTheirCode) {
  EXPECT_TRUE(ConflictError("x").IsConflict());
  EXPECT_FALSE(ConflictError("x").IsNotFound());
  EXPECT_TRUE(GoneError("x").IsGone());
  EXPECT_TRUE(AlreadyExistsError("x").IsAlreadyExists());
  EXPECT_TRUE(TooManyRequestsError("x").IsTooManyRequests());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgumentError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// ----------------------------------------------------------------- Hash

TEST(HashTest, Fnv1aIsStable) {
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
}

TEST(HashTest, ShortHashLengthAndDeterminism) {
  EXPECT_EQ(ShortHash("tenant-a-uid").size(), 6u);
  EXPECT_EQ(ShortHash("tenant-a-uid"), ShortHash("tenant-a-uid"));
  EXPECT_EQ(ShortHash("x", 99).size(), 16u);
  EXPECT_EQ(ShortHash("x", -5).size(), 1u);
}

TEST(HashTest, NewUidUniqueAndShaped) {
  std::string a = NewUid();
  std::string b = NewUid();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 36u);
  EXPECT_EQ(a[8], '-');
  EXPECT_EQ(a[13], '-');
}

TEST(HashTest, NewUidUniqueAcrossThreads) {
  constexpr int kPerThread = 200;
  std::vector<std::vector<std::string>> per_thread(4);
  ParallelFor(4, [&](int i) {
    for (int j = 0; j < kPerThread; ++j) per_thread[i].push_back(NewUid());
  });
  std::set<std::string> all;
  for (const auto& v : per_thread) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 4u * kPerThread);
}

// ----------------------------------------------------------------- Clock

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock;
  TimePoint t0 = clock.Now();
  clock.Advance(Seconds(5));
  EXPECT_EQ(clock.Now() - t0, Seconds(5));
}

TEST(ClockTest, ManualClockWakesSleepers) {
  ManualClock clock;
  std::atomic<bool> woke{false};
  std::thread t([&] {
    clock.SleepFor(Millis(100));
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  clock.Advance(Millis(100));
  t.join();
  EXPECT_TRUE(woke.load());
}

TEST(ClockTest, RealClockMonotone) {
  RealClock* c = RealClock::Get();
  TimePoint a = c->Now();
  TimePoint b = c->Now();
  EXPECT_LE(a, b);
}

// ----------------------------------------------------------------- Histogram

TEST(HistogramTest, PercentilesAndBuckets) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.RecordSeconds(i);  // 1..100
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.MinSeconds(), 1);
  EXPECT_DOUBLE_EQ(h.MaxSeconds(), 100);
  EXPECT_NEAR(h.MeanSeconds(), 50.5, 1e-9);
  EXPECT_NEAR(h.PercentileSeconds(50), 50.5, 1e-6);
  EXPECT_NEAR(h.PercentileSeconds(99), 99.01, 0.1);
  std::vector<uint64_t> b = h.Buckets(10, 5);  // [0,10) .. overflow
  EXPECT_EQ(b[0], 9u);   // 1..9
  EXPECT_EQ(b[1], 10u);  // 10..19
  EXPECT_EQ(b[4], 100u - 9 - 10 - 10 - 10);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  a.RecordSeconds(1);
  b.RecordSeconds(3);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_DOUBLE_EQ(a.MeanSeconds(), 2);
}

TEST(HistogramTest, EmptyHistogramIsSafe) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(99), 0);
  EXPECT_FALSE(h.Render("empty", 1, 3).empty());
}

// ----------------------------------------------------------------- TokenBucket

TEST(TokenBucketTest, BurstThenLimited) {
  ManualClock clock;
  TokenBucket tb(10, 5, &clock);  // 10 qps, burst 5
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(tb.TryTake());
  EXPECT_FALSE(tb.TryTake());
  clock.Advance(Millis(100));  // refills 1 token
  EXPECT_TRUE(tb.TryTake());
  EXPECT_FALSE(tb.TryTake());
}

TEST(TokenBucketTest, UnlimitedWhenRateZero) {
  ManualClock clock;
  TokenBucket tb(0, 1, &clock);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(tb.TryTake());
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  ManualClock clock;
  TokenBucket tb(100, 3, &clock);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(tb.TryTake());
  clock.Advance(Seconds(60));
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(tb.TryTake());
  EXPECT_FALSE(tb.TryTake());
}

// ----------------------------------------------------------------- Strings

TEST(StringsTest, SplitAndJoin) {
  std::vector<std::string> parts = Split("a/b/c", '/');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(Join(parts, "/"), "a/b/c");
  EXPECT_EQ(Split("", '/').size(), 1u);
  EXPECT_EQ(Split("a//b", '/').size(), 3u);
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("/registry/Pod/", "/registry/"));
  EXPECT_FALSE(StartsWith("/reg", "/registry/"));
  EXPECT_TRUE(EndsWith("pod.log", ".log"));
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
}

TEST(StringsTest, HumanUnits) {
  EXPECT_EQ(HumanDuration(1.5), "1.50s");
  EXPECT_EQ(HumanDuration(0.31), "310ms");
  EXPECT_EQ(HumanBytes(40 * 1024), "40.0KB");
}

TEST(StringsTest, Dns1123Validation) {
  EXPECT_TRUE(IsDns1123Label("tenant-a"));
  EXPECT_TRUE(IsDns1123Label("a"));
  EXPECT_FALSE(IsDns1123Label(""));
  EXPECT_FALSE(IsDns1123Label("-leading"));
  EXPECT_FALSE(IsDns1123Label("trailing-"));
  EXPECT_FALSE(IsDns1123Label("UPPER"));
  EXPECT_FALSE(IsDns1123Label(std::string(64, 'a')));
}

// ----------------------------------------------------------------- Rng

TEST(RngTest, DeterministicBySeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, RangesRespectBounds) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ----------------------------------------------------------------- Json

TEST(JsonTest, RoundTripScalars) {
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(int64_t{1234567890123}).Dump(), "1234567890123");
}

TEST(JsonTest, ObjectAndArray) {
  Json o = Json::Object();
  o["b"] = 2;
  o["a"] = 1;
  Json arr = Json::Array();
  arr.Append("x");
  arr.Append(3);
  o["list"] = std::move(arr);
  // Keys sorted => deterministic.
  EXPECT_EQ(o.Dump(), "{\"a\":1,\"b\":2,\"list\":[\"x\",3]}");
}

TEST(JsonTest, ParseRoundTrip) {
  std::string text = "{\"a\":1,\"b\":[true,null,\"s\"],\"c\":{\"d\":2.5}}";
  Result<Json> j = Json::Parse(text);
  ASSERT_TRUE(j.ok()) << j.status();
  EXPECT_EQ(j->Get("a").as_int(), 1);
  EXPECT_TRUE(j->Get("b").array()[0].as_bool());
  EXPECT_DOUBLE_EQ(j->Get("c").Get("d").as_double(), 2.5);
  EXPECT_EQ(Json::Parse(j->Dump())->Dump(), j->Dump());
}

TEST(JsonTest, ParseEscapes) {
  Result<Json> j = Json::Parse("\"a\\n\\\"b\\u0041\"");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->as_string(), "a\n\"bA");
  Json v(std::string("line1\nline2\ttab"));
  EXPECT_EQ(Json::Parse(v.Dump())->as_string(), "line1\nline2\ttab");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("").ok());
}

TEST(JsonTest, GetOnMissingReturnsNull) {
  Json o = Json::Object();
  EXPECT_TRUE(o.Get("missing").is_null());
  EXPECT_EQ(o.Get("missing").as_int(7), 7);
}

TEST(JsonTest, NegativeNumbers) {
  Result<Json> j = Json::Parse("{\"a\":-5,\"b\":-2.5}");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->Get("a").as_int(), -5);
  EXPECT_DOUBLE_EQ(j->Get("b").as_double(), -2.5);
}

TEST(JsonTest, ApproxBytesGrowsWithContent) {
  Json small = Json::Object();
  small["a"] = 1;
  Json big = Json::Object();
  for (int i = 0; i < 100; ++i) big[StrFormat("key-%d", i)] = std::string(100, 'x');
  EXPECT_GT(big.ApproxBytes(), small.ApproxBytes() + 10000);
}

}  // namespace
}  // namespace vc
