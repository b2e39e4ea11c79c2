#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "dppr/common/env.h"
#include "dppr/common/rng.h"
#include "dppr/common/serialize.h"
#include "dppr/common/status.h"
#include "dppr/common/thread_pool.h"
#include "dppr/common/timer.h"

namespace dppr {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing file");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status::IoError("disk on fire"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIoError);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIsRoughlyBalanced) {
  Rng rng(11);
  std::vector<int> buckets(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.Uniform(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);
  }
}

TEST(Serialize, PrimitivesRoundTrip) {
  ByteWriter writer;
  writer.PutU8(7);
  writer.PutU32(0xDEADBEEF);
  writer.PutU64(0x0123456789ABCDEFULL);
  writer.PutDouble(3.14159);
  writer.PutString("hello world");
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.GetU8(), 7);
  EXPECT_EQ(reader.GetU32(), 0xDEADBEEF);
  EXPECT_EQ(reader.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(reader.GetDouble(), 3.14159);
  EXPECT_EQ(reader.GetString(), "hello world");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(Serialize, VarintRoundTripsBoundaries) {
  ByteWriter writer;
  std::vector<uint64_t> values = {0,    1,    127,        128,
                                  255,  300,  0xFFFF,     0x10000,
                                  1ull << 32, 1ull << 62, ~0ull};
  for (uint64_t v : values) writer.PutVarU64(v);
  ByteReader reader(writer.bytes());
  for (uint64_t v : values) EXPECT_EQ(reader.GetVarU64(), v);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(Serialize, VarintIsCompactForSmallValues) {
  ByteWriter writer;
  writer.PutVarU64(5);
  EXPECT_EQ(writer.size(), 1u);
  writer.PutVarU64(300);
  EXPECT_EQ(writer.size(), 3u);
}

TEST(Serialize, HostileStringLengthDiesInsteadOfWrapping) {
  // A length near UINT64_MAX used to wrap the `pos_ + n` bounds check and
  // pass it, turning a corrupt payload into an out-of-bounds read.
  ByteWriter writer;
  writer.PutVarU64(~0ull);
  writer.PutU8('x');
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        reader.GetString();
      },
      "DPPR_CHECK failed");
}

TEST(Serialize, BlobRoundTripsAsView) {
  ByteWriter writer;
  std::vector<uint8_t> payload{1, 2, 3, 4, 5};
  writer.PutBlob(payload.data(), payload.size());
  writer.PutBlob(nullptr, 0);  // empty blob is legal
  writer.PutU8(0xEE);

  ByteReader reader(writer.bytes());
  std::span<const uint8_t> blob = reader.GetBlob();
  ASSERT_EQ(blob.size(), payload.size());
  EXPECT_TRUE(std::equal(blob.begin(), blob.end(), payload.begin()));
  // The view aliases the writer's buffer — no copy.
  EXPECT_GE(blob.data(), writer.bytes().data());
  EXPECT_TRUE(reader.GetBlob().empty());
  EXPECT_EQ(reader.GetU8(), 0xEE);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(Serialize, HostileBlobLengthDiesInsteadOfWrapping) {
  // Same wrap-hazard as GetString: a length near UINT64_MAX must not pass
  // the bounds check via overflow and read out of bounds.
  ByteWriter writer;
  writer.PutVarU64(~0ull);
  writer.PutU8('x');
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        reader.GetBlob();
      },
      "DPPR_CHECK failed");
}

TEST(Serialize, TruncatedBlobDies) {
  ByteWriter writer;
  writer.PutVarU64(16);  // promises 16 bytes, delivers 2
  writer.PutU8(1);
  writer.PutU8(2);
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        reader.GetBlob();
      },
      "DPPR_CHECK failed");
}

TEST(Serialize, TruncatedPrimitiveDies) {
  ByteWriter writer;
  writer.PutU32(0xDEADBEEF);
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes().data(), 2);
        reader.GetU32();
      },
      "DPPR_CHECK failed");
}

TEST(Serialize, ReadPastEndDies) {
  ByteReader reader(nullptr, 0);
  EXPECT_DEATH(reader.GetU8(), "DPPR_CHECK failed");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL(); });
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  double first = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedSeconds(), first);
}

TEST(ThreadCpuTimer, DoesNotChargeSleepTime) {
  ThreadCpuTimer cpu;
  WallTimer wall;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Wall time sees the sleep; the thread-CPU clock must not.
  EXPECT_GE(wall.ElapsedSeconds(), 0.045);
  EXPECT_LT(cpu.ElapsedSeconds(), 0.040);
}

TEST(Env, FallbackWhenUnset) {
  EXPECT_DOUBLE_EQ(GetEnvDouble("DPPR_DEFINITELY_UNSET_VAR", 2.5), 2.5);
  EXPECT_EQ(GetEnvInt("DPPR_DEFINITELY_UNSET_VAR", 7), 7);
}

TEST(Env, ParsesSetValues) {
  setenv("DPPR_TEST_ENV_VAR", "3.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("DPPR_TEST_ENV_VAR", 1.0), 3.5);
  setenv("DPPR_TEST_ENV_VAR", "-18137", 1);
  EXPECT_EQ(GetEnvInt("DPPR_TEST_ENV_VAR", 7), -18137);
  unsetenv("DPPR_TEST_ENV_VAR");
}

TEST(EnvDeathTest, MalformedValuesDie) {
  // Threadsafe style: earlier tests started thread pools, and forking
  // fast-style from a multithreaded process can wedge the child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A set value that does not parse as a whole dies naming the variable,
  // instead of silently reading as the fallback or as its numeric prefix.
  for (const char* bad : {"garbage", "", "1.5x", "3.5 "}) {
    setenv("DPPR_TEST_ENV_VAR", bad, 1);
    EXPECT_DEATH(GetEnvDouble("DPPR_TEST_ENV_VAR", 1.0), "DPPR_TEST_ENV_VAR")
        << "\"" << bad << "\"";
  }
  for (const char* bad : {"abc", "", "18137x", "1.5", "99999999999999999999"}) {
    setenv("DPPR_TEST_ENV_VAR", bad, 1);
    EXPECT_DEATH(GetEnvInt("DPPR_TEST_ENV_VAR", 7), "DPPR_TEST_ENV_VAR")
        << "\"" << bad << "\"";
  }
  unsetenv("DPPR_TEST_ENV_VAR");
}

}  // namespace
}  // namespace dppr
