/**
 * @file
 * Unit tests for the common substrate: RNG determinism, statistics
 * helpers, tables, and binary serialization round-trips.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "testdir.hh"

namespace cisa
{
namespace
{

TEST(Rng, Deterministic)
{
    Pcg32 a(123, 7);
    Pcg32 b(123, 7);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Pcg32 a(123, 7);
    Pcg32 b(123, 8);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange)
{
    Pcg32 r(9, 1);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Pcg32 r(5, 2);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkIndependence)
{
    Pcg32 a(77, 1);
    Pcg32 c1 = a.fork(1);
    Pcg32 c2 = a.fork(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += c1.next() == c2.next();
    EXPECT_LT(same, 4);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Stats, Log2HistogramBuckets)
{
    // Bucket i holds [2^(i-1), 2^i); bucket 0 holds 0; the last
    // bucket also takes every sample past its lower edge.
    const size_t last = Log2Histogram::kBuckets - 1;
    EXPECT_EQ(Log2Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketOf(1), 1u);
    for (size_t k = 1; k < last; k++) {
        EXPECT_EQ(Log2Histogram::bucketOf((uint64_t(1) << k) - 1), k);
        EXPECT_EQ(Log2Histogram::bucketOf(uint64_t(1) << k), k + 1);
    }
    EXPECT_EQ(Log2Histogram::bucketOf(uint64_t(1) << last), last);
    EXPECT_EQ(Log2Histogram::bucketOf(~uint64_t(0)), last);

    // Percentiles report the upper edge of the holding bucket.
    Log2Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0u); // empty
    h.add(0);
    EXPECT_EQ(h.percentile(1.0), 1u);
    h.add(~uint64_t(0));
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.percentile(1.0), uint64_t(1) << last);
}

TEST(Stats, Log2HistogramRankRule)
{
    // Samples 1..100 land in buckets 1..7 with counts 1,2,4,8,16,32,
    // 37 (cumulative 1,3,7,15,31,63,100). Rank floor((n-1)p)+1:
    // p=0 -> 1 (bucket 1), p=0.5 -> 50 (bucket 6), p=0.99 -> 99 and
    // p=1 -> 100 (bucket 7). Out-of-range p clamps.
    Log2Histogram h;
    for (uint64_t x = 1; x <= 100; x++)
        h.add(x);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.percentile(0.0), 2u);
    EXPECT_EQ(h.percentile(0.5), 64u);
    EXPECT_EQ(h.percentile(0.99), 128u);
    EXPECT_EQ(h.percentile(1.0), 128u);
    EXPECT_EQ(h.percentile(-1.0), 2u);
    EXPECT_EQ(h.percentile(2.0), 128u);

    // Rank 31 is the last sample of bucket 5 (edge 32), rank 32 the
    // first of bucket 6: (n-1)p = 30.5 and 31.5 straddle the edge.
    EXPECT_EQ(h.percentile(30.5 / 99.0), 32u);
    EXPECT_EQ(h.percentile(31.5 / 99.0), 64u);

    // Merging adds buckets: two halves give the whole.
    Log2Histogram lo, hi;
    for (uint64_t x = 1; x <= 100; x++)
        (x <= 50 ? lo : hi).add(x);
    lo.merge(hi);
    EXPECT_TRUE(lo == h);
}

TEST(Table, RendersAligned)
{
    Table t("demo");
    t.header({"a", "bb"});
    t.row({"1", "2"});
    t.row({"333", "4"});
    std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("| 333 |"), std::string::npos);
}

TEST(Table, NumbersFormat)
{
    EXPECT_EQ(Table::num(1.5, 2), "1.50");
    EXPECT_EQ(Table::num(int64_t(42)), "42");
    EXPECT_EQ(Table::pct(0.123), "+12.3%");
}

TEST(Serialize, RoundTrip)
{
    std::string path = testPath("ser_test.bin");
    {
        BinWriter w(path);
        ASSERT_TRUE(w.ok());
        w.u32(7);
        w.u64(1ULL << 40);
        w.f64(3.25);
        w.str("hello");
        w.vecF64({1.0, 2.0, 3.0});
        ASSERT_TRUE(w.ok());
    }
    {
        BinReader r(path);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.u32(), 7u);
        EXPECT_EQ(r.u64(), 1ULL << 40);
        EXPECT_EQ(r.f64(), 3.25);
        EXPECT_EQ(r.str(), "hello");
        auto v = r.vecF64();
        ASSERT_EQ(v.size(), 3u);
        EXPECT_EQ(v[1], 2.0);
        EXPECT_TRUE(r.ok());
    }
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileNotOk)
{
    BinReader r(testPath("definitely_missing.bin"));
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, CorruptStringLengthRejectedWithoutAllocation)
{
    // A length header larger than the file must fail cleanly before
    // the allocator is asked for it — a flipped bit in an 8-byte
    // length is otherwise a multi-GiB allocation.
    std::string path = testPath("ser_corrupt_str.bin");
    {
        BinWriter w(path);
        w.u64(1ULL << 40); // claims a 1 TiB string in a tiny file
        w.u32(0xDEAD);
    }
    BinReader r(path);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
    std::remove(path.c_str());
}

TEST(Serialize, CorruptVectorLengthRejectedWithoutAllocation)
{
    std::string path = testPath("ser_corrupt_vec.bin");
    {
        BinWriter w(path);
        w.u64(1ULL << 28); // 2 GiB of doubles in a 16-byte file
        w.f64(1.0);
    }
    BinReader r(path);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.vecF64().empty());
    EXPECT_FALSE(r.ok());
    std::remove(path.c_str());
}

TEST(Serialize, TruncatedPayloadAfterValidLength)
{
    // Length says 5 elements but only 2 are on disk: the read fails
    // (error flag) instead of returning a silently short vector.
    std::string path = testPath("ser_trunc_vec.bin");
    {
        BinWriter w(path);
        w.u64(5);
        w.f64(1.0);
        w.f64(2.0);
    }
    BinReader r(path);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.vecF64().empty());
    EXPECT_FALSE(r.ok());
    std::remove(path.c_str());
}

TEST(Env, Defaults)
{
    EXPECT_EQ(envInt("CISA_NOT_SET_XYZ", 42), 42);
    EXPECT_EQ(envStr("CISA_NOT_SET_XYZ", "dflt"), "dflt");
    EXPECT_GT(simUopBudget(), 0u);
}

TEST(Env, ParsesValidIntegers)
{
    setenv("CISA_ENV_TEST", "123", 1);
    EXPECT_EQ(envInt("CISA_ENV_TEST", 7), 123);
    setenv("CISA_ENV_TEST", "-5", 1);
    EXPECT_EQ(envInt("CISA_ENV_TEST", 7), -5);
    setenv("CISA_ENV_TEST", "  88  ", 1); // surrounding whitespace ok
    EXPECT_EQ(envInt("CISA_ENV_TEST", 7), 88);
    unsetenv("CISA_ENV_TEST");
}

TEST(Env, MalformedFallsBackToDefault)
{
    for (const char *bad :
         {"abc", "12abc", "1.5", "0x10", "--3", "9e4", " "}) {
        setenv("CISA_ENV_TEST", bad, 1);
        EXPECT_EQ(envInt("CISA_ENV_TEST", 7), 7) << bad;
        EXPECT_EQ(envIntRange("CISA_ENV_TEST", 7, 0, 100), 7) << bad;
    }
    // Magnitude beyond int64 is malformed, not saturated.
    setenv("CISA_ENV_TEST", "99999999999999999999999", 1);
    EXPECT_EQ(envInt("CISA_ENV_TEST", 7), 7);
    unsetenv("CISA_ENV_TEST");
}

TEST(Env, OutOfRangeFallsBackToDefault)
{
    // The contract is default, NOT clamp: an out-of-range value is
    // a config error and silently clamping would hide it.
    setenv("CISA_ENV_TEST", "1000", 1);
    EXPECT_EQ(envIntRange("CISA_ENV_TEST", 7, 0, 100), 7);
    setenv("CISA_ENV_TEST", "-1", 1);
    EXPECT_EQ(envIntRange("CISA_ENV_TEST", 7, 0, 100), 7);
    setenv("CISA_ENV_TEST", "100", 1); // inclusive bounds
    EXPECT_EQ(envIntRange("CISA_ENV_TEST", 7, 0, 100), 100);
    unsetenv("CISA_ENV_TEST");
}

TEST(Env, KnobsSurviveGarbageValues)
{
    // Every numeric CISA_* knob must yield its documented default
    // when set to garbage — a typo'd environment never crashes or
    // silently zeroes a simulation parameter.
    for (const char *name :
         {"CISA_SIM_UOPS", "CISA_SIM_WARMUP", "CISA_SEARCH_RESTARTS",
          "CISA_SERVE_QUEUE", "CISA_SERVE_WORKERS",
          "CISA_SERVE_CACHE"}) {
        setenv(name, "not-a-number", 1);
    }
    EXPECT_EQ(simUopBudget(), 6000u);
    EXPECT_EQ(simWarmupUops(), 1500u);
    EXPECT_EQ(searchRestarts(), 2);
    EXPECT_EQ(serveQueueBound(), 64);
    EXPECT_EQ(serveWorkers(), 2);
    EXPECT_EQ(serveCacheEntries(), 256);
    for (const char *name :
         {"CISA_SIM_UOPS", "CISA_SIM_WARMUP", "CISA_SEARCH_RESTARTS",
          "CISA_SERVE_QUEUE", "CISA_SERVE_WORKERS",
          "CISA_SERVE_CACHE"}) {
        unsetenv(name);
    }
}

TEST(Env, BatchWidthKnob)
{
    // Default: 64-cell chunks.
    unsetenv("CISA_BATCH_WIDTH");
    EXPECT_EQ(batchWidth(), 64);

    setenv("CISA_BATCH_WIDTH", "4", 1);
    EXPECT_EQ(batchWidth(), 4);
    // Below the floor of 2 a "batch" is a per-cell walk; default,
    // not clamp, per the strict-parse contract.
    setenv("CISA_BATCH_WIDTH", "1", 1);
    EXPECT_EQ(batchWidth(), 64);
    setenv("CISA_BATCH_WIDTH", "nope", 1);
    EXPECT_EQ(batchWidth(), 64);

    unsetenv("CISA_BATCH_WIDTH");
}

TEST(ByteCodec, RoundTrip)
{
    ByteWriter w;
    w.u8(7);
    w.u16(300);
    w.u32(1u << 30);
    w.u64(1ULL << 40);
    w.f32(1.5f);
    w.f64(-2.25);
    w.str("hello");
    std::vector<uint8_t> buf = w.take();

    ByteReader r(buf);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u16(), 300);
    EXPECT_EQ(r.u32(), 1u << 30);
    EXPECT_EQ(r.u64(), 1ULL << 40);
    EXPECT_EQ(r.f32(), 1.5f);
    EXPECT_EQ(r.f64(), -2.25);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteCodec, OverrunSetsErrorNotCrash)
{
    ByteWriter w;
    w.u16(99);
    std::vector<uint8_t> buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.u64(), 0u); // short read: zero value, error flag
    EXPECT_FALSE(r.ok());
}

TEST(ByteCodec, OversizedStringRejected)
{
    ByteWriter w;
    w.u32(1u << 20); // claims a 1 MiB string in a 4-byte buffer
    std::vector<uint8_t> buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

TEST(Logging, Strfmt)
{
    EXPECT_EQ(strfmt("%d-%s", 5, "x"), "5-x");
}

} // namespace
} // namespace cisa
