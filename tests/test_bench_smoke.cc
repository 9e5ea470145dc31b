/**
 * @file
 * Integration smoke tests of the figure-generation pipeline itself:
 * the pieces each bench binary composes (campaign lookups, searches,
 * schedules, breakdowns) must produce internally consistent figures.
 * Kept cheap: a private campaign cache with a tiny simulation budget
 * (configured before main in test_explore-style).
 */

#include <cstdlib>

#include "testdir.hh"

namespace
{
struct EnvSetup
{
    EnvSetup()
    {
        setenv("CISA_SIM_UOPS", "1200", 1);
        setenv("CISA_SIM_WARMUP", "300", 1);
        setenv("CISA_DSE_CACHE",
               cisa::testPath("smoke_cache.bin").c_str(), 1);
        setenv("CISA_SEARCH_RESTARTS", "1", 1);
    }
} env_setup;
} // namespace

#include <gtest/gtest.h>

#include "core/cisa.hh"

namespace cisa
{
namespace
{

bool
smallSpace(const FeatureSet &f)
{
    // Three ISAs keep the smoke campaign to three slabs.
    return f == FeatureSet::x86_64() || f == FeatureSet::thumbLike() ||
           f == FeatureSet::parse("x86-64D-64W-F");
}

TEST(BenchSmoke, SearchScheduleBreakdownPipeline)
{
    Budget bud;
    bud.areaMm2 = 60;
    SearchResult r = searchDesign(Family::CompositeFull,
                                  Objective::MpThroughput, bud, 3,
                                  smallSpace);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.design.totalAreaMm2(), 60.0 + 1e-9);

    // Figure-5-style score vs a homogeneous baseline.
    SearchResult homo = searchDesign(Family::Homogeneous,
                                     Objective::MpThroughput, bud,
                                     3);
    double comp = designScore(r.design, Objective::MpThroughput, 8);
    double base = designScore(homo.design, Objective::MpThroughput,
                              8);
    EXPECT_GT(comp, base * 0.99);

    // Figure-12-style usage accounting.
    AffinityUsage usage;
    for (int b = 0; b < int(specSuite().size()); b++)
        runSingleThread(r.design, b, Objective::StPerf, &usage);
    double total = 0;
    for (const auto &[isa, by_bench] : usage) {
        for (double t : by_bench)
            total += t;
    }
    EXPECT_GT(total, 0.0);

    // Figure-10/11-style breakdowns of the found design.
    for (const auto &core : r.design.cores) {
        CoreBreakdown area = coreArea(core.coreConfig());
        EXPECT_GT(area.coreOnly(), 0.0);
        EXPECT_GT(area.total(), area.coreOnly());
    }
}

TEST(BenchSmoke, ConstraintMonotonicity)
{
    // Loosening an area budget can only help.
    Budget tight;
    tight.areaMm2 = 48;
    Budget loose;
    loose.areaMm2 = 90;
    SearchResult a = searchDesign(Family::SingleIsaHetero,
                                  Objective::MpThroughput, tight, 5);
    SearchResult b = searchDesign(Family::SingleIsaHetero,
                                  Objective::MpThroughput, loose, 5);
    ASSERT_TRUE(a.feasible && b.feasible);
    double sa = designScore(a.design, Objective::MpThroughput, 8);
    double sb = designScore(b.design, Objective::MpThroughput, 8);
    EXPECT_GE(sb, sa * 0.98);
}

TEST(BenchSmoke, DowngradePipeline)
{
    // Figure-14-style call path with the smoke budget.
    MicroArchConfig ua = MicroArchConfig::byId(150);
    DowngradeCost c =
        measureDowngrade(0, FeatureSet::parse("x86-64D-64W-P"),
                         FeatureSet::parse("x86-16D-64W-P"), ua);
    EXPECT_GT(c.depthRewrites, 0);
    EXPECT_GT(c.slowdown, -0.5);
    EXPECT_LT(c.slowdown, 5.0);
}

} // namespace
} // namespace cisa
