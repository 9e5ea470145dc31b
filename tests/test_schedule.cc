/**
 * @file
 * Tests of the 4-core phase-boundary scheduler's exhaustive
 * assignment step and its objective semantics. The solver is
 * cross-checked against an independent brute-force enumerator over
 * all injective app-to-core maps — including the deterministic
 * tie-break — on random matrices and on value matrices built from a
 * real (budget-reduced) campaign slab under the MpEdp semantics.
 */

#include <cstdio>
#include <cstdlib>

#include "testdir.hh"

// Must run before any Campaign::get() in this process.
namespace
{
struct EnvSetup
{
    EnvSetup()
    {
        setenv("CISA_SIM_UOPS", "1500", 1);
        setenv("CISA_SIM_WARMUP", "400", 1);
        setenv("CISA_DSE_CACHE",
               cisa::testPath("sched_test_cache.bin").c_str(), 1);
    }
} env_setup;
} // namespace

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "common/rng.hh"
#include "explore/schedule.hh"
#include "workloads/profiles.hh"

namespace cisa
{
namespace
{

/**
 * Independent reference solver: enumerate ordered injective
 * k-tuples of cores in lexicographic order, keep the first strict
 * maximum. next_permutation order groups permutations by prefix, so
 * this must agree with bestAssignment() bit for bit, ties included.
 */
std::array<int, 4>
bruteForce(const double val[4][4], const std::vector<int> &active)
{
    size_t k = active.size();
    std::array<int, 4> tuple{};
    std::array<int, 4> best{-1, -1, -1, -1};
    double best_score = -1e300;
    std::function<void(size_t, uint32_t, double)> rec =
        [&](size_t depth, uint32_t used, double score) {
            if (depth == k) {
                if (score > best_score) {
                    best_score = score;
                    best = {-1, -1, -1, -1};
                    for (size_t i = 0; i < k; i++)
                        best[size_t(active[i])] = tuple[size_t(i)];
                }
                return;
            }
            for (int c = 0; c < 4; c++) {
                if (used & (1u << c))
                    continue;
                tuple[depth] = c;
                rec(depth + 1, used | (1u << c),
                    score + val[depth][c]);
            }
        };
    rec(0, 0, 0.0);
    return best;
}

TEST(BestAssignment, MatchesBruteForceOnRandomMatrices)
{
    Pcg32 rng(42, 7);
    for (int iter = 0; iter < 300; iter++) {
        double val[4][4];
        // Every third matrix draws from {0, 1, 2, 3} so ties are
        // common and the tie-break path is really exercised.
        bool coarse = iter % 3 == 0;
        for (int a = 0; a < 4; a++) {
            for (int c = 0; c < 4; c++) {
                val[a][c] =
                    coarse ? double(rng.below(4))
                           : double(rng.below(1u << 20)) * 0x1p-20;
            }
        }
        // Active sets of every size, cycling through subsets.
        std::vector<int> active;
        uint32_t mask = 1 + uint32_t(iter) % 15;
        for (int a = 0; a < 4; a++) {
            if (mask & (1u << a))
                active.push_back(a);
        }
        std::array<int, 4> got = bestAssignment(val, active);
        std::array<int, 4> want = bruteForce(val, active);
        EXPECT_EQ(got, want) << "iter " << iter;
    }
}

TEST(BestAssignment, AllTiesResolveToIdentityPrefix)
{
    double val[4][4];
    for (int a = 0; a < 4; a++)
        for (int c = 0; c < 4; c++)
            val[a][c] = 1.0;
    std::array<int, 4> got = bestAssignment(val, {1, 3});
    // First permutation (0,1,2,3): row 0 -> core 0, row 1 -> core 1.
    EXPECT_EQ(got, (std::array<int, 4>{-1, 0, -1, 1}));
}

TEST(BestAssignment, PicksObviousDiagonal)
{
    double val[4][4] = {};
    val[0][2] = 10;
    val[1][0] = 10;
    val[2][3] = 10;
    val[3][1] = 10;
    std::array<int, 4> got = bestAssignment(val, {0, 1, 2, 3});
    EXPECT_EQ(got, (std::array<int, 4>{2, 0, 3, 1}));
}

/** Mid-range OoO microarchitecture id used by the fixed design. */
int
midUarch(int salt)
{
    return (100 + salt * 17) % DesignPoint::kUarchCount;
}

/** Four x86-64 cores on different microarchitectures: one slab. */
MulticoreDesign
fixedDesign()
{
    MulticoreDesign d;
    for (int c = 0; c < 4; c++) {
        d.cores[size_t(c)] = DesignPoint::composite(
            FeatureSet::x86_64().id(), midUarch(c));
    }
    return d;
}

TEST(BestAssignment, MatchesBruteForceOnSlabValuesMpEdp)
{
    MulticoreDesign d = fixedDesign();
    Campaign &camp = Campaign::get();
    // val built exactly the way runMultiprog builds it for MpEdp:
    // contended numbers, scored as ref / (t * e), at each app's
    // first phase.
    std::vector<int> active = {0, 1, 2, 3};
    double val[4][4];
    for (int k = 0; k < 4; k++) {
        int gp = phaseStartIndex(k);
        for (int c = 0; c < 4; c++) {
            const PhasePerf &pp = camp.at(d.cores[size_t(c)], gp);
            val[k][c] = 1.0 / (double(pp.timePerRunMp) *
                               double(pp.energyPerRunMp));
        }
    }
    EXPECT_EQ(bestAssignment(val, active), bruteForce(val, active));
}

TEST(Schedule, MpEdpOutcomeIsConsistent)
{
    MulticoreDesign d = fixedDesign();
    std::array<int, 4> apps = {0, 1, 2, 3};
    MpOutcome edp = runMultiprog(d, apps, Objective::MpEdp);
    EXPECT_GT(edp.makespan, 0.0);
    EXPECT_GT(edp.energy, 0.0);
    EXPECT_GT(edp.throughput, 0.0);
    EXPECT_DOUBLE_EQ(edp.edp, edp.energy * edp.makespan);

    // Same workload, same design, throughput objective: a different
    // generalized assignment, but the same amount of program work.
    MpOutcome thr = runMultiprog(d, apps, Objective::MpThroughput);
    EXPECT_GT(thr.throughput, 0.0);
    EXPECT_DOUBLE_EQ(thr.edp, thr.energy * thr.makespan);
}

TEST(Schedule, StEdpNeverBeatsStPerfOnTime)
{
    MulticoreDesign d = fixedDesign();
    for (int b = 0; b < int(specSuite().size()); b++) {
        StOutcome perf = runSingleThread(d, b, Objective::StPerf);
        StOutcome edp = runSingleThread(d, b, Objective::StEdp);
        EXPECT_GT(perf.time, 0.0);
        EXPECT_GT(edp.energy, 0.0);
        EXPECT_DOUBLE_EQ(edp.edp, edp.energy * edp.time);
        // StPerf picks the per-phase time minimum, so no other
        // per-phase policy can finish sooner.
        EXPECT_LE(perf.time, edp.time * (1 + 1e-12));
    }
}

TEST(Schedule, PhaseRunCountMatchesProfileWeights)
{
    for (int b = 0; b < int(specSuite().size()); b++) {
        const auto &phs = specSuite()[size_t(b)].phases;
        for (int p = 0; p < int(phs.size()); p++) {
            double want = phs[size_t(p)].weight * kRunsPerWeight *
                          double(phs.size());
            EXPECT_DOUBLE_EQ(phaseRunCount(b, p), want);
            EXPECT_GT(phaseRunCount(b, p), 0.0);
        }
    }
}

} // namespace
} // namespace cisa
