/**
 * @file
 * Wall-clock measurement of the DSE campaign hot path: one cold slab
 * (49 phases x 180 microarchitectures x 2 run environments) computed
 * three ways inside a single process so compile/simulate work is
 * identical — serially on the live engine, on the full CISA_THREADS
 * pool with the live engine, and on the pool with the batched
 * lockstep engine (packed traces + memoized structural streams, one
 * trace walk per cell group). Prints the three times and the
 * speedups, and verifies the three tables are byte-identical (exit 1
 * on a mismatch).
 *
 * With --json, emits a single machine-readable JSON object on stdout
 * instead (see scripts/bench_perf.sh, which seeds BENCH_PR<N>.json).
 *
 * Knobs: CISA_THREADS (pool width), CISA_SIM_UOPS / CISA_SIM_WARMUP
 * (per-cell simulation budget), CISA_BENCH_SLAB (slab index,
 * default: the x86-64 composite slab).
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/benchcommon.hh"
#include "common/env.hh"
#include "common/parallel.hh"
#include "explore/campaign.hh"

using namespace cisa;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
sameTable(const std::vector<PhasePerf> &a,
          const std::vector<PhasePerf> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(PhasePerf)) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
    int slab = int(envInt("CISA_BENCH_SLAB",
                          FeatureSet::x86_64().id()));
    int threads = ThreadPool::get().threads();

    // Warm the phase-module cache so every leg times compilation and
    // simulation, not one-off IR synthesis.
    for (int p = 0; p < phaseCount(); p++)
        phaseModule(p);

    if (!json) {
        std::printf(
            "campaign slab %d: %d phases x %d uarches x 2 envs, "
            "sim budget %llu+%llu uops\n",
            slab, phaseCount(), DesignPoint::kUarchCount,
            (unsigned long long)simUopBudget(),
            (unsigned long long)simWarmupUops());
    }

    std::vector<PhasePerf> serial;
    double t_serial;
    {
        ScopedThreadLimit limit(1);
        auto t0 = std::chrono::steady_clock::now();
        serial = computeSlabPerf(slab, SlabEngine::Live);
        t_serial = secondsSince(t0);
    }

    auto t0 = std::chrono::steady_clock::now();
    std::vector<PhasePerf> pool =
        computeSlabPerf(slab, SlabEngine::Live);
    double t_pool = secondsSince(t0);

    EngineHealth eh;
    t0 = std::chrono::steady_clock::now();
    std::vector<PhasePerf> batch =
        computeSlabPerf(slab, SlabEngine::Batch, nullptr, &eh);
    double t_batch = secondsSince(t0);

    bool identical =
        sameTable(serial, pool) && sameTable(serial, batch);
    double sp_pool = t_pool > 0 ? t_serial / t_pool : 0.0;
    double sp_batch = t_batch > 0 ? t_pool / t_batch : 0.0;

    if (json) {
        std::printf(
            "{\n"
            "  \"bench\": \"perf_campaign\",\n"
            "  \"slab\": %d,\n"
            "  \"threads\": %d,\n"
            "  \"phases\": %d,\n"
            "  \"uarches\": %d,\n"
            "  \"sim_uops\": %llu,\n"
            "  \"sim_warmup\": %llu,\n"
            "  \"serial_live_s\": %.3f,\n"
            "  \"pool_live_s\": %.3f,\n"
            "  \"pool_batch_s\": %.3f,\n"
            "  \"speedup_pool_vs_serial\": %.2f,\n"
            "  \"speedup_batch_vs_pool\": %.2f,\n"
            "  \"cells_batched\": %llu,\n"
            "  \"walks_done\": %llu,\n"
            "  \"walks_saved\": %llu,\n"
            "  \"tables_identical\": %s\n"
            "}\n",
            slab, threads, phaseCount(), DesignPoint::kUarchCount,
            (unsigned long long)simUopBudget(),
            (unsigned long long)simWarmupUops(), t_serial, t_pool,
            t_batch, sp_pool, sp_batch,
            (unsigned long long)eh.cellsBatched,
            (unsigned long long)eh.walksDone,
            (unsigned long long)eh.walksSaved,
            identical ? "true" : "false");
    } else {
        std::printf("  serial live    : %8.3f s\n", t_serial);
        std::printf("  pool live  x%-2d : %8.3f s  (%.2fx)\n",
                    threads, t_pool, sp_pool);
        std::printf(
            "  pool batch x%-2d : %8.3f s  (%.2fx vs pool live, "
            "%llu walks saved)\n",
            threads, t_batch, sp_batch,
            (unsigned long long)eh.walksSaved);
        std::printf("  tables         : %s\n",
                    identical ? "bit-identical" : "MISMATCH");
    }
    return identical ? 0 : 1;
}
