/**
 * @file
 * Wall-clock measurement of the cisa-serve service path: an
 * in-process daemon on a private UNIX socket, driven by concurrent
 * loopback clients. Times the cold slab request (the one that pays
 * for the computation), then the served-again rates that make the
 * daemon worthwhile — cache-hit requests/s on the same slab and
 * ping round-trips/s (pure transport + queue overhead) — plus a
 * coalescing wave whose stats must show the dedup. Verifies the
 * served slab bytes equal a direct library call.
 *
 * With --json, emits a single machine-readable JSON object on
 * stdout instead (see scripts/bench_perf.sh, which merges it into
 * BENCH_PR<N>.json).
 *
 * Knobs: CISA_THREADS (compute pool), CISA_SIM_UOPS /
 * CISA_SIM_WARMUP (per-cell simulation budget), CISA_BENCH_SLAB
 * (slab index, default: the x86-64 composite slab).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/benchcommon.hh"
#include "common/env.hh"
#include "common/parallel.hh"
#include "explore/campaign.hh"
#include "service/client.hh"
#include "service/server.hh"

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

/** @p clients concurrent connections each issuing @p perClient
 * requests; returns aggregate requests per second. */
template <class Issue>
double
loopbackRate(const std::string &path, int clients, int perClient,
             Issue &&issue)
{
    std::vector<std::thread> threads;
    auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; c++) {
        threads.emplace_back([&, c] {
            Client cl;
            if (!cl.connect(path))
                return;
            for (int i = 0; i < perClient; i++)
                issue(cl, c, i);
        });
    }
    for (std::thread &t : threads)
        t.join();
    double s = secondsSince(t0);
    return s > 0 ? double(clients) * perClient / s : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
    int slab = int(envInt("CISA_BENCH_SLAB",
                          FeatureSet::x86_64().id()));
    int threads = ThreadPool::get().threads();

    // Warm the phase-module cache so the cold leg times the slab
    // computation, not one-off IR synthesis.
    for (int p = 0; p < phaseCount(); p++)
        phaseModule(p);

    Server::Options opts;
    opts.address =
        "/tmp/cisa_perf_service_" + std::to_string(getpid()) +
        ".sock";
    opts.exec.queueBound = 64;
    opts.exec.workers = 2;
    Server server(opts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "perf_service: %s\n", err.c_str());
        return 1;
    }

    // Cold: the first slab request computes 49 phases x 180 uarches
    // x 2 envs through the service.
    Client cold;
    if (!cold.connect(opts.address, &err)) {
        std::fprintf(stderr, "perf_service: %s\n", err.c_str());
        return 1;
    }
    std::vector<PhasePerf> served;
    auto t0 = std::chrono::steady_clock::now();
    bool cold_ok =
        cold.slabPerf(slab, &served) == Status::Ok;
    double t_cold = secondsSince(t0);

    // Served bytes must equal the direct library call.
    std::vector<PhasePerf> direct = Campaign::get().slabPerf(slab);
    bool identical =
        cold_ok && served.size() == direct.size() &&
        std::memcmp(served.data(), direct.data(),
                    served.size() * sizeof(PhasePerf)) == 0;

    // Hot: the same request served from the response cache, from
    // several concurrent clients.
    constexpr int kClients = 4;
    constexpr int kPerClientSlab = 50;
    double rps_cached = loopbackRate(
        opts.address, kClients, kPerClientSlab,
        [&](Client &c, int, int) {
            std::vector<PhasePerf> v;
            c.slabPerf(slab, &v);
        });

    // Transport floor: ping round-trips (queued, not cached).
    constexpr int kPerClientPing = 500;
    double rps_ping = loopbackRate(
        opts.address, kClients, kPerClientPing,
        [](Client &c, int, int) { c.ping(); });

    // Coalescing wave: concurrent identical requests for a fresh
    // key (the rendered table; its cache entry doesn't exist yet)
    // dedup into fewer computations.
    uint64_t coalesce_before =
        server.executor().snapshot().total().coalesced;
    loopbackRate(opts.address, 8, 1, [&](Client &c, int, int) {
        std::string table;
        c.tableOf(slab, &table);
    });
    uint64_t coalesced =
        server.executor().snapshot().total().coalesced -
        coalesce_before;

    StatsSnap stats = server.executor().snapshot();
    server.stop();

    if (json) {
        std::printf(
            "{\n"
            "  \"bench\": \"perf_service\",\n"
            "  \"slab\": %d,\n"
            "  \"threads\": %d,\n"
            "  \"sim_uops\": %llu,\n"
            "  \"sim_warmup\": %llu,\n"
            "  \"cold_slab_s\": %.3f,\n"
            "  \"cached_slab_rps\": %.1f,\n"
            "  \"ping_rps\": %.1f,\n"
            "  \"coalesced_hits\": %llu,\n"
            "  \"cache_hits\": %llu,\n"
            "  \"served_identical\": %s\n"
            "}\n",
            slab, threads, (unsigned long long)simUopBudget(),
            (unsigned long long)simWarmupUops(), t_cold, rps_cached,
            rps_ping, (unsigned long long)coalesced,
            (unsigned long long)stats.totalCacheHits(),
            identical ? "true" : "false");
    } else {
        std::printf("service slab %d over %d workers:\n", slab,
                    opts.exec.workers);
        std::printf("  cold slab      : %8.3f s\n", t_cold);
        std::printf("  cached slab    : %8.1f req/s (%d clients)\n",
                    rps_cached, kClients);
        std::printf("  ping           : %8.1f req/s (%d clients)\n",
                    rps_ping, kClients);
        std::printf("  coalesced hits : %llu\n",
                    (unsigned long long)coalesced);
        std::printf("  served bytes   : %s\n",
                    identical ? "identical to library"
                              : "MISMATCH");
        std::printf("%s", stats.render().c_str());
    }
    return identical ? 0 : 1;
}
