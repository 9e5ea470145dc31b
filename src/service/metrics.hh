/**
 * @file
 * Per-endpoint observability for cisa-serve: lock-free request
 * counters and log2-bucketed latency histograms, snapshotted (and
 * wire-encoded) by the `stats` endpoint.
 *
 * All mutators are single atomic increments so the hot path never
 * takes a lock; a snapshot is a relaxed read of every counter, which
 * is allowed to tear across counters (stats are advisory) but never
 * within one.
 *
 * Each snapshot struct below has one field table in metrics.cc: a
 * row per stat with its fold rule (sum, max or or) and render label,
 * plus the live counter it is read from. Encode, decode, merge,
 * snapshot, the totals and render all walk those tables, so a new
 * stat is one struct member and one table row.
 */

#ifndef CISA_SERVICE_METRICS_HH
#define CISA_SERVICE_METRICS_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/faultinject.hh"
#include "common/stats.hh"
#include "explore/campaign.hh"
#include "explore/slabstore.hh"
#include "service/request.hh"

namespace cisa
{

/** Live counters of one endpoint. */
struct EndpointMetrics
{
    std::atomic<uint64_t> requests{0};  ///< submitted (any outcome)
    std::atomic<uint64_t> ok{0};        ///< completed Ok
    std::atomic<uint64_t> coalesced{0}; ///< joined an in-flight twin
    std::atomic<uint64_t> cacheHits{0}; ///< served from result cache
    std::atomic<uint64_t> stale{0};     ///< degraded cache serves
    std::atomic<uint64_t> busy{0};      ///< rejected: queue full/drain
    std::atomic<uint64_t> deadline{0};  ///< expired before completion
    std::atomic<uint64_t> errors{0};    ///< handler failure/bad req
    std::atomic<uint64_t> bytesIn{0};   ///< request wire bytes
    std::atomic<uint64_t> bytesOut{0};  ///< response wire bytes
    /** Submit-to-response microseconds of Ok requests, cache hits
     * (executor LRU and wire cache) included, bucketed by
     * Log2Histogram::bucketOf. */
    std::array<std::atomic<uint64_t>, Log2Histogram::kBuckets>
        latency{};

    void
    addLatency(uint64_t us)
    {
        latency[Log2Histogram::bucketOf(us)].fetch_add(
            1, std::memory_order_relaxed);
    }

    /** addLatency of the time elapsed since @p start. */
    void
    addLatencySince(std::chrono::steady_clock::time_point start)
    {
        auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
        addLatency(uint64_t(std::max<int64_t>(us, 0)));
    }
};

/** Point-in-time copy of one endpoint's counters. */
struct EndpointSnap
{
    uint64_t requests = 0;
    uint64_t ok = 0;
    uint64_t coalesced = 0;
    uint64_t cacheHits = 0;
    uint64_t stale = 0;
    uint64_t busy = 0;
    uint64_t deadline = 0;
    uint64_t errors = 0;
    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;
    /** Latency buckets; p50/p99 are computed from them wherever they
     * are shown, so merged snapshots give exact fleet percentiles. */
    Log2Histogram latency;

    bool operator==(const EndpointSnap &) const = default;
};

/** Point-in-time copy of the whole service's metrics. */
struct StatsSnap
{
    std::array<EndpointSnap, size_t(ReqType::kCount)> ep{};
    uint64_t queueDepth = 0; ///< queued (not running) right now
    uint64_t queuePeak = 0;  ///< high-water mark of queueDepth
    uint64_t inFlight = 0;   ///< running right now
    uint64_t draining = 0;   ///< 1 while the executor drains

    /** Transport-level connection accounting (the server's accept
     * loop, or the router's client-facing side). */
    uint64_t liveConns = 0;     ///< connections open right now
    uint64_t connsAccepted = 0; ///< accepted since start
    uint64_t connsRejected = 0; ///< refused with BUSY at max-conns

    /** Fleet fields, non-zero only in a router's merged snapshot. */
    uint64_t reroutes = 0;     ///< requests moved off a down worker
    uint64_t workersUp = 0;    ///< workers passing health checks
    uint64_t workersKnown = 0; ///< workers configured

    /** Per-worker circuit breakers (router): lifetime trip /
     * half-open probe / close transitions, breakers open right now,
     * and requests shed in the router because their propagated
     * deadline budget was already spent. */
    uint64_t breakerTrips = 0;
    uint64_t breakerProbes = 0;
    uint64_t breakerRecoveries = 0;
    uint64_t breakerOpenNow = 0;
    uint64_t deadlineShed = 0;

    /** Supervisor roll-up (cisa_fleetd): workers under supervision,
     * restarts performed, workers currently declared crash-looping. */
    uint64_t workersSupervised = 0;
    uint64_t supervisorRestarts = 0;
    uint64_t supervisorCrashLoops = 0;

    /** Fault-injection counters; non-empty only when CISA_FAULTS is
     * armed somewhere in the fleet (merged across processes). */
    std::vector<FaultCounterSnap> faults;

    /** Durable slab-store health (records loaded/salvaged/appended,
     * bytes, lock waits, quarantines) of the campaign cache this
     * process is bound to; all-zero until the campaign exists. */
    StoreHealth store{};

    /** Slab-engine mode counters (cells simulated in lockstep
     * batches vs per cell, trace walks performed vs saved) of the
     * same campaign; all-zero until it computes a slab. */
    EngineHealth engine{};

    /** All endpoints folded into one. */
    EndpointSnap total() const;
    uint64_t totalRequests() const { return total().requests; }
    uint64_t totalCacheHits() const { return total().cacheHits; }

    /**
     * Fold one worker's snapshot into this fleet roll-up, each field
     * by its table's rule: counters, byte totals and latency buckets
     * add (so merged percentiles are exact), draining ORs, and store
     * fileBytes takes the max — the fleet shares one slab-store
     * file, so adding per-worker views would multiply-count the same
     * bytes. Fault counters merge by site.
     */
    void merge(const StatsSnap &w);

    /** Rendered ASCII table (one row per endpoint) and one
     * `group: value label, ...` line per non-zero stat group. */
    std::string render() const;

    void encode(ByteWriter &w) const;
    static bool decode(ByteReader &r, StatsSnap *out);
};

/** The live metrics of one executor. The gauges the executor owns
 * (queue depth, in-flight, draining), the fault plane and the
 * campaign health are filled in by Executor::snapshot. */
struct ServiceMetrics
{
    std::array<EndpointMetrics, size_t(ReqType::kCount)> ep{};
    std::atomic<uint64_t> queuePeak{0};
    std::atomic<uint64_t> liveConns{0};
    std::atomic<uint64_t> connsAccepted{0};
    std::atomic<uint64_t> connsRejected{0};

    EndpointMetrics &
    at(ReqType t)
    {
        return ep[size_t(t)];
    }

    /** Record a new queued-depth observation (keeps the peak). */
    void
    observeQueueDepth(uint64_t depth)
    {
        uint64_t prev = queuePeak.load(std::memory_order_relaxed);
        while (prev < depth &&
               !queuePeak.compare_exchange_weak(
                   prev, depth, std::memory_order_relaxed)) {
        }
    }

    void
    connAccepted()
    {
        liveConns.fetch_add(1, std::memory_order_relaxed);
        connsAccepted.fetch_add(1, std::memory_order_relaxed);
    }

    void
    connClosed()
    {
        liveConns.fetch_sub(1, std::memory_order_relaxed);
    }

    void
    connRejected()
    {
        connsRejected.fetch_add(1, std::memory_order_relaxed);
    }

    /** Relaxed read of every live counter this struct holds. */
    StatsSnap snapshot() const;
};

} // namespace cisa

#endif // CISA_SERVICE_METRICS_HH
