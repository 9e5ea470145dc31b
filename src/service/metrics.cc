#include "service/metrics.hh"

#include <algorithm>
#include <tuple>
#include <type_traits>

#include "common/logging.hh"
#include "common/table.hh"

namespace cisa
{

namespace
{

/** How a fleet roll-up folds one worker's value into the total. */
enum class Fold : uint8_t
{
    Sum,
    Max,
    Or
};

/**
 * One row of a field table: the stat's member, its fold rule, the
 * render line it joins (nested rows inherit their parent's) and its
 * label there — an endpoint stat's label is its column — and the
 * live counter a snapshot reads it from (none for stats another
 * layer fills in).
 */
template <class S, class T, class Live = std::nullptr_t>
struct Field
{
    T S::*member;
    Fold fold;
    const char *group;
    const char *label;
    Live live = nullptr;
};

using Endpoints = std::array<EndpointSnap, size_t(ReqType::kCount)>;
using Faults = std::vector<FaultCounterSnap>;

constexpr std::tuple kEndpointFields{
    Field{&EndpointSnap::requests, Fold::Sum, "", "req",
          &EndpointMetrics::requests},
    Field{&EndpointSnap::ok, Fold::Sum, "", "ok", &EndpointMetrics::ok},
    Field{&EndpointSnap::coalesced, Fold::Sum, "", "coal",
          &EndpointMetrics::coalesced},
    Field{&EndpointSnap::cacheHits, Fold::Sum, "", "cache",
          &EndpointMetrics::cacheHits},
    Field{&EndpointSnap::stale, Fold::Sum, "", "stale",
          &EndpointMetrics::stale},
    Field{&EndpointSnap::busy, Fold::Sum, "", "busy",
          &EndpointMetrics::busy},
    Field{&EndpointSnap::deadline, Fold::Sum, "", "ddl",
          &EndpointMetrics::deadline},
    Field{&EndpointSnap::errors, Fold::Sum, "", "err",
          &EndpointMetrics::errors},
    Field{&EndpointSnap::bytesIn, Fold::Sum, "", "B in",
          &EndpointMetrics::bytesIn},
    Field{&EndpointSnap::bytesOut, Fold::Sum, "", "B out",
          &EndpointMetrics::bytesOut},
    Field{&EndpointSnap::latency, Fold::Sum, "", "us",
          &EndpointMetrics::latency},
};

constexpr std::tuple kStoreFields{
    Field{&StoreHealth::loaded, Fold::Sum, "", "loaded"},
    Field{&StoreHealth::salvaged, Fold::Sum, "", "salvaged"},
    Field{&StoreHealth::stale, Fold::Sum, "", "stale"},
    Field{&StoreHealth::appended, Fold::Sum, "", "appended"},
    Field{&StoreHealth::appendedBytes, Fold::Sum, "", "B appended"},
    Field{&StoreHealth::fileBytes, Fold::Max, "", "B on disk"},
    Field{&StoreHealth::lockWaits, Fold::Sum, "", "lock waits"},
    Field{&StoreHealth::lockWaitUs, Fold::Sum, "", "us lock-waited"},
    Field{&StoreHealth::quarantined, Fold::Sum, "", "quarantined"},
};

constexpr std::tuple kEngineFields{
    Field{&EngineHealth::cellsBatched, Fold::Sum, "", "cells batched"},
    Field{&EngineHealth::cellsPerCell, Fold::Sum, "", "per-cell"},
    Field{&EngineHealth::walksDone, Fold::Sum, "", "walks done"},
    Field{&EngineHealth::walksSaved, Fold::Sum, "", "walks saved"},
};

// chaos_soak.sh parses the breakers, supervisor and fault lines:
// keep their labels and order.
constexpr std::tuple kStatsFields{
    Field{&StatsSnap::ep, Fold::Sum, "", "", &ServiceMetrics::ep},
    Field{&StatsSnap::queueDepth, Fold::Sum, "queue", "queued"},
    Field{&StatsSnap::queuePeak, Fold::Sum, "queue", "peak",
          &ServiceMetrics::queuePeak},
    Field{&StatsSnap::inFlight, Fold::Sum, "queue", "in flight"},
    Field{&StatsSnap::draining, Fold::Or, "queue", "draining"},
    Field{&StatsSnap::liveConns, Fold::Sum, "transport", "live conns",
          &ServiceMetrics::liveConns},
    Field{&StatsSnap::connsAccepted, Fold::Sum, "transport", "accepted",
          &ServiceMetrics::connsAccepted},
    Field{&StatsSnap::connsRejected, Fold::Sum, "transport", "rejected",
          &ServiceMetrics::connsRejected},
    Field{&StatsSnap::workersUp, Fold::Sum, "fleet", "workers up"},
    Field{&StatsSnap::workersKnown, Fold::Sum, "fleet", "workers known"},
    Field{&StatsSnap::reroutes, Fold::Sum, "fleet", "reroutes"},
    Field{&StatsSnap::breakerOpenNow, Fold::Sum, "breakers", "open now"},
    Field{&StatsSnap::breakerTrips, Fold::Sum, "breakers", "trips"},
    Field{&StatsSnap::breakerProbes, Fold::Sum, "breakers", "probes"},
    Field{&StatsSnap::breakerRecoveries, Fold::Sum, "breakers",
          "recoveries"},
    Field{&StatsSnap::deadlineShed, Fold::Sum, "breakers",
          "deadline-shed"},
    Field{&StatsSnap::workersSupervised, Fold::Sum, "supervisor",
          "workers"},
    Field{&StatsSnap::supervisorRestarts, Fold::Sum, "supervisor",
          "restarts"},
    Field{&StatsSnap::supervisorCrashLoops, Fold::Sum, "supervisor",
          "crash-looping"},
    Field{&StatsSnap::faults, Fold::Sum, "", ""},
    Field{&StatsSnap::store, Fold::Sum, "slab store", ""},
    Field{&StatsSnap::engine, Fold::Sum, "slab engine", ""},
};

// clang-format off
constexpr const auto &tableOf(const EndpointSnap *) { return kEndpointFields; }
constexpr const auto &tableOf(const StoreHealth *)  { return kStoreFields; }
constexpr const auto &tableOf(const EngineHealth *) { return kEngineFields; }
constexpr const auto &tableOf(const StatsSnap *)    { return kStatsFields; }
// clang-format on

/** Call @p f on every row of @p S's table, in table (= wire) order. */
template <class S, class F>
void
forEachField(F &&f)
{
    std::apply([&](const auto &...row) { (f(row), ...); },
               tableOf(static_cast<const S *>(nullptr)));
}

template <class T>
constexpr bool kIsCounter = std::is_same_v<T, uint64_t>;
template <class T>
constexpr bool kIsHisto = std::is_same_v<T, Log2Histogram>;
template <class T>
constexpr bool kIsFaults = std::is_same_v<T, Faults>;
template <class T>
constexpr bool kIsEndpoints = std::is_same_v<T, Endpoints>;

// Wire format, in table order: a counter is a u64; a histogram is
// its kBuckets bucket counts as u64; the endpoints are a u32 count
// (must be ReqType::kCount) then each endpoint; the fault counters
// are a u32 count (at most kFaultSiteCount) then (site, checks,
// fired) each.
template <class T>
void
put(ByteWriter &w, const T &v)
{
    if constexpr (kIsCounter<T>) {
        w.u64(v);
    } else if constexpr (kIsHisto<T>) {
        for (uint64_t c : v.counts)
            w.u64(c);
    } else if constexpr (kIsFaults<T>) {
        w.u32(uint32_t(v.size()));
        for (const FaultCounterSnap &f : v) {
            w.str(f.site);
            w.u64(f.checks);
            w.u64(f.fired);
        }
    } else if constexpr (kIsEndpoints<T>) {
        w.u32(uint32_t(v.size()));
        for (const EndpointSnap &e : v)
            put(w, e);
    } else {
        forEachField<T>([&](const auto &f) { put(w, v.*f.member); });
    }
}

template <class T>
bool
get(ByteReader &r, T &v)
{
    if constexpr (kIsCounter<T>) {
        v = r.u64();
    } else if constexpr (kIsHisto<T>) {
        for (uint64_t &c : v.counts)
            c = r.u64();
    } else if constexpr (kIsFaults<T>) {
        uint32_t n = r.u32();
        if (!r.ok() || n > uint32_t(kFaultSiteCount))
            return false;
        v.resize(n);
        for (FaultCounterSnap &f : v) {
            f.site = r.str();
            f.checks = r.u64();
            f.fired = r.u64();
        }
    } else if constexpr (kIsEndpoints<T>) {
        if (r.u32() != v.size())
            return false;
        for (EndpointSnap &e : v)
            if (!get(r, e))
                return false;
    } else {
        bool good = true;
        forEachField<T>(
            [&](const auto &f) { good = good && get(r, v.*f.member); });
        return good;
    }
    return r.ok();
}

template <class T>
void
fold(T &a, const T &b, Fold rule)
{
    if constexpr (kIsCounter<T>) {
        switch (rule) {
          case Fold::Sum: a += b; break;
          case Fold::Max: a = std::max(a, b); break;
          case Fold::Or:  a |= b; break;
        }
    } else if constexpr (kIsHisto<T>) {
        a.merge(b);
    } else if constexpr (kIsFaults<T>) {
        for (const FaultCounterSnap &f : b) {
            auto mine = std::find_if(
                a.begin(), a.end(),
                [&](const FaultCounterSnap &m) { return m.site == f.site; });
            if (mine == a.end()) {
                a.push_back(f);
            } else {
                mine->checks += f.checks;
                mine->fired += f.fired;
            }
        }
    } else if constexpr (kIsEndpoints<T>) {
        for (size_t i = 0; i < a.size(); i++)
            fold(a[i], b[i], rule);
    } else {
        forEachField<T>([&](const auto &f) {
            fold(a.*f.member, b.*f.member, f.fold);
        });
    }
}

/** Relaxed read of @p live into @p v, through the rows that name a
 * live source. */
template <class T, class L>
void
load(T &v, const L &live)
{
    if constexpr (kIsCounter<T>) {
        v = live.load(std::memory_order_relaxed);
    } else if constexpr (kIsHisto<T>) {
        for (size_t b = 0; b < v.counts.size(); b++)
            v.counts[b] = live[b].load(std::memory_order_relaxed);
    } else if constexpr (kIsEndpoints<T>) {
        for (size_t i = 0; i < v.size(); i++)
            load(v[i], live[i]);
    } else {
        forEachField<T>([&](const auto &f) {
            if constexpr (!std::is_same_v<decltype(f.live),
                                          std::nullptr_t>)
                load(v.*f.member, live.*f.live);
        });
    }
}

EndpointSnap
sum(const Endpoints &eps)
{
    EndpointSnap t;
    for (const EndpointSnap &e : eps)
        fold(t, e, Fold::Sum);
    return t;
}

/** Render state: the text so far and the `group: value label, ...`
 * line being built, which is kept only if a value in it is non-zero. */
struct Render
{
    std::string text;
    std::string group;
    std::string line;
    bool any = false;

    void
    flush()
    {
        if (any)
            text += group + ": " + line + "\n";
        line.clear();
        any = false;
    }

    void
    add(const std::string &g, const char *label, uint64_t v)
    {
        if (g != group)
            flush();
        group = g;
        line += strfmt("%s%llu %s", line.empty() ? "" : ", ",
                       (unsigned long long)v, label);
        any = any || v != 0;
    }
};

/** One endpoint's table cells, with the header they go under. */
void
endpointRow(Table &t, const char *name, const EndpointSnap &e,
            bool header)
{
    std::vector<std::string> head{"endpoint"}, row{name};
    forEachField<EndpointSnap>([&](const auto &f) {
        const auto &v = e.*f.member;
        if constexpr (kIsHisto<std::decay_t<decltype(v)>>) {
            head.push_back(strfmt("p50%s", f.label));
            head.push_back(strfmt("p99%s", f.label));
            row.push_back(Table::num(int64_t(v.percentile(0.50))));
            row.push_back(Table::num(int64_t(v.percentile(0.99))));
        } else {
            head.push_back(f.label);
            row.push_back(Table::num(int64_t(v)));
        }
    });
    if (header)
        t.header(std::move(head));
    else
        t.row(std::move(row));
}

template <class T>
void
show(Render &out, const std::string &group, const char *label,
     const T &v)
{
    if constexpr (kIsCounter<T>) {
        out.add(group, label, v);
    } else if constexpr (kIsFaults<T>) {
        out.flush();
        for (const FaultCounterSnap &f : v)
            out.text += strfmt("fault %s: %llu checks, %llu fired\n",
                               f.site.c_str(),
                               (unsigned long long)f.checks,
                               (unsigned long long)f.fired);
    } else if constexpr (kIsEndpoints<T>) {
        Table t("cisa-serve stats");
        endpointRow(t, "", EndpointSnap{}, true);
        for (size_t i = 0; i < v.size(); i++)
            if (v[i] != EndpointSnap{})
                endpointRow(t, reqTypeName(ReqType(i)), v[i], false);
        endpointRow(t, "total", sum(v), false);
        out.text += t.str();
    } else {
        forEachField<T>([&](const auto &f) {
            show(out, *f.group ? f.group : group, f.label, v.*f.member);
        });
    }
}

} // namespace

EndpointSnap
StatsSnap::total() const
{
    EndpointSnap t;
    forEachField<StatsSnap>([&](const auto &f) {
        if constexpr (kIsEndpoints<std::decay_t<decltype(this->*f.member)>>)
            t = sum(this->*f.member);
    });
    return t;
}

void
StatsSnap::merge(const StatsSnap &w)
{
    fold(*this, w, Fold::Sum);
}

std::string
StatsSnap::render() const
{
    Render out;
    show(out, "", "", *this);
    out.flush();
    return out.text;
}

void
StatsSnap::encode(ByteWriter &w) const
{
    put(w, *this);
}

bool
StatsSnap::decode(ByteReader &r, StatsSnap *out)
{
    StatsSnap s;
    if (!get(r, s))
        return false;
    *out = s;
    return true;
}

StatsSnap
ServiceMetrics::snapshot() const
{
    StatsSnap s;
    load(s, *this);
    return s;
}

} // namespace cisa
