/**
 * @file
 * pb_driver: the benchmark's in-process half. It calls the cisa
 * library's public functions from outside the program, so every time
 * it reports is taken around a public call, never inside one.
 *
 *   pb_driver host                       resolved knobs of this host
 *   pb_driver campaign SEED|--setup-only cold campaign, 29 slabs
 *   pb_driver ready                      load a filled store
 *   pb_driver probe WORKER... ROUTER     wait until a fleet answers
 *   pb_driver load ADDR CONNS SECONDS SEED
 *                                        closed-loop serve client
 *   pb_driver stages SPANS_FILE          traced campaign stages
 *   pb_driver layers DIRECT ROUTED SEED SPANS_FILE
 *                                        traced per-layer profile
 *
 * Each subcommand prints one JSON object on stdout. Timestamps named
 * *_ns are CLOCK_MONOTONIC, so the launching process can subtract its
 * own launch time from them. run.py drives all of this.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/cisa.hh"
#include "explore/slabstore.hh"
#include "service/client.hh"
#include "service/executor.hh"
#include "service/frame.hh"
#include "service/request.hh"
#include "uarch/batch.hh"
#include "uarch/replay.hh"

using namespace cisa;

namespace
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
sinceS(int64_t t0)
{
    return double(nowNs() - t0) * 1e-9;
}

/** Flat JSON object writer: enough for numbers, strings and arrays. */
class Json
{
  public:
    Json &
    num(const char *k, double v)
    {
        char b[64];
        std::snprintf(b, sizeof(b), "%.17g", v);
        return raw(k, b);
    }
    Json &
    str(const char *k, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += (unsigned char)c < 0x20 ? ' ' : c;
        }
        return raw(k, q + "\"");
    }
    Json &
    nums(const char *k, const std::vector<double> &v)
    {
        std::string s = "[";
        char b[64];
        for (size_t i = 0; i < v.size(); i++) {
            std::snprintf(b, sizeof(b), "%s%.10g", i ? "," : "", v[i]);
            s += b;
        }
        return raw(k, s + "]");
    }
    Json &
    strs(const char *k, const std::vector<std::string> &v)
    {
        std::string s = "[";
        for (size_t i = 0; i < v.size(); i++)
            s += (i ? ",\"" : "\"") + v[i] + "\"";
        return raw(k, s + "]");
    }
    Json &
    raw(const char *k, const std::string &v)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + std::string(k) +
                 "\":" + v;
        return *this;
    }
    void print() const { std::printf("{%s}\n", body_.c_str()); }

  private:
    std::string body_;
};

std::string
hex64(uint64_t v)
{
    char b[17];
    std::snprintf(b, sizeof(b), "%016llx", (unsigned long long)v);
    return b;
}

/** FNV-1a digest of each slab's raw PhasePerf block. */
std::vector<std::string>
slabDigests(Campaign &c)
{
    std::vector<std::string> out;
    for (int s = 0; s < Campaign::kSlabs; s++) {
        std::vector<PhasePerf> v = c.slabPerf(s);
        out.push_back(hex64(fnv1a(v.data(), v.size() * sizeof(PhasePerf))));
    }
    return out;
}

int
cmdHost()
{
    Json j;
    j.num("sim_uops", double(simUopBudget()));
    j.num("sim_warmup", double(simWarmupUops()));
    j.num("avx512_kernel_usable",
          batchSimdEnabled() && __builtin_cpu_supports("avx512f") &&
              __builtin_cpu_supports("avx512bw") &&
              __builtin_cpu_supports("avx512dq") &&
              __builtin_cpu_supports("avx512vl"));
    j.print();
    return 0;
}

/** Cold campaign: every slab through Campaign::ensureSlab into the
 * empty store CISA_DSE_CACHE names, in an order drawn from @p seed.
 * "Ready" is after the campaign and the thread pool exist, before
 * the first slab starts. */
int
cmdCampaign(bool setupOnly, uint64_t seed)
{
    Campaign &c = Campaign::get();
    for (int s = 0; s < Campaign::kSlabs; s++) {
        if (c.slabReady(s)) {
            std::fprintf(stderr, "pb_driver: store is not empty\n");
            return 3;
        }
    }
    ThreadPool::get();
    int64_t ready = nowNs();
    Json j;
    j.num("ready_ns", double(ready));
    if (setupOnly) {
        j.print();
        return 0;
    }
    std::vector<int> order(Campaign::kSlabs);
    for (int s = 0; s < Campaign::kSlabs; s++)
        order[size_t(s)] = s;
    Pcg32 rng(seed, 7);
    for (size_t i = order.size() - 1; i > 0; i--)
        std::swap(order[i], order[rng.below(uint32_t(i + 1))]);
    std::vector<double> slabUs;
    for (int s : order) {
        int64_t t0 = nowNs();
        c.ensureSlab(s);
        slabUs.push_back(double(nowNs() - t0) * 1e-3);
    }
    j.num("wall_s", sinceS(ready));
    j.nums("slab_us", slabUs);
    j.strs("digests", slabDigests(c));
    j.print();
    return 0;
}

/** Load a filled store the way every figure bench and worker does. */
int
cmdReady()
{
    Campaign &c = Campaign::get();
    ThreadPool::get();
    int64_t ready = nowNs();
    int have = 0;
    for (int s = 0; s < Campaign::kSlabs; s++)
        have += c.slabReady(s);
    Json j;
    j.num("ready_ns", double(ready));
    j.num("slabs_loaded", have);
    if (have == Campaign::kSlabs)
        j.strs("digests", slabDigests(c));
    j.print();
    return have == Campaign::kSlabs ? 0 : 3;
}

/** Wait until the fleet answers: one Eval straight to each worker
 * (so each has loaded its store) and a Ping through the router. */
int
cmdProbe(const std::vector<std::string> &workers,
         const std::string &router)
{
    int64_t deadline = nowNs() + int64_t(60e9);
    auto until = [&](const std::string &addr, const Request &r) {
        while (nowNs() < deadline) {
            Client cl;
            Response resp;
            if (cl.connect(addr) && cl.call(r, &resp) &&
                resp.status == Status::Ok)
                return true;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return false;
    };
    Request eval = Request::evalPoint(DesignPoint::fromRow(0), 0);
    for (const std::string &w : workers)
        if (!until(w, eval))
            return 3;
    if (!until(router, Request::ping()))
        return 3;
    Json j;
    j.num("ready_ns", double(nowNs()));
    j.print();
    return 0;
}

/** The serve mix, drawn from a seeded stream. The weights are the
 * mix tools/cisa_loadgen.cc documents, "slab=8,ping=1,eval=1,table=1":
 * Slab and Table over the 29 slabs, Eval over every (design point,
 * phase) key, and Ping. */
Request
drawRequest(Pcg32 &rng)
{
    uint32_t pick = rng.below(11);
    if (pick < 8)
        return Request::slabPerf(int(rng.below(Campaign::kSlabs)));
    if (pick < 9)
        return Request::ping();
    if (pick < 10) {
        int row = int(rng.below(uint32_t(DesignPoint::kTotalRows)));
        int ph = int(rng.below(uint32_t(phaseCount())));
        return Request::evalPoint(DesignPoint::fromRow(row), ph);
    }
    return Request::tableOf(int(rng.below(Campaign::kSlabs)));
}

/** The bytes the library itself produces for a request. */
class Oracle
{
  public:
    Oracle() : camp_(Campaign::get())
    {
        Executor::Options o;
        o.workers = 1;
        o.cacheEntries = 0;
        Executor ex(o);
        for (int s = 0; s < Campaign::kSlabs; s++) {
            ByteWriter w;
            encodeSlabPerf(w, camp_.slabPerf(s));
            slab_.push_back(w.take());
            table_.push_back(ex.call(Request::tableOf(s)).body);
        }
    }

    /** The library's body for @p r, encoded the way a handler does. */
    std::vector<uint8_t>
    body(const Request &r) const
    {
        switch (r.type) {
          case ReqType::Eval: {
            ByteWriter w;
            encodePhasePerf(w, camp_.at(r.designPoint(), r.eval.phase));
            return w.take();
          }
          case ReqType::Slab:
            return slab_[size_t(r.slab.slab)];
          case ReqType::Table:
            return table_[size_t(r.slab.slab)];
          default:
            return {};
        }
    }

    /** Whether @p got is the library's body for @p r; allocates
     * nothing, so checking inside a timed loop stays cheap. */
    bool
    matches(const Request &r, const std::vector<uint8_t> &got) const
    {
        switch (r.type) {
          case ReqType::Eval: {
            PhasePerf want = camp_.at(r.designPoint(), r.eval.phase);
            PhasePerf back;
            ByteReader rd(got);
            return decodePhasePerf(rd, &back) && rd.ok() &&
                   rd.atEnd() &&
                   !std::memcmp(&back, &want, sizeof(PhasePerf));
          }
          case ReqType::Slab:
            return got == slab_[size_t(r.slab.slab)];
          case ReqType::Table:
            return got == table_[size_t(r.slab.slab)];
          default:
            return got.empty();
        }
    }

  private:
    Campaign &camp_;
    std::vector<std::vector<uint8_t>> slab_, table_;
};

bool
checkResponse(const Oracle &o, const Request &r, bool sent,
              const Response &resp)
{
    return sent && resp.status == Status::Ok && !resp.stale &&
           o.matches(r, resp.body);
}

/** Closed loop: @p conns connections, each sending its next request
 * only after the previous reply, until @p seconds have passed. */
int
cmdLoad(const std::string &addr, int conns, double seconds,
        uint64_t seed)
{
    Campaign::get();
    Oracle oracle;
    struct Lane
    {
        std::vector<double> latUs, endUs;
        uint64_t attempted = 0, failed = 0;
        std::string err;
    };
    std::vector<Lane> lanes(static_cast<size_t>(conns));
    std::atomic<int> connected{0};
    int64_t start = nowNs();
    int64_t stop = start + int64_t(seconds * 1e9);
    std::vector<std::thread> ts;
    for (int t = 0; t < conns; t++) {
        ts.emplace_back([&, t] {
            Lane &ln = lanes[size_t(t)];
            Pcg32 rng(seed, uint64_t(t) + 1);
            Client cl;
            std::string err;
            if (!cl.connect(addr, &err)) {
                ln.err = err;
                ln.attempted = ln.failed = 1;
                return;
            }
            connected++;
            while (nowNs() < stop) {
                Request r = drawRequest(rng);
                Response resp;
                int64_t t0 = nowNs();
                bool sent = cl.call(r, &resp, 0, &err);
                int64_t t1 = nowNs();
                ln.attempted++;
                if (!checkResponse(oracle, r, sent, resp)) {
                    ln.failed++;
                    if (ln.err.empty())
                        ln.err = sent ? "body mismatch" : err;
                    if (!sent && !cl.connect(addr, &err))
                        break;
                    continue;
                }
                ln.latUs.push_back(double(t1 - t0) * 1e-3);
                ln.endUs.push_back(double(t1 - start) * 1e-3);
            }
        });
    }
    for (auto &t : ts)
        t.join();
    Json j;
    std::vector<double> lat, end;
    uint64_t attempted = 0, failed = 0;
    std::string err;
    for (const Lane &ln : lanes) {
        lat.insert(lat.end(), ln.latUs.begin(), ln.latUs.end());
        end.insert(end.end(), ln.endUs.begin(), ln.endUs.end());
        attempted += ln.attempted;
        failed += ln.failed;
        if (err.empty())
            err = ln.err;
    }
    Client sc;
    StatsSnap st;
    if (sc.connect(addr) && sc.stats(&st) == Status::Ok)
        j.num("cache_hit_share", double(st.totalCacheHits()) /
                                     double(st.totalRequests()));
    j.num("attempted", double(attempted));
    j.num("failed", double(failed));
    j.num("connections", connected.load());
    j.str("first_error", err);
    j.nums("lat_us", lat);
    j.nums("end_us", end);
    j.print();
    return 0;
}

// ---------------------------------------------------------------
// Traced profile: spans around calls into each module.
// ---------------------------------------------------------------

/** In-memory span log: name, start, end, parent. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int64_t t0, t1;
        int parent;
    };

    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t)
        {
            idx_ = int(t.spans_.size());
            t.spans_.push_back({name, nowNs(), 0, t.open_});
            t.open_ = idx_;
        }
        ~Scope()
        {
            t_.spans_[size_t(idx_)].t1 = nowNs();
            t_.open_ = t_.spans_[size_t(idx_)].parent;
        }

      private:
        Tracer &t_;
        int idx_;
    };

    size_t size() const { return spans_.size(); }

    /** Summed seconds of the spans named @p name among spans
     * [@p from, @p to). */
    double
    seconds(const char *name, size_t from = 0,
            size_t to = SIZE_MAX) const
    {
        int64_t ns = 0;
        for (size_t i = from; i < std::min(to, spans_.size()); i++)
            if (!std::strcmp(spans_[i].name, name))
                ns += spans_[i].t1 - spans_[i].t0;
        return double(ns) * 1e-9;
    }

    double
    count(const char *name, size_t from = 0,
          size_t to = SIZE_MAX) const
    {
        double n = 0;
        for (size_t i = from; i < std::min(to, spans_.size()); i++)
            n += !std::strcmp(spans_[i].name, name);
        return n;
    }

    void
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return;
        std::fprintf(f, "[");
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            std::fprintf(f, "%s\n{\"name\":\"%s\",\"t0_ns\":%lld,"
                            "\"t1_ns\":%lld,\"parent\":%d}",
                         i ? "," : "", s.name, (long long)s.t0,
                         (long long)s.t1, s.parent);
        }
        std::fprintf(f, "\n]\n");
        std::fclose(f);
    }

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/** Slabs the stage profile samples: one composite, one vendor. The
 * vendor one is Alpha-like, whose code-size factor is not 1, so its
 * traces also pass through vendorAdjustTrace (x86-64's do not). */
const int kSampleSlabs[] = {20, 27};

/** Rounds of (stages, computeSlabPerf) per sampled slab. Each side
 * keeps its fastest round: on a shared host one 1-2 s measurement
 * varies by up to 15%. That is more than a slab's residual, so the
 * residual is reported, not checked: it can read negative. */
constexpr int kStageRounds = 3;

/** Spans that together make up a slab's stage time. */
const char *const kStageSpans[] = {
    "compiler.compile", "compiler.exec", "uarch.pack",
    "uarch.streams",    "uarch.batch",   "power.energy"};

/** Counts the stage calls of one slab. */
struct StageCounts
{
    double macroOps = 0, sims = 0, walks = 0, streams = 0;
    /** Composite slabs only: vendor slabs record every op. */
    double compositeOps = 0, compositeRecorded = 0;
};

/**
 * Run the campaign's stage functions on one slab's real inputs at
 * one thread: compile, memory image, functional execution, packing,
 * structural streams, lockstep timing and energy. Cells are grouped
 * by structural fingerprint (the precondition of simulateCoreBatch)
 * in chunks of the batch-width knob; no per-cell results are folded.
 * That grouping mirrors computeSlabPerf's, so cmdStages checks the
 * walk and cell counts against the EngineHealth computeSlabPerf
 * reports for the same slab.
 */
void
stageSlab(Tracer &tr, int slab, StageCounts &n, double &sink)
{
    bool vendor = slab >= 26;
    VendorModel vm;
    FeatureSet fs;
    if (vendor) {
        vm = VendorModel::vendor(slab == 26   ? VendorIsa::X86_64
                                 : slab == 27 ? VendorIsa::AlphaLike
                                              : VendorIsa::ThumbLike);
        fs = vm.features;
    } else {
        fs = FeatureSet::byId(slab);
        vm = VendorModel::composite(fs);
    }
    uint64_t timed = simUopBudget(), warm = simWarmupUops();
    const RunEnv envs[2] = {RunEnv{}, RunEnv{0.25, 1.30}};

    struct Group
    {
        int env;
        std::vector<int> uarch;
    };
    std::map<uint64_t, Group> groups;
    for (int u = 0; u < DesignPoint::kUarchCount; u++)
        for (int e = 0; e < 2; e++) {
            MicroArchConfig ua = MicroArchConfig::byId(u);
            Group &g = groups[structuralFingerprint(ua, envs[e])];
            g.env = e;
            g.uarch.push_back(u);
        }
    auto core = [&](int u) {
        return (vendor ? DesignPoint::vendorPoint(vm.kind, u)
                       : DesignPoint::composite(slab, u))
            .coreConfig();
    };

    for (int ph = 0; ph < phaseCount(); ph++) {
        const IrModule &mod = phaseModule(ph);
        CompileOptions opts = CompileOptions::fromEnv();
        opts.target = fs;
        MachineProgram prog;
        IrModule ir;
        {
            Tracer::Scope sp(tr, "compiler.compile");
            prog = compile(mod, opts, nullptr, &ir);
        }
        Trace trace;
        {
            Tracer::Scope sp(tr, "compiler.exec");
            MemImage img = MemImage::build(ir, fs.widthBits());
            executeMachine(prog, img, 1ULL << 31, &trace, 1ULL << 21,
                           vendor ? ~uint64_t(0) : warm + timed + 1);
            n.macroOps += double(trace.dyn.macroOps);
            if (!vendor) {
                n.compositeOps += double(trace.dyn.macroOps);
                n.compositeRecorded += double(trace.ops.size());
            }
            if (vendor && vm.codeSizeFactor != 1.0)
                trace = vendorAdjustTrace(trace, vm.codeSizeFactor);
        }
        ReplayTrace packed;
        {
            Tracer::Scope sp(tr, "uarch.pack");
            packed = ReplayTrace::build(trace, warm + timed);
        }
        for (auto &[key, g] : groups) {
            CoreConfig first = core(g.uarch[0]);
            StructuralStream ss;
            {
                Tracer::Scope sp(tr, "uarch.streams");
                ss = buildStructuralStream(first, envs[g.env], trace,
                                           packed, timed, warm);
            }
            n.streams++;
            size_t bw = size_t(batchWidth());
            for (size_t b = 0; b < g.uarch.size(); b += bw) {
                std::vector<CoreConfig> ccs;
                for (size_t i = b; i < std::min(g.uarch.size(), b + bw);
                     i++)
                    ccs.push_back(core(g.uarch[i]));
                std::vector<PerfResult> rs;
                {
                    Tracer::Scope sp(tr, "uarch.batch");
                    if (ccs.size() == 1)
                        rs = {simulateCoreReplay(ccs[0], packed, ss,
                                                 timed, warm,
                                                 envs[g.env])};
                    else
                        rs = simulateCoreBatch(ccs.data(), ccs.size(),
                                               packed, ss, timed, warm,
                                               envs[g.env]);
                }
                n.walks++;
                n.sims += double(rs.size());
                Tracer::Scope sp(tr, "power.energy");
                for (size_t i = 0; i < rs.size(); i++)
                    sink += coreEnergy(ccs[i], rs[i].stats,
                                       vendor ? &vm : nullptr)
                                .total();
            }
        }
    }
}

/** Sends one request down one path; false if it never got a reply. */
using Sender = std::function<bool(const Request &, Response *)>;

/** Send every request, check every reply against the library's bytes,
 * and return the mean microseconds per request. @p tr, when set,
 * records one span per request. */
double
sendAll(Tracer *tr, const char *span, const std::vector<Request> &reqs,
        const Sender &send, const Oracle &o, double &failed)
{
    int64_t t0 = nowNs();
    for (const Request &r : reqs) {
        Response resp;
        bool ok;
        if (tr) {
            Tracer::Scope sp(*tr, span);
            ok = send(r, &resp);
        } else {
            ok = send(r, &resp);
        }
        failed += !checkResponse(o, r, ok, resp);
    }
    return double(nowNs() - t0) * 1e-3 / double(reqs.size());
}

/** The campaign stages on one composite and one vendor slab, set
 * against computeSlabPerf on the same slab, in kStageRounds
 * alternating rounds; each side's fastest round is reported. A round
 * counts a failed check if computeSlabPerf's table differs from the
 * store's or its walk or cell counts differ from the stages'.
 * Run it with CISA_THREADS=1: a ScopedThreadLimit would not stop
 * computeSlabPerf's stream-build task group from using pool workers.
 */
int
cmdStages(const std::string &spansPath)
{
    Tracer tr;
    Json j;
    double sink = 0, failed = 0, checks = 0;
    std::vector<std::string> digests = slabDigests(Campaign::get());
    for (int ph = 0; ph < phaseCount(); ph++)
        phaseModule(ph);
    StageCounts n;
    // Span ranges of each slab's fastest stage round.
    std::vector<std::pair<size_t, size_t>> kept;
    double slab1 = 0, stages1 = 0;
    for (int s : kSampleSlabs) {
        double bestStages = 1e300, bestSlab = 1e300;
        StageCounts bestN;
        uint64_t engineWalks = 0;
        for (int r = 0; r < kStageRounds; r++) {
            StageCounts cnt;
            size_t from = tr.size();
            stageSlab(tr, s, cnt, sink);
            double stages = 0;
            for (const char *st : kStageSpans)
                stages += tr.seconds(st, from);
            if (stages < bestStages) {
                bestStages = stages;
                bestN = cnt;
                if (r == 0)
                    kept.push_back({from, tr.size()});
                else
                    kept.back() = {from, tr.size()};
            }

            EngineHealth eh;
            int64_t t0 = nowNs();
            std::vector<PhasePerf> v =
                computeSlabPerf(s, SlabEngine::Auto, nullptr, &eh);
            bestSlab = std::min(bestSlab, sinceS(t0));
            failed += hex64(fnv1a(v.data(),
                                  v.size() * sizeof(PhasePerf))) !=
                      digests[size_t(s)];
            failed += double(eh.walksDone) != cnt.walks ||
                      double(eh.cellsBatched + eh.cellsPerCell) !=
                          cnt.sims;
            checks += 2;
            engineWalks = eh.walksDone;
        }
        n.macroOps += bestN.macroOps;
        n.sims += bestN.sims;
        n.walks += bestN.walks;
        n.streams += bestN.streams;
        n.compositeOps += bestN.compositeOps;
        n.compositeRecorded += bestN.compositeRecorded;
        std::string tag = s < 26 ? ".composite" : ".vendor";
        j.num(("explore.slab_1t_s" + tag).c_str(), bestSlab);
        j.num(("explore.stage_sum_s" + tag).c_str(), bestStages);
        j.num(("explore.slab_residual_s" + tag).c_str(),
              bestSlab - bestStages);
        j.num(("explore.walks" + tag).c_str(), bestN.walks);
        j.num(("explore.engine_walks" + tag).c_str(),
              double(engineWalks));
        slab1 += bestSlab;
        stages1 += bestStages;
    }
    auto sec = [&](const char *name) {
        double t = 0;
        for (auto [a, b] : kept)
            t += tr.seconds(name, a, b);
        return t;
    };
    double batchS = sec("uarch.batch");
    double compiles = 0;
    for (auto [a, b] : kept)
        compiles += tr.count("compiler.compile", a, b);
    j.num("compiler.compile_s", sec("compiler.compile"));
    j.num("compiler.compile_calls", compiles);
    j.num("compiler.exec_s", sec("compiler.exec"));
    j.num("compiler.exec_ns_per_op",
          sec("compiler.exec") * 1e9 / n.macroOps);
    j.num("compiler.exec_recorded_share",
          n.compositeRecorded / n.compositeOps);
    j.num("uarch.pack_s", sec("uarch.pack"));
    j.num("uarch.streams_s", sec("uarch.streams"));
    j.num("uarch.streams_built", n.streams);
    j.num("uarch.batch_s", batchS);
    j.num("uarch.cells_per_walk", n.sims / n.walks);
    j.num("uarch.ns_per_cell_uop",
          batchS * 1e9 /
              (n.sims * double(simUopBudget() + simWarmupUops())));
    j.num("power.energy_s", sec("power.energy"));
    j.num("explore.slab_1t_s", slab1);
    j.num("explore.slab_residual_s", slab1 - stages1);
    j.num("attempted", tr.count("compiler.compile") + checks);
    j.num("failed", failed);
    j.num("sink", sink);
    tr.write(spansPath);
    j.print();
    return 0;
}

int
cmdLayers(const std::string &direct, const std::string &routed,
          uint64_t seed, const std::string &spansPath)
{
    Tracer tr;
    Json j;
    double attempted = 0, failed = 0, sink = 0;
    Campaign &camp = Campaign::get();

    // The sample slabs at N threads, for the pool speedup, each the
    // fastest of kStageRounds as at one thread. One untimed slab
    // first: the pool's first use pays thread and allocator start-up
    // that no later slab pays.
    computeSlabPerf(kSampleSlabs[0]);
    double slabN = 0;
    for (int s : kSampleSlabs) {
        double best = 1e300;
        for (int r = 0; r < kStageRounds; r++) {
            int64_t t0 = nowNs();
            computeSlabPerf(s);
            best = std::min(best, sinceS(t0));
        }
        slabN += best;
    }
    j.num("explore.slab_nt_s", slabN);

    // Live engine and migration translation (register depth,
    // predication and width downgrades) on full-featured x86 code.
    {
        FeatureSet sup = FeatureSet::parse("x86-64D-64W-F");
        FeatureSet core = FeatureSet::parse("x86-16D-64W-P");
        for (int ph = 0; ph < phaseCount(); ph++) {
            CompileOptions opts = CompileOptions::fromEnv();
            opts.target = sup;
            IrModule ir;
            MachineProgram prog =
                compile(phaseModule(ph), opts, nullptr, &ir);
            MemImage img = MemImage::build(ir, sup.widthBits());
            Trace trace;
            executeMachine(prog, img, 1ULL << 30, &trace);
            {
                Tracer::Scope sp(tr, "migration.translate");
                MachineProgram down =
                    downgradeProgram(prog, core, img.stackBase);
                Trace narrow = downgradeWidthTrace(trace);
                sink += double(down.codeBytes() + narrow.ops.size());
            }
            {
                CoreConfig cc{sup, MicroArchConfig::byId(ph)};
                Tracer::Scope sp(tr, "uarch.live_sim");
                sink += double(simulateCore(cc, trace, simUopBudget(),
                                            simWarmupUops())
                                   .cycles);
            }
            attempted++;
        }
    }
    j.num("migration.translate_s", tr.seconds("migration.translate"));
    j.num("uarch.live_sim_s", tr.seconds("uarch.live_sim"));

    // Slab store: append every slab to a fresh file, then load it.
    {
        std::string path = spansPath + ".store";
        uint32_t vals = uint32_t(DesignPoint::kUarchCount) *
                        uint32_t(phaseCount()) * 4;
        uint64_t key = Campaign::budgetKeyFor(simUopBudget(),
                                              simWarmupUops());
        {
            SlabStore st(path, key, uint32_t(phaseCount()), vals,
                         Campaign::kSlabs, false);
            for (int s = 0; s < Campaign::kSlabs; s++) {
                std::vector<PhasePerf> v = camp.slabPerf(s);
                Tracer::Scope sp(tr, "explore.store_append");
                failed += !st.append(
                    s, reinterpret_cast<const float *>(v.data()),
                    v.size() * 4);
                attempted++;
            }
        }
        FILE *f = std::fopen(path.c_str(), "rb");
        long bytes = 0;
        if (f) {
            std::fseek(f, 0, SEEK_END);
            bytes = std::ftell(f);
            std::fclose(f);
        }
        std::vector<double> loads;
        for (int k = 0; k < 5; k++) {
            int64_t t0 = nowNs();
            SlabStore st(path, key, uint32_t(phaseCount()), vals,
                         Campaign::kSlabs, true);
            size_t got = st.poll().size();
            loads.push_back(sinceS(t0));
            attempted++;
            failed += got != size_t(Campaign::kSlabs);
        }
        std::sort(loads.begin(), loads.end());
        std::remove(path.c_str());
        j.num("explore.store_append_s",
              tr.seconds("explore.store_append"));
        j.num("explore.store_bytes", double(bytes));
        j.num("explore.store_load_s", loads[loads.size() / 2]);
    }

    // Search and schedule, as the figure benches call them.
    {
        std::vector<SearchResult> found;
        const Family fams[] = {Family::SingleIsaHetero,
                               Family::CompositeXized,
                               Family::CompositeFull};
        for (Family f : fams) {
            Tracer::Scope sp(tr, "explore.search");
            Budget b;
            b.powerW = 40;
            found.push_back(searchDesign(f, Objective::MpThroughput, b,
                                         seed));
        }
        for (const SearchResult &r : found) {
            for (const auto &apps : allWorkloads()) {
                Tracer::Scope sp(tr, "explore.schedule");
                sink += runMultiprog(r.design, apps,
                                     Objective::MpThroughput)
                            .throughput;
            }
            for (int b = 0; b < 8; b++) {
                Tracer::Scope sp(tr, "explore.schedule");
                sink += runSingleThread(r.design, b, Objective::StPerf)
                            .time;
            }
        }
        attempted += tr.count("explore.search") +
                     tr.count("explore.schedule");
        j.num("explore.search_s", tr.seconds("explore.search"));
        j.num("explore.search_calls", tr.count("explore.search"));
        j.num("explore.schedule_s", tr.seconds("explore.schedule"));
        j.num("explore.schedule_calls", tr.count("explore.schedule"));

        int64_t t0 = nowNs();
        double keys = 0;
        for (int row = 0; row < DesignPoint::kTotalRows; row++) {
            DesignPoint dp = DesignPoint::fromRow(row);
            for (int ph = 0; ph < phaseCount(); ph++, keys++)
                sink += camp.at(dp, ph).timePerRun;
        }
        j.num("explore.campaign_at_ns", double(nowNs() - t0) / keys);
    }

    // Service: codecs, handler, executor, direct worker, router.
    {
        Oracle oracle;
        Pcg32 rng(seed, 99);
        std::vector<Request> mix;
        for (int i = 0; i < 4000; i++)
            mix.push_back(drawRequest(rng));
        // Distinct Eval keys: no cache on any path can answer them.
        std::vector<Request> evals;
        for (uint32_t k = 0; evals.size() < 3000; k++) {
            uint32_t key =
                uint32_t((uint64_t(k) * 2654435761u + seed) %
                         uint64_t(DesignPoint::kTotalRows *
                                  phaseCount()));
            evals.push_back(Request::evalPoint(
                DesignPoint::fromRow(int(key) / phaseCount()),
                int(key) % phaseCount()));
        }

        int64_t t0 = nowNs();
        for (const Request &r : mix) {
            std::vector<uint8_t> env = encodeRequestEnvelope(r, 0);
            Request back;
            uint32_t dl;
            std::string err;
            failed += !decodeRequestEnvelope(env, &back, &dl, &err) ||
                      back.fingerprint() != r.fingerprint();
        }
        j.num("service.request_codec_ns",
              double(nowNs() - t0) / double(mix.size()));

        std::vector<uint8_t> body = oracle.body(Request::slabPerf(20));
        t0 = nowNs();
        for (int i = 0; i < 200; i++) {
            std::vector<uint8_t> wire =
                encodeFrame(FrameKind::Response, body);
            size_t pos = 0;
            Frame fr;
            std::string err;
            failed += decodeFrame(wire.data(), wire.size(), &pos, &fr,
                                  &err) != FrameDecode::Ok ||
                      fr.payload != body;
        }
        j.num("service.frame_codec_ns_per_kib",
              double(nowNs() - t0) / 200.0 /
                  (double(body.size()) / 1024.0));

        std::vector<PhasePerf> cells = camp.slabPerf(20);
        t0 = nowNs();
        for (int i = 0; i < 200; i++) {
            ByteWriter w;
            encodeSlabPerf(w, cells);
            std::vector<uint8_t> b = w.take();
            ByteReader rd(b);
            std::vector<PhasePerf> back;
            failed += !decodeSlabPerf(rd, &back) ||
                      back.size() != cells.size();
        }
        j.num("service.slab_body_codec_us",
              double(nowNs() - t0) * 1e-3 / 200.0);
        attempted += double(mix.size()) + 400;

        // The same distinct-key sequence through each path.
        Sender handler = [&](const Request &r, Response *out) {
            out->status = Status::Ok;
            out->body = oracle.body(r);
            return true;
        };
        Executor::Options eo;
        eo.cacheEntries = 0;
        Executor ex(eo);
        Sender viaExec = [&](const Request &r, Response *out) {
            *out = ex.call(r);
            return true;
        };
        Client dc, rc;
        std::string err;
        bool up = dc.connect(direct, &err) && rc.connect(routed, &err);
        Sender viaDirect = [&](const Request &r, Response *out) {
            return dc.call(r, out, 0, nullptr);
        };
        Sender viaRouter = [&](const Request &r, Response *out) {
            return rc.call(r, out, 0, nullptr);
        };
        if (!up) {
            std::fprintf(stderr, "pb_driver: %s\n", err.c_str());
            failed += 1;
            attempted += 1;
        } else {
            std::vector<Request> warmup(evals.begin(),
                                        evals.begin() + 200);
            for (const Sender *s :
                 {&handler, &viaExec, &viaDirect, &viaRouter})
                sendAll(nullptr, "", warmup, *s, oracle, sink);
            double hUs = sendAll(&tr, "service.handler", evals,
                                 handler, oracle, failed);
            double eUs = sendAll(&tr, "service.executor", evals,
                                 viaExec, oracle, failed);
            double dUs = sendAll(&tr, "service.direct", evals,
                                 viaDirect, oracle, failed);
            double rUs = sendAll(&tr, "service.routed", evals,
                                 viaRouter, oracle, failed);
            // Tracing overhead: the direct path untraced and traced
            // in turn, median of the per-pair ratios.
            std::vector<double> ratios;
            for (int k = 0; k < 3; k++) {
                double plain = sendAll(nullptr, "", evals, viaDirect,
                                       oracle, failed);
                ratios.push_back(sendAll(&tr, "service.direct", evals,
                                         viaDirect, oracle, failed) /
                                 plain);
            }
            std::sort(ratios.begin(), ratios.end());
            attempted += 10.0 * double(evals.size());
            j.num("service.handler_us", hUs);
            j.num("service.executor_us", eUs - hUs);
            j.num("service.server_rtt_us", dUs - eUs);
            j.num("service.router_hop_us", rUs - dUs);
            j.num("trace.overhead_share", ratios[1] - 1.0);

            // Cache shares of the serve mix.
            StatsSnap before, after;
            dc.stats(&before);
            sendAll(nullptr, "", mix, viaDirect, oracle, failed);
            dc.stats(&after);
            auto served = [](const StatsSnap &s) {
                return double(s.totalRequests() -
                              s.ep[size_t(ReqType::Stats)].requests);
            };
            j.num("service.wire_cache_hit_share",
                  double(after.totalCacheHits() -
                         before.totalCacheHits()) /
                      (served(after) - served(before)));
            Executor cached{Executor::Options()};
            for (const Request &r : mix)
                failed += !checkResponse(oracle, r, true,
                                         cached.call(r));
            StatsSnap es = cached.snapshot();
            j.num("service.executor_cache_hit_share",
                  double(es.totalCacheHits()) /
                      double(es.totalRequests()));
            attempted += 2.0 * double(mix.size());
        }
    }

    tr.write(spansPath);
    j.num("attempted", attempted);
    j.num("failed", failed);
    j.num("sink", sink);
    j.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "host")
        return cmdHost();
    if (cmd == "campaign" && argc == 3)
        return cmdCampaign(!std::strcmp(argv[2], "--setup-only"),
                           std::strtoull(argv[2], nullptr, 10));
    if (cmd == "probe" && argc >= 4)
        return cmdProbe({argv + 2, argv + argc - 1}, argv[argc - 1]);
    if (cmd == "ready")
        return cmdReady();
    if (cmd == "load" && argc == 6)
        return cmdLoad(argv[2], std::atoi(argv[3]), std::atof(argv[4]),
                       std::strtoull(argv[5], nullptr, 10));
    if (cmd == "stages" && argc == 3)
        return cmdStages(argv[2]);
    if (cmd == "layers" && argc == 6)
        return cmdLayers(argv[2], argv[3],
                         std::strtoull(argv[4], nullptr, 10), argv[5]);
    std::fprintf(stderr,
                 "usage: pb_driver host | campaign SEED|--setup-only | "
                 "ready | probe WORKER... ROUTER | "
                 "load ADDR CONNS SECONDS SEED | "
                 "stages SPANS_FILE | "
                 "layers DIRECT ROUTED SEED SPANS_FILE\n");
    return 2;
}
