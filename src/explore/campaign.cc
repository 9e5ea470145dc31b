#include "explore/campaign.hh"

#include <algorithm>
#include <chrono>
#include <type_traits>

#include <cstring>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "compiler/interp.hh"
#include "migration/translate.hh"
#include "power/energy.hh"
#include "uarch/batch.hh"
#include "uarch/core.hh"
#include "uarch/replay.hh"
#include "workloads/synth.hh"

namespace cisa
{

namespace
{
// A slab record is the raw f32 image of its PhasePerf block.
static_assert(sizeof(PhasePerf) == 4 * sizeof(float),
              "slab store assumes PhasePerf is exactly four floats");
static_assert(std::is_trivially_copyable_v<PhasePerf>,
              "slab store memcpys PhasePerf blocks");

std::atomic<Campaign *> g_campaign{nullptr};
} // namespace

Campaign &
Campaign::get()
{
    static Campaign c;
    g_campaign.store(&c, std::memory_order_release);
    return c;
}

Campaign *
Campaign::maybeGet()
{
    return g_campaign.load(std::memory_order_acquire);
}

uint64_t
Campaign::budgetKeyFor(uint64_t simUops, uint64_t warmupUops)
{
    uint64_t h = fnv1a("cisa-dse-budget");
    h = hashCombine(h, simUops);
    h = hashCombine(h, warmupUops);
    // Results depend on the compile pipeline as much as on the
    // budget: slabs built at different opt levels (or with a pass
    // override) must never alias in the store.
    return hashCombine(h, CompileOptions::fromEnv().pipelineKey());
}

Campaign::Campaign()
    : store_(dseCachePath(),
             budgetKeyFor(simUopBudget(), simWarmupUops()),
             uint32_t(phaseCount()),
             uint32_t(DesignPoint::kUarchCount) *
                 uint32_t(phaseCount()) * 4,
             kSlabs, dseCacheReadonly())
{
    size_t n = size_t(DesignPoint::kTotalRows) *
               size_t(phaseCount());
    table_.assign(n, {});
    adoptFromStore(-1);
    int ready = 0;
    for (int s = 0; s < kSlabs; s++)
        ready += slabReady(s);
    if (ready) {
        inform("loaded %d/%d DSE slabs from %s", ready, kSlabs,
               store_.path().c_str());
    }
    CompileOptions copts = CompileOptions::fromEnv();
    if (copts.optLevel != 1 || !copts.passOverride.empty()) {
        PipelineSpec spec =
            copts.passOverride.empty()
                ? PipelineSpec::forLevel(copts.optLevel, copts)
                : PipelineSpec::parse(copts.passOverride);
        inform("non-default compile pipeline (CISA_OPT=%d%s): %s",
               copts.optLevel,
               copts.passOverride.empty() ? "" : ", CISA_PASSES set",
               spec.str().c_str());
    }
}

int
Campaign::slabOf(const DesignPoint &dp)
{
    if (dp.vendor == VendorIsa::Composite)
        return dp.isaId;
    return 26 + (dp.row() - DesignPoint::kCompositeRows) /
                    DesignPoint::kUarchCount;
}

bool
Campaign::adoptFromStore(int owned)
{
    std::vector<SlabRec> recs = store_.poll();
    if (recs.empty())
        return false;
    size_t span = size_t(DesignPoint::kUarchCount) *
                  size_t(phaseCount());
    bool got = false;
    std::lock_guard<std::mutex> lk(mu_);
    for (const SlabRec &r : recs) {
        size_t s = size_t(r.slab);
        if (ready_[s].load(std::memory_order_relaxed)) {
            got |= r.slab == owned;
            continue;
        }
        if (computing_[s] && r.slab != owned)
            continue;
        std::memcpy(table_.data() + s * span, r.vals.data(),
                    span * sizeof(PhasePerf));
        ready_[s].store(true, std::memory_order_release);
        got |= r.slab == owned;
    }
    return got;
}

std::vector<PhasePerf>
Campaign::slabPerf(int slab, const CancelToken *cancel)
{
    ensureSlab(slab, cancel);
    size_t rows = size_t(DesignPoint::kUarchCount);
    size_t base = size_t(slab) * rows * size_t(phaseCount());
    return {table_.begin() + long(base),
            table_.begin() + long(base + rows * size_t(phaseCount()))};
}

const PhasePerf &
Campaign::at(const DesignPoint &dp, int phase)
{
    ensureSlab(slabOf(dp));
    return table_[size_t(dp.row()) * size_t(phaseCount()) +
                  size_t(phase)];
}

void
Campaign::ensureSlab(int slab, const CancelToken *cancel)
{
    panic_if(slab < 0 || slab >= kSlabs, "bad slab %d", slab);
    // Lock-free fast path: the release-store below pairs with this
    // acquire, so a ready slab's cells are safe to read unlocked.
    if (ready_[size_t(slab)].load(std::memory_order_acquire))
        return;

    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (ready_[size_t(slab)].load(std::memory_order_relaxed))
            return;
        if (!computing_[size_t(slab)])
            break;
        // Another thread is on it; wait rather than recompute. A
        // cancelled waiter gives up without disturbing that run.
        if (cancel) {
            checkCancel(cancel);
            cv_.wait_for(lk, std::chrono::milliseconds(20));
        } else {
            cv_.wait(lk);
        }
    }
    computing_[size_t(slab)] = true;
    lk.unlock();

    // Reload-before-compute: a peer process sharing this store may
    // have published the slab (or others) since our last look —
    // adopt instead of recomputing (cross-process coalescing).
    if (adoptFromStore(slab)) {
        lk.lock();
        computing_[size_t(slab)] = false;
        lk.unlock();
        cv_.notify_all();
        return;
    }

    std::vector<PhasePerf> cells;
    EngineHealth eh;
    try {
        cells = computeSlabPerf(slab, SlabEngine::Auto, cancel, &eh);
    } catch (...) {
        lk.lock();
        computing_[size_t(slab)] = false;
        cv_.notify_all();
        throw;
    }
    cellsBatched_.fetch_add(eh.cellsBatched,
                            std::memory_order_relaxed);
    cellsPerCell_.fetch_add(eh.cellsPerCell,
                            std::memory_order_relaxed);
    walksDone_.fetch_add(eh.walksDone, std::memory_order_relaxed);
    walksSaved_.fetch_add(eh.walksSaved, std::memory_order_relaxed);

    lk.lock();
    size_t base = size_t(slab) *
                  size_t(DesignPoint::kUarchCount) *
                  size_t(phaseCount());
    std::copy(cells.begin(), cells.end(),
              table_.begin() + long(base));
    computing_[size_t(slab)] = false;
    ready_[size_t(slab)].store(true, std::memory_order_release);
    lk.unlock();
    cv_.notify_all();

    // Persist outside the critical section: disk I/O (exclusive
    // flock + fsync) must not block waiters on other slabs. The
    // `cells` snapshot is this thread's own; the append is a single
    // framed record, so a crash mid-write at worst leaves a torn
    // tail the next load salvages around.
    store_.append(slab,
                  reinterpret_cast<const float *>(cells.data()),
                  cells.size() * 4);
}

std::vector<PhasePerf>
computeSlabPerf(int slab, SlabEngine engine,
                const CancelToken *cancel, EngineHealth *health)
{
    checkCancel(cancel);
    bool is_vendor = slab >= 26;
    VendorModel vm;
    FeatureSet fs;
    if (is_vendor) {
        VendorIsa v = slab == 26   ? VendorIsa::X86_64
                      : slab == 27 ? VendorIsa::AlphaLike
                                   : VendorIsa::ThumbLike;
        vm = VendorModel::vendor(v);
        fs = vm.features;
    } else {
        fs = FeatureSet::byId(slab);
        vm = VendorModel::composite(fs);
    }
    inform("campaign: computing slab %d (%s) ...", slab,
           vm.name().c_str());

    uint64_t timed = simUopBudget();
    uint64_t warm = simWarmupUops();
    const RunEnv solo{};
    const RunEnv mp{0.25, 1.30};
    size_t phases = size_t(phaseCount());

    // Live runs every cell on the live structural models (the test
    // oracle); Batch (Auto) replays memoized structural streams in
    // lockstep cell groups. Both produce byte-identical tables.
    const bool replay = engine != SlabEngine::Live;

    // Structural-slice dedup: one memoized stream per distinct (cache
    // slice + environment + predictor) fingerprint instead of one per
    // cell. The 180-config space collapses onto a handful of
    // structural slices (2 cache geometries x 3 predictors x 2
    // environments), so almost all per-cell cache/predictor work is
    // amortized away. Pure config arithmetic, so it runs before any
    // trace exists; both engines share the task layout it gives.
    uint64_t max_steps = warm + timed;
    struct StreamSlice
    {
        MicroArchConfig uarch;
        RunEnv env;
        int envIdx; ///< 0 = solo, 1 = contended
        uint64_t key;
    };
    std::vector<StreamSlice> slices;
    // Members of each slice: the uarch ids whose (uarch, env) cell
    // consumes its stream.
    std::vector<std::vector<int>> members;
    const RunEnv *envs[2] = {&solo, &mp};
    for (int u = 0; u < DesignPoint::kUarchCount; u++) {
        MicroArchConfig ua = MicroArchConfig::byId(u);
        for (int e = 0; e < 2; e++) {
            uint64_t key = structuralFingerprint(ua, *envs[e]);
            size_t si = 0;
            while (si < slices.size() && slices[si].key != key)
                si++;
            if (si == slices.size()) {
                slices.push_back({ua, *envs[e], e, key});
                members.emplace_back();
            }
            members[si].push_back(u);
        }
    }

    // Stage 1: compile and functionally execute each phase exactly
    // once; the trace is shared read-only by every simulation below.
    //
    // A cell only ever consumes the first (warm + timed) uops of a
    // trace — at least one uop per macro-op, so (warm + timed) + 1
    // stored ops bound every simulation below (+1 so the final
    // consumed op still has a real successor target). Every slab
    // therefore caps *recording* there while the run executes to
    // completion, only counting, for the per-run op count
    // (Trace::dyn.macroOps). Vendor slabs cap too: vendorAdjustTrace
    // rewrites each recorded op on its own, so the prefix it maps is
    // the prefix of the full adjusted trace, and the op count it
    // would have returned is dyn.macroOps.
    //
    // Replay preprocessing is folded into the same loop: as soon as
    // a phase's trace lands, this task packs it and fans its stream
    // builds out onto a TaskGroup, so stream construction for early
    // phases overlaps compilation of late ones instead of waiting
    // at a serial barrier. Declaration order matters: traces/packed/
    // streams precede the group, so an unwinding exception drains
    // the in-flight builds before their inputs and outputs die.
    uint64_t record_cap = warm + timed + 1;
    std::vector<Trace> traces(phases);
    std::vector<double> run_ops(phases, 0.0);
    std::vector<ReplayTrace> packed(replay ? phases : 0);
    std::vector<std::vector<StructuralStream>> streams(
        replay ? phases : 0,
        std::vector<StructuralStream>(slices.size()));
    TaskGroup streamTasks;
    parallelFor(phases, [&](uint64_t p) {
        checkCancel(cancel);
        int ph = int(p);
        const IrModule &mod = phaseModule(ph);
        CompileOptions opts = CompileOptions::fromEnv();
        opts.target = fs;
        IrModule ir;
        MachineProgram prog = compile(mod, opts, nullptr, &ir);
        MemImage img = MemImage::build(ir, fs.widthBits());
        Trace trace;
        ExecResult er = executeMachine(prog, img, 1ULL << 31, &trace,
                                       1ULL << 21, record_cap);
        panic_if(trace.truncated || er.ranOut,
                 "phase %d trace truncated; shrink targetDynOps", ph);
        if (is_vendor && vm.codeSizeFactor != 1.0)
            trace = vendorAdjustTrace(trace, vm.codeSizeFactor);
        run_ops[p] = double(trace.dyn.macroOps);
        traces[p] = std::move(trace);
        if (!replay)
            return;
        packed[p] = ReplayTrace::build(traces[p], max_steps);
        for (size_t si = 0; si < slices.size(); si++) {
            streamTasks.run([&, p, si] {
                checkCancel(cancel);
                CoreConfig scc{fs, slices[si].uarch};
                streams[p][si] = buildStructuralStream(
                    scc, slices[si].env, traces[p], packed[p],
                    timed, warm);
            });
        }
    });
    streamTasks.wait();

    // Stage 2: simulate every (uarch, phase, env) cell in (phase,
    // slice, chunk) tasks. Every member of a slice consumes the
    // identical stream, so on Batch one lockstep walk advances a
    // whole chunk (src/uarch/batch.hh); CISA_BATCH_WIDTH caps a
    // chunk so one giant group cannot serialize the pool. Live runs
    // the same tasks one cell at a time. Counters are advisory
    // (relaxed): each result slot is written by exactly one task.
    std::atomic<uint64_t> nBatched{0}, nPerCell{0}, nWalks{0},
        nSaved{0};
    struct SimTask
    {
        int ph, si;
        size_t begin, end; ///< range within members[si]
    };
    size_t bw = size_t(batchWidth());
    std::vector<SimTask> tasks;
    for (int ph = 0; ph < int(phases); ph++) {
        for (size_t si = 0; si < slices.size(); si++) {
            for (size_t b = 0; b < members[si].size(); b += bw) {
                tasks.push_back(
                    {ph, int(si), b,
                     std::min(members[si].size(), b + bw)});
            }
        }
    }
    auto coreOf = [&](int u) {
        DesignPoint dp = is_vendor
                             ? DesignPoint::vendorPoint(vm.kind, u)
                             : DesignPoint::composite(slab, u);
        return dp.coreConfig();
    };

    // Per-sim results, indexed (u*phases+ph)*2+env; a second pass
    // folds them into PhasePerf so cells[] keeps its one-writer rule.
    std::vector<PerfResult> sims(size_t(DesignPoint::kUarchCount) *
                                 phases * 2);
    parallelFor(tasks.size(), [&](uint64_t t) {
        checkCancel(cancel);
        const SimTask &st = tasks[t];
        const StreamSlice &sl = slices[size_t(st.si)];
        const std::vector<int> &mem = members[size_t(st.si)];
        size_t g = st.end - st.begin;
        std::vector<CoreConfig> ccs;
        ccs.reserve(g);
        for (size_t i = st.begin; i < st.end; i++)
            ccs.push_back(coreOf(mem[i]));
        auto slot = [&](size_t i) {
            return (size_t(mem[st.begin + i]) * phases +
                    size_t(st.ph)) *
                       2 +
                   size_t(sl.envIdx);
        };
        if (!replay) {
            for (size_t i = 0; i < g; i++) {
                sims[slot(i)] = simulateCore(
                    ccs[i], traces[size_t(st.ph)], timed, warm,
                    sl.env);
            }
            nPerCell.fetch_add(g, std::memory_order_relaxed);
            nWalks.fetch_add(g, std::memory_order_relaxed);
            return;
        }
        const ReplayTrace &pk = packed[size_t(st.ph)];
        const StructuralStream &ss =
            streams[size_t(st.ph)][size_t(st.si)];
        if (g == 1) {
            sims[slot(0)] = simulateCoreReplay(ccs[0], pk, ss, timed,
                                               warm, sl.env);
            nPerCell.fetch_add(1, std::memory_order_relaxed);
            nWalks.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        std::vector<PerfResult> rs = simulateCoreBatch(
            ccs.data(), g, pk, ss, timed, warm, sl.env);
        for (size_t i = 0; i < g; i++)
            sims[slot(i)] = rs[i];
        nBatched.fetch_add(g, std::memory_order_relaxed);
        nWalks.fetch_add(1, std::memory_order_relaxed);
        nSaved.fetch_add(g - 1, std::memory_order_relaxed);
    });

    // Fold: seconds and joules per program run, solo and contended.
    std::vector<PhasePerf> cells(size_t(DesignPoint::kUarchCount) *
                                 phases);
    parallelFor(cells.size(), [&](uint64_t k) {
        checkCancel(cancel);
        int u = int(k / phases);
        int ph = int(k % phases);
        CoreConfig cc = coreOf(u);
        auto fold = [&](const PerfResult &r, float &time,
                        float &energy) {
            double scale =
                run_ops[size_t(ph)] / double(r.stats.macroOps);
            time = float(secondsOf(r.cycles) * scale);
            energy = float(
                coreEnergy(cc, r.stats, is_vendor ? &vm : nullptr)
                    .total() *
                scale);
        };
        PhasePerf out;
        fold(sims[k * 2 + 0], out.timePerRun, out.energyPerRun);
        fold(sims[k * 2 + 1], out.timePerRunMp, out.energyPerRunMp);
        cells[k] = out;
    });

    if (health) {
        health->cellsBatched +=
            nBatched.load(std::memory_order_relaxed);
        health->cellsPerCell +=
            nPerCell.load(std::memory_order_relaxed);
        health->walksDone += nWalks.load(std::memory_order_relaxed);
        health->walksSaved += nSaved.load(std::memory_order_relaxed);
    }
    return cells;
}

} // namespace cisa
