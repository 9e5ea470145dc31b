#include "uarch/batch.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "uarch/engine.hh"

// The AVX-512 lane is x86-only by construction; every other host,
// and every walk whose stamps might not fit 32 bits, runs the scalar
// lane.
#if defined(__x86_64__) && defined(__GNUC__)
#define CISA_AVX512_LANE 1
#include <immintrin.h>
#else
#define CISA_AVX512_LANE 0
#endif

namespace cisa
{

namespace
{

using namespace engine_detail;

/**
 * The walk-level (cell-independent) accounting: one stats lane per
 * present (OoO, uop-cache, fusion) combo plus the per-uop tally,
 * snapshotted at the warm-up crossing.
 */
struct WalkStats
{
    PerfStats comboSt[8];
    PerfStats comboWarm[8];
    uint8_t comboKeys[8];
    int nCombos = 0;
    PerfStats tally, tallyWarm;
};

/**
 * One pass over the packed trace and the structural stream, in tiles
 * of up to kTileSteps decoded steps. Decoding — the packed-trace
 * reads, the stream cursor consumption, the combo stats and uop
 * tally — happens exactly once per step here regardless of how many
 * cells ride the walk; @p runTile is invoked per tile as
 * runTile(tile, len) to advance every cell's cycle state through it.
 */
template <typename RunTile>
void
walkTrace(const ReplayTrace &packed, const StructuralStream &stream,
          uint64_t timed_uops, uint64_t warmup_uops, WalkStats &ws,
          RunTile &&runTile)
{
    constexpr size_t kTileSteps = 128;
    std::vector<SharedStep> tile(kTileSteps);

    const size_t nsteps = packed.size();
    const uint64_t total_uops = warmup_uops + timed_uops;
    size_t idx = 0;
    size_t step = 0, ifetch_cur = 0, dload_cur = 0, fwd_cur = 0;
    size_t sb_head = 0;
    uint64_t done_uops = 0;
    bool warm_taken = warmup_uops == 0;
    bool first = true;

    while (done_uops < total_uops) {
        size_t len = 0;
        while (len < kTileSteps && done_uops < total_uops) {
            SharedStep &s = tile[len];
            s = SharedStep{};
            s.bits = packed.bits[idx];
            if (first) {
                // The live engine has no previous op on step one.
                s.bits &= uint16_t(~kOpFusableBranch);
                first = false;
            }
            s.len = packed.len[idx];
            s.uops = packed.uops[idx];
            uint32_t ub = packed.uopBegin[idx];
            s.xu = packed.xuops.data() + ub;
            s.nxu = int(packed.uopBegin[idx + 1] - ub);
            s.memSlots = memSlotsOf(s.bits);
            uint8_t ev = stream.ev[step++];
            if (ev & kEvIFetch) {
                s.flat =
                    (ev & kEvIFetchMiss)
                        ? 1 + int(stream.ifetchExtra[ifetch_cur++])
                        : 1;
            }
            s.evUcHit = (ev & kEvUcHit) != 0;
            if (ev & kEvFwd)
                s.fwdMask = stream.fwdMask[fwd_cur++];
            if (ev & kEvDLoad)
                s.loadLat = stream.dloadExtra[dload_cur++];
            s.mispredict = (ev & kEvMispredict) != 0;
            s.btbMiss = (ev & kEvBtbMiss) != 0;

            for (int c = 0; c < ws.nCombos; c++) {
                uint8_t key = ws.comboKeys[c];
                statsStep(ws.comboSt[key], key, s);
            }
            tallyUops(ws.tally, s);

            s.sbSlot = uint8_t(sb_head);
            if (s.bits & kOpWritesMem)
                sb_head = sb_head + 1 == kSbSize ? 0 : sb_head + 1;

            done_uops += s.uops;
            idx = idx + 1 == nsteps ? 0 : idx + 1;
            if (!warm_taken && done_uops >= warmup_uops) {
                warm_taken = true;
                std::copy(ws.comboSt, ws.comboSt + 8, ws.comboWarm);
                ws.tallyWarm = ws.tally;
                s.warmEdge = true;
            }
            len++;
        }

        runTile(tile.data(), len);
    }

    // The stream must have been generated with the same budgets: the
    // walk must consume it exactly.
    panic_if(step != stream.ev.size() ||
                 ifetch_cur != stream.ifetchExtra.size() ||
                 dload_cur != stream.dloadExtra.size() ||
                 fwd_cur != stream.fwdMask.size(),
             "structural stream not fully consumed: budget mismatch");
}

/** Compose one cell's PerfResult from the walk-level stats plus the
 * cell's final and warm cycle counts. */
PerfResult
composeCell(uint8_t key, uint64_t cyc, uint64_t warm_cyc,
            const WalkStats &ws, const StructuralStream &stream,
            uint64_t warmup_uops)
{
    PerfStats fin = ws.comboSt[key];
    addTally(fin, ws.tally);
    fin.cycles = cyc;
    setMem(fin, stream.fin);

    PerfStats warm;
    if (warmup_uops > 0) {
        warm = ws.comboWarm[key];
        addTally(warm, ws.tallyWarm);
        warm.cycles = warm_cyc;
        setMem(warm, stream.warm);
    }
    return finishResult(fin, warm);
}

/**
 * Run cells[order[0..n)] (out-of-order cells first, n_ooo of them)
 * through one walk on lane type L: cells are packed kLanes to a lane
 * group, each group holding one out-of-order class.
 */
template <class L>
std::vector<PerfResult>
walkLanes(const CoreConfig *cells, const std::vector<size_t> &order,
          size_t n_ooo, const ReplayTrace &packed,
          const StructuralStream &stream, uint64_t timed_uops,
          uint64_t warmup_uops)
{
    const size_t n = order.size();
    std::vector<uint8_t> combo_key(n);
    WalkStats ws;
    bool seen[8] = {};
    for (size_t slot = 0; slot < n; slot++) {
        uint8_t key = comboKey(cells[order[slot]].uarch);
        combo_key[slot] = key;
        if (!seen[key]) {
            seen[key] = true;
            ws.comboKeys[ws.nCombos++] = key;
        }
    }

    constexpr size_t kL = size_t(L::kLanes);
    std::vector<LaneCells<L>> groups((n_ooo + kL - 1) / kL +
                                     (n - n_ooo + kL - 1) / kL);
    std::vector<size_t> begin(groups.size());
    size_t gi = 0;
    for (auto [b, e] : {std::pair{size_t(0), n_ooo},
                        std::pair{n_ooo, n}}) {
        for (; b < e; b += kL, gi++) {
            begin[gi] = b;
            initLanes(groups[gi], cells, order.data() + b,
                      std::min(kL, e - b));
        }
    }

    walkTrace(packed, stream, timed_uops, warmup_uops, ws,
              [&](const SharedStep *tile, size_t len) {
                  for (LaneCells<L> &g : groups) {
                      if (g.ooo)
                          stepLanes<L, true>(g, tile, len);
                      else
                          stepLanes<L, false>(g, tile, len);
                  }
              });

    std::vector<PerfResult> out(n);
    for (size_t g = 0; g < groups.size(); g++) {
        for (size_t l = 0; l < groups[g].nReal; l++) {
            size_t slot = begin[g] + l;
            out[order[slot]] = composeCell(
                combo_key[slot], L::get(groups[g].cycles, int(l)),
                L::get(groups[g].warmCycles, int(l)), ws, stream,
                warmup_uops);
        }
    }
    return out;
}

/**
 * Whether every cycle stamp of the walk provably stays below 2^31,
 * so the 32-bit AVX-512 lane computes what the 64-bit scalar lane
 * would. Every stamp a step produces is bounded by (max stamp
 * before the step) + A, where the per-step advance A covers the
 * worst case of every stage: redirect refill + I-fetch stall + fetch
 * overflow (+2 btb) reach at most maxIfetchExtra + 6 past the old
 * max; dispatch adds a fixed latency (8) + 2 overflow bumps; the uop
 * chain grows by sum(lat) + loads * dload at most (issue never
 * exceeds the running max, each complete adds its latency); commit
 * adds 2. So A <= maxStepLatSum + maxStepLoads * maxDloadExtra +
 * maxIfetchExtra + 32 (generous slack), and with every step
 * consuming at least one uop (ReplayTrace::build panics otherwise),
 * steps <= total uops. Stamps start at 1.
 */
bool
stampsFit32(const ReplayTrace &packed, const StructuralStream &stream,
            uint64_t total_uops)
{
    const uint64_t advance =
        uint64_t(packed.maxStepLatSum) +
        uint64_t(packed.maxStepLoads) * stream.maxDloadExtra +
        stream.maxIfetchExtra + 32;
    return total_uops <= (uint64_t(1) << 31) &&
           advance <= (uint64_t(1) << 20) &&
           1 + total_uops * advance <= (uint64_t(1) << 31);
}

#if CISA_AVX512_LANE

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512dq,avx512vl")
// GCC 12 flags the undefined pass-through operands inside the
// maskz/mask intrinsic wrappers themselves (a known false positive);
// every source operand of the step is initialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/**
 * The AVX-512 lane: 16 cells on 32-bit stamps, one per lane (see
 * ScalarLane for the interface). Stamps compare unsigned, counts
 * signed. The scoreboards are aligned row loads and stores; only
 * the ring windows need gather/scatter, with per-lane disjoint
 * regions so indices never collide. Units a lane lacks hold
 * UINT32_MAX, which the strict-less earliest scan never picks while
 * real stamps stay under 2^31.
 */
struct Avx512Lane
{
    static constexpr int kLanes = 16;
    using U = __m512i;
    using S = __m512i;
    using M = __mmask16;
    struct alignas(64) Row
    {
        uint32_t v[16];
    };
    using URow = Row;
    using SRow = Row;
    using Stamp = uint32_t;
    static constexpr M kNone = 0;
    static constexpr M kAll = 0xFFFF;
    static constexpr uint64_t kNoUnit = UINT32_MAX;

    static U ldU(const Row &r) { return _mm512_load_si512(r.v); }
    static void stU(Row &r, U v) { _mm512_store_si512(r.v, v); }
    static S ldS(const Row &r) { return _mm512_load_si512(r.v); }
    static void stS(Row &r, S v) { _mm512_store_si512(r.v, v); }
    static U splatU(uint64_t v) { return _mm512_set1_epi32(int(v)); }
    static S splatS(int v) { return _mm512_set1_epi32(v); }

    static U addU(U a, uint64_t k) { return _mm512_add_epi32(a, splatU(k)); }
    static U maxU(U a, U b) { return _mm512_max_epu32(a, b); }
    static M ltU(U a, U b) { return _mm512_cmplt_epu32_mask(a, b); }
    static M gtU(U a, U b) { return _mm512_cmpgt_epu32_mask(a, b); }
    static U selU(M m, U a, U b) { return _mm512_mask_mov_epi32(b, m, a); }

    static S addS(S a, S b) { return _mm512_add_epi32(a, b); }
    static S subS(S a, S b) { return _mm512_sub_epi32(a, b); }
    static S maxS(S a, S b) { return _mm512_max_epi32(a, b); }
    static M gtS(S a, S b) { return _mm512_cmpgt_epi32_mask(a, b); }
    static M
    ltZero(S a)
    {
        return _mm512_cmplt_epi32_mask(a, _mm512_setzero_si512());
    }
    static S selS(M m, S a, S b) { return _mm512_mask_mov_epi32(b, m, a); }
    static S
    wrapInc(S h, S n)
    {
        S inc = _mm512_add_epi32(h, _mm512_set1_epi32(1));
        return _mm512_maskz_mov_epi32(_mm512_cmpneq_epi32_mask(inc, n),
                                      inc);
    }

    static M mor(M a, M b) { return M(a | b); }
    static bool any(M m) { return m != 0; }

    static U
    gather(const Stamp *ring, S idx, M m)
    {
        return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m,
                                           idx, ring, 4);
    }

    static void
    scatter(Stamp *ring, S idx, M m, U v)
    {
        _mm512_mask_i32scatter_epi32(ring, m, idx, v, 4);
    }

    static void
    storeUnit(Row *pool, int n, S unit, U v)
    {
        for (int i = 0; i < n; i++) {
            M sel = _mm512_cmpeq_epi32_mask(unit, _mm512_set1_epi32(i));
            _mm512_mask_store_epi32(pool[i].v, sel, v);
        }
    }

    static void set(Row &r, int l, uint64_t v) { r.v[l] = uint32_t(v); }
    static void setBit(M &m, int l) { m = M(m | (1u << l)); }
    static uint64_t get(const Row &r, int l) { return r.v[l]; }
};

} // namespace

// Instantiate inside the target region: an implicit instantiation at
// a call site outside it would lose the AVX-512 codegen options.
template void engine_detail::stepLanes<Avx512Lane, true>(
    engine_detail::LaneCells<Avx512Lane> &,
    const engine_detail::SharedStep *, size_t);
template void engine_detail::stepLanes<Avx512Lane, false>(
    engine_detail::LaneCells<Avx512Lane> &,
    const engine_detail::SharedStep *, size_t);

namespace
{

#pragma GCC diagnostic pop
#pragma GCC pop_options

#endif // CISA_AVX512_LANE

/** Shared checks of both entry points, then one walk. */
std::vector<PerfResult>
walkCells(const CoreConfig *cells, size_t ncells,
          const ReplayTrace &packed, const StructuralStream &stream,
          uint64_t timed_uops, uint64_t warmup_uops)
{
    panic_if(!packed.complete &&
                 warmup_uops + timed_uops > packed.maxSteps,
             "packed trace built for %llu steps, need up to %llu",
             (unsigned long long)packed.maxSteps,
             (unsigned long long)(warmup_uops + timed_uops));

    // Out-of-order cells first: lane groups then never mix classes.
    std::vector<size_t> order(ncells);
    std::iota(order.begin(), order.end(), 0);
    auto mid = std::stable_partition(
        order.begin(), order.end(),
        [&](size_t i) { return cells[i].uarch.outOfOrder; });
    const size_t n_ooo = size_t(mid - order.begin());

#if CISA_AVX512_LANE
    if (batchSimdEnabled() &&
        stampsFit32(packed, stream, warmup_uops + timed_uops)) {
        return walkLanes<Avx512Lane>(cells, order, n_ooo, packed,
                                     stream, timed_uops, warmup_uops);
    }
#endif
    return walkLanes<ScalarLane>(cells, order, n_ooo, packed, stream,
                                 timed_uops, warmup_uops);
}

} // namespace

bool
batchSimdEnabled()
{
#if CISA_AVX512_LANE
    // F for the 32-bit lanes and gathers, BW/DQ/VL for the mask
    // plumbing GCC emits around them.
    static const bool ok = __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512bw") &&
                           __builtin_cpu_supports("avx512dq") &&
                           __builtin_cpu_supports("avx512vl");
    return ok;
#else
    return false;
#endif
}

std::vector<PerfResult>
simulateCoreBatch(const CoreConfig *cells, size_t ncells,
                  const ReplayTrace &packed,
                  const StructuralStream &stream,
                  uint64_t timed_uops, uint64_t warmup_uops,
                  const RunEnv &env)
{
    panic_if(ncells == 0, "empty batch");
    panic_if(packed.size() == 0, "empty packed trace");
    for (size_t i = 0; i < ncells; i++) {
        panic_if(stream.key !=
                     structuralFingerprint(cells[i].uarch, env),
                 "batched cell %zu lies outside the stream's "
                 "structural slice", i);
    }
    return walkCells(cells, ncells, packed, stream, timed_uops,
                     warmup_uops);
}

PerfResult
simulateCoreReplay(const CoreConfig &cfg, const ReplayTrace &packed,
                   const StructuralStream &stream,
                   uint64_t timed_uops, uint64_t warmup_uops,
                   const RunEnv &env)
{
    panic_if(packed.size() == 0, "empty packed trace");
    panic_if(stream.key != structuralFingerprint(cfg.uarch, env),
             "structural stream was built for a different "
             "(config slice, environment)");
    return walkCells(&cfg, 1, packed, stream, timed_uops,
                     warmup_uops)[0];
}

} // namespace cisa
