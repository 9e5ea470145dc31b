/**
 * @file
 * Internal shared implementation of the cycle-level core model.
 *
 * The timing step is defined once, in three parts:
 *
 *  - SharedStep, the per-step input record: one op's packed fields
 *    plus its structural outcomes (I-fetch latency, uop-cache hit,
 *    store-forward mask, load latency, mispredict, BTB miss).
 *  - statsStep and tallyUops, the per-step activity counters.
 *  - stepLanes, the cycle step (fetch -> dispatch -> execute ->
 *    branch -> commit), a template over a lane type. ScalarLane
 *    advances one cell on 64-bit stamps; the AVX-512 lane in
 *    batch.cc advances 16 cells on 32-bit stamps.
 *
 * Two callers fill the input record. simulateCore (core.cc) asks
 * the live structural models (LiveStructural: caches, predictors,
 * uop cache, BTB/RAS, store-buffer addresses) and advances one
 * scalar lane a step at a time. The batched walk (batch.cc) reads
 * the outcomes from a memoized StructuralStream and advances whole
 * cell groups a tile of steps at a time. Both run the same step and
 * the same counters, so their PerfResults agree by construction;
 * tests compare them and pin them anyway.
 *
 * This header is internal to cisa_uarch; it is not part of the
 * public uarch API.
 */

#ifndef CISA_UARCH_ENGINE_HH
#define CISA_UARCH_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "uarch/bpred.hh"
#include "uarch/cache.hh"
#include "uarch/core.hh"
#include "uarch/replay.hh"
#include "uarch/uopcache.hh"

namespace cisa
{
namespace engine_detail
{

constexpr size_t kSbSize = 16;   ///< store-buffer entries
constexpr size_t kBtbSize = 512; ///< power of two (masked index)
constexpr size_t kRasSize = 16;
constexpr int kIldBytesPerCycle = 16;

/** Decode bandwidth in uops/cycle on the non-uop-cache path. */
inline int
decodeBandwidthFor(const CoreConfig &cfg)
{
    int bw = cfg.uarch.simpleDecoders;
    if (cfg.isa.complexity == Complexity::X86)
        bw += 4; // the 1:4 complex decoder + MSROM
    return bw;
}

/** Store-buffer coverage: the buffered store fully covers the load. */
inline bool
sbCovers(uint64_t sb_addr, uint8_t sb_size, uint64_t maddr,
         uint8_t msize)
{
    return maddr >= sb_addr && maddr + msize <= sb_addr + sb_size;
}

/**
 * The live structural models: the real cache hierarchy, predictors,
 * and address-matching state. simulateCore queries them step by
 * step; the structural-stream generator in replay.cc drives them
 * through the identical call sequence and records the outcomes.
 */
struct LiveStructural
{
    MemSystem mem;
    std::unique_ptr<BranchPredictor> bp;
    UopCache uc;
    uint64_t curLine = ~uint64_t(0);
    uint64_t btb[kBtbSize] = {};
    uint64_t ras[kRasSize] = {};
    size_t rasTop = 0;

    struct SbAddr
    {
        uint64_t addr = ~uint64_t(0);
        uint8_t size = 0;
    };
    SbAddr sb[kSbSize];

    LiveStructural(const CoreConfig &c, const RunEnv &env)
        : mem(c.uarch, env.l2Share, env.memContention),
          bp(BranchPredictor::create(c.uarch.bpred))
    {}

    /** A mispredict redirect refetches the current line. */
    void redirectFetch() { curLine = ~uint64_t(0); }

    /** @return -1 if still streaming the current fetch line, else
     * the I-side access latency. */
    int
    fetchAccess(const DynOp *op, uint64_t line)
    {
        if (line == curLine)
            return -1;
        curLine = line;
        return mem.fetchAccess(op->pc);
    }

    /** Uop-cache probe; fills on miss. @return hit */
    bool
    ucAccess(const DynOp *op)
    {
        bool hit = uc.lookup(op->pc);
        if (!hit)
            uc.fill(op->pc);
        return hit;
    }

    /** Bitmask of store-buffer slots whose store covers this load. */
    uint16_t
    sbMatch(const DynOp *op)
    {
        uint16_t m = 0;
        for (size_t j = 0; j < kSbSize; j++) {
            if (sbCovers(sb[j].addr, sb[j].size, op->maddr,
                         op->msize))
                m |= uint16_t(1u << j);
        }
        return m;
    }

    /** D-side load latency beyond the first cycle. */
    uint64_t
    dataLoad(const DynOp *op)
    {
        return uint64_t(mem.dataAccess(op->maddr, false)) - 1;
    }

    void dataStore(const DynOp *op) { mem.dataAccess(op->maddr, true); }

    void
    sbPush(const DynOp *op, size_t slot)
    {
        sb[slot] = {op->maddr, op->msize};
    }

    /** Predict + train the direction predictor. @return mispredict */
    bool
    branchAccess(const DynOp *op)
    {
        bool taken = op->taken();
        bool pred = bp->predict(op->pc);
        bp->update(op->pc, taken);
        return pred != taken;
    }

    /** Taken-target check: RAS for returns, BTB (allocating) for the
     * rest, with call push. @return target missed (+2 cycle bubble) */
    bool
    btbAccess(const DynOp *op)
    {
        if (op->flags & DynRet) {
            rasTop = rasTop == 0 ? kRasSize - 1 : rasTop - 1;
            return ras[rasTop] != op->target;
        }
        size_t slot = size_t(op->pc >> 1) & (kBtbSize - 1);
        bool miss = btb[slot] != op->target;
        if (miss)
            btb[slot] = op->target;
        if (op->flags & DynCall) {
            ras[rasTop] = op->pc + op->len;
            rasTop = rasTop + 1 == kRasSize ? 0 : rasTop + 1;
        }
        return miss;
    }

    void
    snapshotCounters(MemSnap &out) const
    {
        out.l1iAccesses = mem.l1i().accesses;
        out.l1iMisses = mem.l1i().misses;
        out.l1dAccesses = mem.l1d().accesses;
        out.l1dMisses = mem.l1d().misses;
        out.l2Accesses = mem.l2().accesses;
        out.l2Misses = mem.l2().misses;
        out.memAccesses = mem.memAccesses();
    }
};

/** The hierarchy counters of a snapshot, as PerfStats fields. */
inline void
setMem(PerfStats &st, const MemSnap &m)
{
    st.l1iAccesses = m.l1iAccesses;
    st.l1iMisses = m.l1iMisses;
    st.l1dAccesses = m.l1dAccesses;
    st.l1dMisses = m.l1dMisses;
    st.l2Accesses = m.l2Accesses;
    st.l2Misses = m.l2Misses;
    st.memAccesses = m.memAccesses;
}

/** Load-store-queue slots an op occupies. */
inline int
memSlotsOf(uint16_t bits)
{
    return ((bits & kOpReadsMem) ? 1 : 0) +
           ((bits & kOpWritesMem) ? 1 : 0) +
           (((bits & kOpPredFalse) && (bits & kOpHasMem)) ? 1 : 0);
}

/**
 * One step's inputs: the op's packed fields plus its structural
 * outcomes. Both callers fill one per step; every cell advanced
 * through the step reads the same record.
 */
struct SharedStep
{
    uint16_t bits = 0; ///< OpBit mask
    uint8_t len = 0;
    uint8_t uops = 1;
    const PackedUop *xu = nullptr;
    int nxu = 0;
    int memSlots = 0;     ///< memSlotsOf(bits)
    int flat = -1;        ///< I-side access latency; -1 if streaming
    bool evUcHit = false; ///< raw uop-cache hit event
    uint16_t fwdMask = 0; ///< covering store-buffer slots (0: none)
    uint64_t loadLat = 0; ///< hierarchy load latency beyond 1 cycle
    bool mispredict = false;
    bool btbMiss = false;
    /** Store-buffer slot a store writes: a walk-level value, since
     * every cell pushes on exactly the same steps. */
    uint8_t sbSlot = 0;
    bool warmEdge = false; ///< the step crosses the warm-up boundary
};

/** The three config bits the per-op counters depend on, as the
 * index statsStep takes: out-of-order 4, uop cache 2, fusion 1. */
inline uint8_t
comboKey(const MicroArchConfig &ua)
{
    return uint8_t((ua.outOfOrder ? 4 : 0) | (ua.uopCache ? 2 : 0) |
                   (ua.uopFusion ? 1 : 0));
}

/**
 * The per-op activity counters of one step. Every PerfStats counter
 * except `cycles` and the per-uop tally depends only on the step and
 * the @p combo bits (see comboKey), so the batched walk keeps one
 * PerfStats per combo instead of one per cell. The hierarchy fields
 * (l1i/l1d/l2/mem) are not counted here: both callers set them from
 * a MemSnap of the cache models (setMem).
 */
inline void
statsStep(PerfStats &st, uint8_t combo, const SharedStep &s)
{
    const bool ooo = combo & 4, uc = combo & 2, fus = combo & 1;
    bool uc_hit = false;
    if (uc) {
        st.uopCacheLookups++;
        uc_hit = s.evUcHit;
        if (uc_hit)
            st.uopCacheHits++;
    }
    bool fused_branch = fus && (s.bits & kOpFusableBranch);
    if (fused_branch)
        st.fusedMacroOps++;
    int uops = s.uops;
    int slot_uops = fused_branch ? 0 : uops;
    int window_slots = slot_uops;
    if (fus && (s.bits & kOpMicroFusable)) {
        window_slots = 1;
        st.fusedMicroOps++;
    }
    st.macroOps++;
    st.uops += uint64_t(uops);
    st.fetchBytes += s.len;
    if (!uc_hit) {
        st.ildInstrs++;
        st.decodedUops += uint64_t(uops);
        if (uops > 1)
            st.msromUops += uint64_t(uops);
    }
    if ((s.bits & kOpPredicated) && (s.bits & kOpPredFalse))
        st.predFalseUops += uint64_t(uops);
    if (ooo) {
        st.renamedUops += uint64_t(slot_uops);
        st.iqWrites += uint64_t(window_slots);
    }
    st.robWrites += uint64_t(window_slots);
    if (s.bits & kOpReadsMem) {
        if (s.fwdMask)
            st.sbForwards++;
        st.lsqOps++;
    }
    if (s.bits & kOpWritesMem)
        st.lsqOps++;
    if (s.bits & kOpBranch) {
        if (s.bits & kOpCondBranch) {
            st.bpLookups++;
            if (s.mispredict)
                st.bpMispredicts++;
        }
        if (!s.mispredict && (s.bits & kOpTaken) && s.btbMiss)
            st.btbMisses++;
    }
}

/** The per-uop counters of one step, identical for every cell. */
inline void
tallyUops(PerfStats &st, const SharedStep &s)
{
    for (int k = 0; k < s.nxu; k++) {
        const PackedUop &u = s.xu[k];
        st.issuedUops++;
        st.aluOps[size_t(u.cls)]++;
        st.regReads += uint64_t((u.flags >> kUopNsrcShift) & 0x7);
        st.regWrites += (u.flags & kUopWritesReg) != 0;
        st.fpRegOps += (u.flags & kUopFpSimd) != 0;
    }
}

/** Add the per-uop counters of @p tally (see tallyUops) to @p st. */
inline void
addTally(PerfStats &st, const PerfStats &tally)
{
    st.issuedUops += tally.issuedUops;
    st.regReads += tally.regReads;
    st.regWrites += tally.regWrites;
    st.fpRegOps += tally.fpRegOps;
    for (size_t c = 0; c < size_t(MicroClass::NumClasses); c++)
        st.aluOps[c] += tally.aluOps[c];
}

/** The timed-window result: final counters minus the warm-up
 * snapshot (all zero when there is no warm-up). */
inline PerfResult
finishResult(const PerfStats &fin, const PerfStats &warm)
{
    PerfResult res;
    res.stats = PerfStats::diff(fin, warm);
    res.stats.cycles = fin.cycles - warm.cycles;
    res.cycles = res.stats.cycles;
    res.ipc = res.stats.ipc();
    res.upc = res.stats.upc();
    return res;
}

constexpr int kMaxFuUnits = 16; ///< units per functional-unit pool

/**
 * The scalar lane: one cell on 64-bit stamps. A lane type supplies
 * the vector of stamps (U), of small signed counts (S) and of
 * per-lane conditions (M), their storage rows (URow/SRow) and ring
 * element (Stamp), and the handful of operations stepLanes uses.
 * Selects read sel(m, a, b) = m ? a : b per lane.
 */
struct ScalarLane
{
    static constexpr int kLanes = 1;
    using U = uint64_t;
    using S = int;
    using M = bool;
    using URow = uint64_t;
    using SRow = int;
    using Stamp = uint64_t;
    static constexpr M kNone = false;
    static constexpr M kAll = true;
    /** Stamp of a unit a lane does not have (never the earliest). */
    static constexpr uint64_t kNoUnit = ~uint64_t(0);

    static U ldU(const URow &r) { return r; }
    static void stU(URow &r, U v) { r = v; }
    static S ldS(const SRow &r) { return r; }
    static void stS(SRow &r, S v) { r = v; }
    static U splatU(uint64_t v) { return v; }
    static S splatS(int v) { return v; }

    static U addU(U a, uint64_t k) { return a + k; }
    static U maxU(U a, U b) { return std::max(a, b); }
    static M ltU(U a, U b) { return a < b; }
    static M gtU(U a, U b) { return a > b; }
    static U selU(M m, U a, U b) { return m ? a : b; }

    static S addS(S a, S b) { return a + b; }
    static S subS(S a, S b) { return a - b; }
    static S maxS(S a, S b) { return std::max(a, b); }
    static M gtS(S a, S b) { return a > b; }
    static M ltZero(S a) { return a < 0; }
    static S selS(M m, S a, S b) { return m ? a : b; }
    static S wrapInc(S h, S n) { return h + 1 == n ? 0 : h + 1; }

    static M mor(M a, M b) { return a || b; }
    static bool any(M m) { return m; }

    /** Ring slot @p idx where @p m holds, else 0. */
    static U
    gather(const Stamp *ring, S idx, M m)
    {
        return m ? ring[idx] : 0;
    }

    static void
    scatter(Stamp *ring, S idx, M m, U v)
    {
        if (m)
            ring[idx] = v;
    }

    /** Write @p v to unit @p unit of a pool of @p n units. */
    static void storeUnit(URow *pool, int n, S unit, U v) { pool[unit] = v; }

    static void set(URow &r, int, uint64_t v) { r = v; }
    static void set(SRow &r, int, int v) { r = v; }
    static void setBit(M &m, int) { m = true; }
    static uint64_t get(const URow &r, int) { return r; }
};

/**
 * The cycle state of one lane group: kLanes cells that share the
 * out-of-order class, one per lane. Each scalar of the timing model
 * is a row (one entry per lane), each scoreboard an array of rows.
 * Lanes at or past nReal clone lane 0, so a partial group needs no
 * masking; their results are dropped.
 */
template <class L>
struct LaneCells
{
    using URow = typename L::URow;
    using SRow = typename L::SRow;

    bool ooo = false;
    size_t nReal = 0;
    typename L::M ucMask = L::kNone;  ///< lanes with a uop cache
    typename L::M fusMask = L::kNone; ///< lanes with uop fusion
    int fuN[kNumUopPools] = {};       ///< max units over lanes

    // Per-lane constants: width, width - 1, decode bandwidth, and
    // the ROB/IQ/LSQ ring sizes and bases within `ring`.
    SRow W{}, Wm1{}, dbw{};
    SRow robN{}, iqN{}, lsqN{}, robB{}, iqB{}, lsqB{};

    // Front-end / dispatch / commit cycle state.
    URow fc{}, red{}, dispc{}, lastIssue{}, lastCommit{}, cycles{},
        warmCycles{};
    SRow fmb{}, fbb{}, fub{}, dbud{}, cbud{}; ///< budgets
    SRow rh{}, ih{}, lh{};                    ///< ring heads

    // Scoreboards: register ready times (plus the two sentinel
    // slots), per-op uop completion (last slot pinned zero: the
    // chain-less sentinel), store-buffer data-ready stamps, and
    // per-unit next-free cycles. Units a lane lacks hold kNoUnit.
    URow rr[kEngineRegSlots]{};
    URow ue[kMaxUopsPerOp + 1]{};
    URow sbR[kSbSize]{};
    URow fuT[kNumUopPools][kMaxFuUnits]{};

    // ROB/IQ/LSQ rings of every lane, one flat slab with disjoint
    // per-lane regions.
    std::unique_ptr<typename L::Stamp[]> ring;
};

/**
 * Set up @p c for the cells cells[idx[0..n_real)], all of the same
 * out-of-order class; the remaining lanes clone the first.
 */
template <class L>
void
initLanes(LaneCells<L> &c, const CoreConfig *cells, const size_t *idx,
          size_t n_real)
{
    c.nReal = n_real;
    c.ooo = cells[idx[0]].uarch.outOfOrder;
    uint32_t ring_cur = 0;
    for (int l = 0; l < L::kLanes; l++) {
        const CoreConfig &cc = cells[idx[size_t(l) < n_real ? l : 0]];
        const MicroArchConfig &ua = cc.uarch;
        panic_if(ua.outOfOrder != c.ooo,
                 "a lane group mixes in-order and out-of-order cells");
        L::set(c.W, l, ua.width);
        L::set(c.Wm1, l, ua.width - 1);
        L::set(c.dbw, l, decodeBandwidthFor(cc));
        if (ua.uopCache)
            L::setBit(c.ucMask, l);
        if (ua.uopFusion)
            L::setBit(c.fusMask, l);
        const int units[kNumUopPools] = {ua.intAlus, ua.intMuls,
                                         ua.fpAlus,
                                         std::min(2, ua.width), 1};
        for (int p = 0; p < kNumUopPools; p++) {
            int n = units[p];
            panic_if(n < 1 || n > kMaxFuUnits,
                     "FU pool size %d out of [1, %d]", n,
                     kMaxFuUnits);
            c.fuN[p] = std::max(c.fuN[p], n);
            for (int u = 0; u < kMaxFuUnits; u++)
                L::set(c.fuT[p][u], l, u < n ? 0 : L::kNoUnit);
        }
        const int sizes[3] = {ua.robSize, ua.iqSize, ua.lsqSize};
        typename L::SRow *base[3] = {&c.robB, &c.iqB, &c.lsqB};
        typename L::SRow *size[3] = {&c.robN, &c.iqN, &c.lsqN};
        for (int r = 0; r < 3; r++) {
            L::set(*base[r], l, int(ring_cur));
            L::set(*size[r], l, sizes[r]);
            ring_cur += uint32_t(sizes[r]);
        }
        L::set(c.fc, l, 1);
        L::set(c.dispc, l, 1);
        L::set(c.fmb, l, ua.width);
        L::set(c.fbb, l, kIldBytesPerCycle);
        L::set(c.fub, l, ua.width);
        L::set(c.dbud, l, ua.width);
        L::set(c.cbud, l, ua.width);
    }
    c.ring.reset(new typename L::Stamp[ring_cur]());
}

/**
 * The cycle step: advance every lane of @p c through the @p n steps
 * of @p tile. This is the one definition of the timing model's
 * cycle arithmetic. Step-shared properties (the uop list, memory
 * slots, stream events) are plain branches; per-cell differences
 * (uop cache, fusion, widths, windows, budget overflows, dispatch
 * stalls) are lane conditions and selects.
 *
 * Each call keeps the lane state in locals, so running one lane
 * group across a tile of steps keeps it in registers and its
 * scoreboards hot in L1 while the walk decodes each step once for
 * the whole group. The live path, whose structural queries depend
 * on the previous step's cycle state, steps one op at a time.
 */
template <class L, bool OoO>
void
stepLanes(LaneCells<L> &c, const SharedStep *tile, size_t n)
{
    using U = typename L::U;
    using S = typename L::S;
    using M = typename L::M;
    const S vW = L::ldS(c.W);
    const S vWm1 = L::ldS(c.Wm1);
    const S vDbw = L::ldS(c.dbw);
    const S robN = L::ldS(c.robN), iqN = L::ldS(c.iqN),
            lsqN = L::ldS(c.lsqN);
    const S robB = L::ldS(c.robB), iqB = L::ldS(c.iqB),
            lsqB = L::ldS(c.lsqB);
    typename L::Stamp *ring = c.ring.get();

    U fc = L::ldU(c.fc), red = L::ldU(c.red), dispc = L::ldU(c.dispc);
    U lastIssue = L::ldU(c.lastIssue);
    U lastCommit = L::ldU(c.lastCommit);
    U cycles = L::ldU(c.cycles);
    S fmb = L::ldS(c.fmb), fbb = L::ldS(c.fbb), fub = L::ldS(c.fub);
    S dbud = L::ldS(c.dbud), cbud = L::ldS(c.cbud);
    S rh = L::ldS(c.rh), ih = L::ldS(c.ih), lh = L::ldS(c.lh);

    for (size_t t = 0; t < n; t++) {
        const SharedStep &s = tile[t];

        // ---- Fetch ----
        // Catching up with a redirect refills the macro-op and byte
        // budgets; the uop budget carries over.
        M mRed = L::ltU(fc, red);
        fc = L::selU(mRed, red, fc);
        fmb = L::selS(mRed, vW, fmb);
        fbb = L::selS(mRed, L::splatS(kIldBytesPerCycle), fbb);
        if (s.flat > 1)
            fc = L::addU(fc, uint64_t(s.flat - 1));

        M mUcHit = s.evUcHit ? c.ucMask : L::kNone;
        S uopBw = L::selS(mUcHit, L::splatS(6), vDbw);
        // Macro fusion: a conditional branch directly following a
        // flag-writing single-uop ALU op shares its slot. Micro
        // fusion: a load-op pair occupies one slot up to issue.
        M mFB = (s.bits & kOpFusableBranch) ? c.fusMask : L::kNone;
        M mMF = (s.bits & kOpMicroFusable) ? c.fusMask : L::kNone;
        S slotUops = L::selS(mFB, L::splatS(0), L::splatS(s.uops));
        S winSlots = L::selS(mMF, L::splatS(1), slotUops);

        fmb = L::subS(fmb, L::splatS(1));
        fbb = L::subS(fbb, L::splatS(s.len));
        fub = L::subS(fub, slotUops);
        M mOver = L::mor(L::ltZero(fmb),
                         L::mor(L::ltZero(fbb), L::ltZero(fub)));
        fc = L::selU(mOver, L::addU(fc, 1), fc);
        fmb = L::selS(mOver, vWm1, fmb);
        fbb = L::selS(mOver, L::splatS(kIldBytesPerCycle - s.len),
                      fbb);
        fub = L::selS(mOver, L::subS(uopBw, slotUops), fub);

        // ---- Dispatch (rename + window allocation) ----
        // A ring's oldest slot is invariant until the commit-stage
        // pushes, so one read per ring stands for the per-slot wait.
        U disp = L::maxU(dispc, L::addU(fc, OoO ? 8 : 5));
        M mWS = L::gtS(winSlots, L::splatS(0));
        disp = L::maxU(disp, L::gather(ring, L::addS(robB, rh), mWS));
        if constexpr (OoO)
            disp = L::maxU(disp,
                           L::gather(ring, L::addS(iqB, ih), mWS));
        if (s.memSlots > 0)
            disp = L::maxU(disp,
                           L::gather(ring, L::addS(lsqB, lh), L::kAll));

        M mAdv = L::gtU(disp, dispc);
        dispc = L::selU(mAdv, disp, dispc);
        dbud = L::selS(mAdv, vW, dbud);
        dbud = L::subS(
            dbud, L::maxS(winSlots,
                          L::selS(mFB, L::splatS(0), L::splatS(1))));
        M mDO = L::ltZero(dbud);
        dispc = L::selU(mDO, L::addU(dispc, 1), dispc);
        dbud = L::selS(mDO, L::subS(vW, winSlots), dbud);
        disp = L::selU(mDO, dispc, disp);

        // ---- Execute ----
        // The load uop sees the store-buffer data-ready stamp when a
        // recent store covers it, else the hierarchy latency.
        U fwdReady = L::splatU(0);
        uint64_t loadLat = 0;
        if (s.bits & kOpReadsMem) {
            if (s.fwdMask) {
                for (uint32_t m = s.fwdMask; m; m &= m - 1) {
                    fwdReady = L::maxU(
                        fwdReady, L::ldU(c.sbR[__builtin_ctz(m)]));
                }
            } else {
                loadLat = s.loadLat;
            }
        }

        const U dispP1 = L::addU(disp, 1);
        U end = dispP1;
        for (int k = 0; k < s.nxu; k++) {
            const PackedUop &u = s.xu[k];
            const bool load = u.flags & kUopLoad;
            // Chain gating: completion of the referenced uop of this
            // same op (chain-less uops read the pinned-zero slot).
            // Sealed uops use sentinel register ids, so no validity
            // branches; the maxes form a tree so the scoreboard
            // loads issue in parallel.
            U chain = L::ldU(c.ue[size_t(u.chain)]);
            if (load)
                chain = L::maxU(chain, fwdReady);
            U r01 = L::maxU(L::ldU(c.rr[u.srcs[0]]),
                            L::ldU(c.rr[u.srcs[1]]));
            U r23 = L::maxU(L::ldU(c.rr[u.srcs[2]]),
                            L::ldU(c.rr[u.srcs[3]]));
            U ready = L::maxU(L::maxU(dispP1, chain), L::maxU(r01, r23));
            if constexpr (!OoO)
                ready = L::maxU(ready, lastIssue);

            // Earliest-free unit of the pool: strict-less scan,
            // lowest index on ties.
            typename L::URow *pool = c.fuT[u.pool];
            const int pn = c.fuN[u.pool];
            U bestT = L::ldU(pool[0]);
            S bestI = L::splatS(0);
            for (int i = 1; i < pn; i++) {
                U ti = L::ldU(pool[i]);
                M lt = L::ltU(ti, bestT);
                bestT = L::selU(lt, ti, bestT);
                bestI = L::selS(lt, L::splatS(i), bestI);
            }
            U issue = L::maxU(ready, bestT);
            U complete = L::addU(issue, u.lat + (load ? loadLat : 0));
            L::storeUnit(pool, pn, bestI,
                         (u.flags & kUopUnpipelined) ? complete
                                                     : L::addU(issue, 1));

            L::stU(c.rr[u.dst], complete);
            L::stU(c.rr[(u.flags & kUopWritesFlags) ? kFlagsReg
                                                    : kDummyWriteReg],
                   complete);
            lastIssue = L::maxU(lastIssue, issue);
            end = complete;
            L::stU(c.ue[size_t(k)], end);
        }
        // Both store-carrying forms end on their store uop, so `end`
        // is the data-ready stamp the buffered store forwards at.
        if (s.bits & kOpWritesMem)
            L::stU(c.sbR[s.sbSlot], end);

        // ---- Branch resolution ----
        // A mispredict redirects fetch; a taken target the BTB (or,
        // for returns, the RAS) misses costs a 2-cycle bubble.
        if (s.bits & kOpBranch) {
            if (s.mispredict)
                red = L::addU(end, 1);
            else if ((s.bits & kOpTaken) && s.btbMiss)
                fc = L::addU(fc, 2);
        }

        // ---- Commit ----
        U commit = L::maxU(L::addU(end, 1), lastCommit);
        M mC = L::gtU(commit, lastCommit);
        lastCommit = L::selU(mC, commit, lastCommit);
        cbud = L::selS(mC, vW, cbud);
        cbud = L::subS(cbud, L::maxS(L::splatS(1), winSlots));
        M mCO = L::ltZero(cbud);
        lastCommit =
            L::selU(mCO, L::addU(lastCommit, 1), lastCommit);
        cbud = L::selS(mCO, vW, cbud);
        commit = L::selU(mCO, lastCommit, commit);

        for (int sl = 0;; sl++) {
            M mP = L::gtS(winSlots, L::splatS(sl));
            if (!L::any(mP))
                break;
            L::scatter(ring, L::addS(robB, rh), mP, commit);
            rh = L::selS(mP, L::wrapInc(rh, robN), rh);
            if constexpr (OoO) {
                L::scatter(ring, L::addS(iqB, ih), mP, end);
                ih = L::selS(mP, L::wrapInc(ih, iqN), ih);
            }
        }
        for (int sl = 0; sl < s.memSlots; sl++) {
            L::scatter(ring, L::addS(lsqB, lh), L::kAll, commit);
            lh = L::wrapInc(lh, lsqN);
        }

        cycles = L::maxU(cycles, commit);
        if (s.warmEdge)
            L::stU(c.warmCycles, cycles);
    }

    L::stU(c.fc, fc);
    L::stU(c.red, red);
    L::stU(c.dispc, dispc);
    L::stU(c.lastIssue, lastIssue);
    L::stU(c.lastCommit, lastCommit);
    L::stU(c.cycles, cycles);
    L::stS(c.fmb, fmb);
    L::stS(c.fbb, fbb);
    L::stS(c.fub, fub);
    L::stS(c.dbud, dbud);
    L::stS(c.cbud, cbud);
    L::stS(c.rh, rh);
    L::stS(c.ih, ih);
    L::stS(c.lh, lh);
}

} // namespace engine_detail
} // namespace cisa

#endif // CISA_UARCH_ENGINE_HH
