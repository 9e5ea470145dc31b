/**
 * @file
 * Decoupled replay engine: decode-once packed traces plus memoized
 * structural-model streams.
 *
 * simulateCore factors into two halves. The *structural* half —
 * cache tag lookups, branch-predictor direction bits, uop-cache
 * hits, BTB/RAS target checks, store-buffer address matching — is a
 * pure function of the trace and a small slice of the configuration
 * (cache geometry, run environment, predictor kind) and never
 * depends on timing-side parameters (width, ROB/IQ/LSQ depth,
 * functional-unit counts). The *timing* half is cheap integer
 * arithmetic over those structural outcomes. A DSE campaign
 * simulates the same phase trace on hundreds of microarchitectures
 * that share only a handful of distinct structural slices, so the
 * structural half can be computed once per (slice, phase) and
 * replayed — bit-identically — for every cell that shares it.
 *
 * Two precomputed artifacts enable this:
 *
 *  - ReplayTrace: per-phase, config-independent. SoA hot fields of
 *    each DynOp (len/uops/behavior bits/fetch-line id) plus the
 *    micro-op expansion flattened once, instead of being
 *    reconstructed per cell per op.
 *
 *  - StructuralStream: per-(structural slice, phase). A packed
 *    per-step event byte plus side arrays of miss latencies and
 *    store-forward masks, produced by running only the structural
 *    models over the trace, consumed by the timing engine in place
 *    of live MemSystem / BranchPredictor / UopCache calls
 *    (devirtualizing the inner loop).
 *
 * The memo key (structuralFingerprint) covers exactly the fields
 * that feed the structural models; see the slice fingerprints below
 * and the aliasing test in tests/test_uarch.cc.
 */

#ifndef CISA_UARCH_REPLAY_HH
#define CISA_UARCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "uarch/core.hh"

namespace cisa
{

/** Per-uop flag bits (PackedUop::flags). Bits 4-6 hold the source
 * count; bit 7 marks a real (non-sentinel) destination register. */
enum UopFlag : uint8_t {
    kUopLoad = 1 << 0,        ///< consumes fwd_ready / load latency
    kUopWritesFlags = 1 << 1, ///< writes the flags register
    kUopUnpipelined = 1 << 2, ///< divider: holds its unit to the end
    kUopFpSimd = 1 << 3,      ///< counts as an FP/SIMD register op
    kUopWritesReg = 1 << 7,   ///< dst was a real register
};
constexpr int kUopNsrcShift = 4; ///< flags >> shift & 7 = #sources

/**
 * Sentinel register ids used by sealed uops so the issue path needs
 * no validity branches: reads of kDummyReadReg always see 0 (the
 * slot is never written), writes of non-register results land in
 * kDummyWriteReg (never read). The engine's scoreboard is sized
 * kEngineRegSlots to include both.
 */
constexpr int16_t kDummyReadReg = int16_t(kNumArchIds);
constexpr int16_t kDummyWriteReg = int16_t(kNumArchIds + 1);
constexpr int kEngineRegSlots = kNumArchIds + 2;

/** Issue-port pool a uop class maps to (PackedUop::pool). */
enum UopPool : uint8_t {
    kPoolIntAlu = 0,
    kPoolIntMul,
    kPoolFpAlu,
    kPoolLd,
    kPoolSt,
    kNumUopPools
};

/** Pool selection for a micro-op class. */
constexpr uint8_t
classPool(MicroClass cls)
{
    switch (cls) {
      case MicroClass::IntMul:
      case MicroClass::IntDiv:
        return kPoolIntMul;
      case MicroClass::FpAlu:
      case MicroClass::FpMul:
      case MicroClass::FpDiv:
      case MicroClass::SimdAlu:
      case MicroClass::SimdMul:
        return kPoolFpAlu;
      case MicroClass::Load:
        return kPoolLd;
      case MicroClass::Store:
        return kPoolSt;
      default:
        return kPoolIntAlu;
    }
}

/** Upper bound on uops per macro-op (255 extras + ld/alu/agen/st). */
constexpr int kMaxUopsPerOp = 260;

/**
 * One pre-expanded micro-op (the packed form of core.cc's XUop).
 * 16 bytes. The defaults ARE the sentinels: a freshly constructed
 * uop reads only pinned-zero scoreboard slots, writes the discard
 * slot, and chains on the pinned-zero uop slot, so expansion only
 * ever overwrites fields with real values (no fix-up pass) and the
 * per-uop issue path needs no class dispatch or validity branches.
 */
struct PackedUop
{
    MicroClass cls = MicroClass::IntAlu;
    uint8_t lat = 1;   ///< microLatency(cls)
    uint8_t pool = kPoolIntAlu; ///< classPool(cls)
    uint8_t flags = 0; ///< UopFlag mask + source count
    /** Source register ids; unused slots hold kDummyReadReg. */
    int16_t srcs[4] = {kDummyReadReg, kDummyReadReg, kDummyReadReg,
                       kDummyReadReg};
    /** Destination register id, or kDummyWriteReg. */
    int16_t dst = kDummyWriteReg;
    /** Index (within this op) of the uop whose completion gates this
     * one; kMaxUopsPerOp (a pinned-zero slot) when chain-less.
     * Replaces the chain_ready threading in core.cc. */
    int16_t chain = int16_t(kMaxUopsPerOp);
};

/** Class-derived PackedUop fields, applied at construction. */
struct UopClassMeta
{
    uint8_t lat;
    uint8_t pool;
    uint8_t flags;
};

constexpr UopClassMeta
uopClassMeta(MicroClass c)
{
    uint8_t f = 0;
    if (c == MicroClass::Load)
        f |= kUopLoad;
    if (c == MicroClass::IntDiv || c == MicroClass::FpDiv)
        f |= kUopUnpipelined;
    if (isFpSimdClass(c))
        f |= kUopFpSimd;
    return {uint8_t(microLatency(c)), classPool(c), f};
}

/** Set @p u's class and everything derived from it (one table hit). */
inline void
setUopClass(PackedUop &u, MicroClass cls)
{
    struct Table
    {
        UopClassMeta m[size_t(MicroClass::NumClasses)];
        constexpr Table() : m()
        {
            for (size_t c = 0; c < size_t(MicroClass::NumClasses);
                 c++)
                m[c] = uopClassMeta(MicroClass(c));
        }
    };
    static constexpr Table t;
    const UopClassMeta &m = t.m[size_t(cls)];
    u.cls = cls;
    u.lat = m.lat;
    u.pool = m.pool;
    u.flags |= m.flags;
}

/** Record @p u's real destination register (if any). */
inline void
setUopDst(PackedUop &u, int16_t dst)
{
    if (dst >= 0) {
        u.dst = dst;
        u.flags |= kUopWritesReg;
    }
}

/** Record the number of real sources filled into @p u. */
inline void
setUopNsrc(PackedUop &u, int nsrc)
{
    u.flags |= uint8_t(nsrc << kUopNsrcShift);
}

/** Per-op behaviour bits precomputed from DynOp (ReplayTrace.bits). */
enum OpBit : uint16_t {
    kOpPredFalse = 1 << 0,
    kOpPredicated = 1 << 1,
    kOpReadsMem = 1 << 2,      ///< DynOp::readsMem()
    kOpWritesMem = 1 << 3,     ///< DynOp::writesMem()
    kOpHasMem = 1 << 4,        ///< form != MemForm::None
    kOpBranch = 1 << 5,
    kOpCondBranch = 1 << 6,    ///< branch that reads flags
    kOpTaken = 1 << 7,
    kOpRet = 1 << 8,
    kOpCall = 1 << 9,
    /** Macro-fusion candidate: conditional branch directly after a
     * flag-writing single-uop ALU op. Precomputed from the previous
     * trace entry (cyclically); the replay driver masks it off on the
     * very first step, where the live engine has no previous op. */
    kOpFusableBranch = 1 << 10,
    kOpMicroFusable = 1 << 11, ///< LoadOp pair, 2 uops: one slot
};

/** Behaviour bits of @p op given the previous op's fusability. */
uint16_t packOpBits(const DynOp &op, bool prev_fusable_cmp);

/** True if @p op can macro-fuse with a following conditional branch. */
bool isFusableCmp(const DynOp &op);

/**
 * Expand @p op into packed micro-ops, mirroring the execute stage of
 * the live engine exactly (same classes, operand lists, and chain
 * structure). @p out must hold kMaxUopsPerOp entries.
 * @return the number of uops written
 */
int expandUops(const DynOp &op, PackedUop *out);

/**
 * A phase trace packed for replay: decode-once SoA hot fields plus
 * the flattened micro-op expansion, shared read-only by every cell.
 * Only the prefix the simulation can reach (min(trace size,
 * max_steps)) is materialized; `complete` records whether the packed
 * prefix wraps (covers the whole trace).
 */
struct ReplayTrace
{
    std::vector<uint8_t> len;     ///< DynOp::len
    std::vector<uint8_t> uops;    ///< DynOp::uops
    std::vector<uint16_t> bits;   ///< OpBit mask
    std::vector<uint64_t> lineId; ///< pc >> 6 (fetch line)
    std::vector<uint32_t> uopBegin; ///< xuops range per op (n+1)
    std::vector<PackedUop> xuops;
    bool complete = false; ///< packed prefix covers the whole trace
    uint64_t maxSteps = 0; ///< step budget the packing was built for
    /** Max over steps of (sum of uop latencies + uop count), and max
     * load uops in any one step: with the stream-side latency maxima
     * these bound how far any cycle stamp can advance per step, which
     * is what lets the batched kernel prove 32-bit stamps safe. */
    uint32_t maxStepLatSum = 0;
    uint32_t maxStepLoads = 0;

    size_t size() const { return len.size(); }

    /**
     * Pack @p trace for simulations of at most @p max_steps steps
     * (one step consumes at least one uop, so warmup+timed uops is a
     * safe bound). @p trace must outlive the packing.
     */
    static ReplayTrace build(const Trace &trace,
                             uint64_t max_steps = ~uint64_t(0));
};

/** Memory-hierarchy counters snapshotted at the warmup crossing. */
struct MemSnap
{
    uint64_t l1iAccesses = 0;
    uint64_t l1iMisses = 0;
    uint64_t l1dAccesses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    uint64_t memAccesses = 0;
};

/** Per-step structural event bits (StructuralStream.ev). */
enum StreamEv : uint8_t {
    kEvIFetch = 1 << 0,     ///< new fetch line accessed
    kEvIFetchMiss = 1 << 1, ///< ... and it missed (ifetchExtra)
    kEvUcHit = 1 << 2,      ///< uop-cache hit
    kEvFwd = 1 << 3,        ///< load forwarded (fwdMask)
    kEvDLoad = 1 << 4,      ///< load went to the hierarchy (dloadExtra)
    kEvMispredict = 1 << 5, ///< conditional branch mispredicted
    kEvBtbMiss = 1 << 6,    ///< taken-target BTB/RAS miss (+2 cycles)
};

/**
 * The memoized structural outcome of one (slice, phase, budget):
 * one event byte per step plus side arrays consumed by cursor. The
 * stream embeds everything the timing engine needs from the
 * structural models, including the hierarchy counter snapshots taken
 * at the warmup crossing and at the end.
 */
struct StructuralStream
{
    uint64_t key = 0; ///< structuralFingerprint of the producing slice
    std::vector<uint8_t> ev;
    std::vector<uint32_t> ifetchExtra; ///< fetch miss latency - 1
    std::vector<uint32_t> dloadExtra;  ///< data access latency - 1
    std::vector<uint16_t> fwdMask;     ///< matching store-buffer slots
    uint32_t maxIfetchExtra = 0; ///< max element of ifetchExtra
    uint32_t maxDloadExtra = 0;  ///< max element of dloadExtra
    MemSnap warm; ///< counters at the warmup crossing (if warmup > 0)
    MemSnap fin;  ///< counters at the end of the run
};

/**
 * Slice fingerprints: each covers exactly the MicroArchConfig / RunEnv
 * fields consumed by the corresponding structural model, so equal keys
 * imply identical streams and the memo can never alias two configs
 * that behave differently.
 */

/** Cache hierarchy slice: L1I/L1D/L2 geometry + the run environment
 * (L2 share and memory contention scale latencies and set counts). */
uint64_t cacheSliceFingerprint(const MicroArchConfig &c,
                               const RunEnv &env);

/** Branch-direction slice: the predictor kind (each kind has fixed
 * internal geometry). */
uint64_t bpredSliceFingerprint(const MicroArchConfig &c);

/** Uop-cache slice: fixed geometry, so this is a constant; the hit
 * stream is generated unconditionally and merely ignored by configs
 * with the uop cache disabled (MicroArchConfig::uopCache is a
 * timing-side gate, not a structural parameter). */
uint64_t uopCacheSliceFingerprint(const MicroArchConfig &c);

/**
 * Combined memo key for a full StructuralStream. Includes the bpred
 * slice alongside the cache slice because mispredict-driven refetches
 * interleave extra I-side traffic into the shared L2, coupling the
 * data-access latencies to the predictor kind.
 */
uint64_t structuralFingerprint(const MicroArchConfig &c,
                               const RunEnv &env);

/**
 * Produce the structural stream for @p cfg/@p env over @p packed
 * (which must pack @p trace) using the same step budget the timing
 * replay will use. Runs only the structural models — no timing state.
 */
StructuralStream buildStructuralStream(const CoreConfig &cfg,
                                       const RunEnv &env,
                                       const Trace &trace,
                                       const ReplayTrace &packed,
                                       uint64_t timed_uops,
                                       uint64_t warmup_uops);

/**
 * Timing-only simulation over a packed trace and a memoized
 * structural stream: a one-cell simulateCoreBatch walk.
 * Bit-identical to simulateCore(cfg, trace, ...) for the matching
 * stream; panics if @p stream was built for a different structural
 * slice or a different step budget.
 */
PerfResult simulateCoreReplay(const CoreConfig &cfg,
                              const ReplayTrace &packed,
                              const StructuralStream &stream,
                              uint64_t timed_uops,
                              uint64_t warmup_uops,
                              const RunEnv &env = {});

} // namespace cisa

#endif // CISA_UARCH_REPLAY_HH
