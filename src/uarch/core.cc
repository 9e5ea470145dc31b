#include "uarch/core.hh"

#include "common/logging.hh"
#include "common/hash.hh"
#include "uarch/engine.hh"

namespace cisa
{

std::string
CoreConfig::name() const
{
    return isa.name() + "/" + uarch.name();
}

uint64_t
CoreConfig::fingerprint() const
{
    return hashCombine(uint64_t(isa.id()) * 0x9e3779b9,
                       uarch.fingerprint());
}

namespace
{

using namespace engine_detail;

/**
 * The live path: each step asks the live structural models in the
 * order a core would (redirect refetch, I-fetch, uop cache, store
 * buffer, D-side, branch predictor, BTB/RAS), then runs the shared
 * stats and cycle step on one scalar lane. The redirect test reads
 * the lane's own cycle state, so this path stays an independent
 * check of the structural streams the batched walk replays.
 */
template <bool OoO>
PerfResult
runLive(const CoreConfig &cfg, const Trace &trace,
        uint64_t timed_uops, uint64_t warmup_uops, const RunEnv &env)
{
    LiveStructural str(cfg, env);
    LaneCells<ScalarLane> lane;
    const size_t self = 0;
    initLanes(lane, &cfg, &self, 1);
    const uint8_t combo = comboKey(cfg.uarch);

    PerfStats st, warm;
    bool warm_taken = warmup_uops == 0;
    PackedUop buf[kMaxUopsPerOp];
    bool prev_fusable = false;
    uint8_t sb_head = 0;
    uint64_t done_uops = 0;
    size_t idx = 0;
    const size_t n = trace.ops.size();
    while (done_uops < warmup_uops + timed_uops) {
        const DynOp &op = trace.ops[idx];
        SharedStep s;
        s.bits = packOpBits(op, prev_fusable);
        prev_fusable = isFusableCmp(op);
        s.len = op.len;
        s.uops = op.uops;
        s.nxu = expandUops(op, buf);
        s.xu = buf;
        s.memSlots = memSlotsOf(s.bits);

        if (lane.fc < lane.red)
            str.redirectFetch(); // refetch the line after redirect
        s.flat = str.fetchAccess(&op, op.pc >> 6);
        if (cfg.uarch.uopCache)
            s.evUcHit = str.ucAccess(&op);
        if (s.bits & kOpReadsMem) {
            s.fwdMask = str.sbMatch(&op);
            if (!s.fwdMask)
                s.loadLat = str.dataLoad(&op);
        }
        s.sbSlot = sb_head;
        if (s.bits & kOpWritesMem) {
            str.dataStore(&op);
            str.sbPush(&op, s.sbSlot);
            sb_head = sb_head + 1 == kSbSize ? 0 : sb_head + 1;
        }
        if (s.bits & kOpBranch) {
            if (s.bits & kOpCondBranch)
                s.mispredict = str.branchAccess(&op);
            if (!s.mispredict && (s.bits & kOpTaken))
                s.btbMiss = str.btbAccess(&op);
        }

        statsStep(st, combo, s);
        tallyUops(st, s);
        stepLanes<ScalarLane, OoO>(lane, &s, 1);
        st.cycles = lane.cycles;

        done_uops += s.uops;
        idx = idx + 1 == n ? 0 : idx + 1;
        if (!warm_taken && done_uops >= warmup_uops) {
            warm_taken = true;
            warm = st;
            MemSnap m;
            str.snapshotCounters(m);
            setMem(warm, m);
        }
    }
    MemSnap m;
    str.snapshotCounters(m);
    setMem(st, m);
    return finishResult(st, warm);
}

} // namespace

PerfResult
simulateCore(const CoreConfig &cfg, const Trace &trace,
             uint64_t timed_uops, uint64_t warmup_uops,
             const RunEnv &env)
{
    panic_if(trace.ops.empty(), "empty trace");
    return cfg.uarch.outOfOrder
               ? runLive<true>(cfg, trace, timed_uops, warmup_uops, env)
               : runLive<false>(cfg, trace, timed_uops, warmup_uops,
                                env);
}

} // namespace cisa
