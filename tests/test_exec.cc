/**
 * @file
 * The functional executor's contract, pinned independently of the
 * compiler's correctness oracle (test_equiv):
 *  - golden FNV-1a digests of the ExecResult, the DynStats and every
 *    recorded DynOp of all phases on four feature sets that between
 *    them cover both widths, both complexities, full predication and
 *    packed SIMD;
 *  - the prefix property: a run capped at record_cap records exactly
 *    the first record_cap ops of the full run (the last one's
 *    backpatched target aside), with identical DynStats/ExecResult;
 *  - the trace cap: a capped run of a program longer than trace_cap
 *    reports Trace::truncated instead of running on to the fuel, and
 *    a run out of fuel reports ExecResult::ranOut.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/hash.hh"
#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "workloads/profiles.hh"
#include "workloads/synth.hh"

namespace cisa
{
namespace
{

/** Feature sets the golden digests cover. */
std::vector<FeatureSet>
goldenSets()
{
    return {FeatureSet::x86_64(),
            FeatureSet::minimal(), // microx86-8D-32W
            FeatureSet::make(Complexity::MicroX86, 32, RegWidth::W32,
                             Predication::Full),
            FeatureSet::superset()};
}

struct PhaseExec
{
    ExecResult res;
    Trace trace;
};

PhaseExec
runPhase(int ph, const FeatureSet &fs,
         uint64_t record_cap = ~uint64_t(0),
         uint64_t trace_cap = 1ULL << 21, uint64_t fuel = 1ULL << 31)
{
    CompileOptions opts;
    opts.target = fs;
    IrModule ir;
    MachineProgram prog = compile(phaseModule(ph), opts, nullptr, &ir);
    MemImage img = MemImage::build(ir, fs.widthBits());
    PhaseExec r;
    r.res = executeMachine(prog, img, fuel, &r.trace, trace_cap,
                           record_cap);
    return r;
}

template <typename T>
uint64_t
mix(uint64_t h, T v)
{
    return fnv1a(&v, sizeof(v), h);
}

uint64_t
hashResult(uint64_t h, const ExecResult &r)
{
    uint64_t fp;
    std::memcpy(&fp, &r.fpSum, 8);
    h = mix(h, r.retVal);
    h = mix(h, r.intChecksum);
    h = mix(h, fp);
    h = mix(h, r.dynInstrs);
    h = mix(h, r.loads);
    h = mix(h, r.stores);
    h = mix(h, r.branches);
    return mix(h, uint8_t(r.ranOut));
}

uint64_t
hashDyn(uint64_t h, const DynStats &d)
{
    h = mix(h, d.macroOps);
    h = mix(h, d.uops);
    for (uint64_t c : d.uopsByClass)
        h = mix(h, c);
    h = mix(h, d.loads);
    h = mix(h, d.stores);
    h = mix(h, d.branches);
    h = mix(h, d.taken);
    h = mix(h, d.predicated);
    h = mix(h, d.predFalse);
    h = mix(h, d.memBytes);
    return mix(h, d.fetchBytes);
}

/** Field by field: DynOp has padding bytes. */
uint64_t
hashOp(uint64_t h, const DynOp &op)
{
    h = mix(h, op.pc);
    h = mix(h, op.maddr);
    h = mix(h, op.target);
    h = mix(h, op.len);
    h = mix(h, op.uops);
    h = mix(h, op.msize);
    h = mix(h, op.opBits);
    h = mix(h, op.flags);
    h = mix(h, op.cls);
    h = mix(h, op.form);
    h = mix(h, op.dst);
    h = mix(h, op.src1);
    h = mix(h, op.src2);
    h = mix(h, op.base);
    h = mix(h, op.index);
    h = mix(h, op.pred);
    h = mix(h, uint8_t(op.writesFlags));
    h = mix(h, uint8_t(op.readsFlags));
    return mix(h, uint8_t(op.readsDst));
}

bool
sameOp(const DynOp &a, const DynOp &b)
{
    return hashOp(kFnv1aBasis, a) == hashOp(kFnv1aBasis, b);
}

TEST(ExecGolden, FullTracesArePinned)
{
    // Recorded on the recursive MachineInstr-walking executor that
    // the predecoded one replaced; any drift in semantics, DynStats
    // accounting or DynOp construction moves one of these.
    struct Golden
    {
        uint64_t result, dyn, ops;
    };
    const Golden golden[] = {
        {0xba58f2b0dcbbd174ULL, 0x692009c1fad09176ULL,
         0x41508f774157ab95ULL}, // x86-16D-64W-P
        {0x34c7b70519b865d6ULL, 0x9b224541e6a5b996ULL,
         0xbf51131ead5794f9ULL}, // microx86-8D-32W-P
        {0x532ea1bd36561cc3ULL, 0x09ea01c5216edf0fULL,
         0x1ee7d840e274e245ULL}, // microx86-32D-32W-F
        {0x37e8b53ca2b17248ULL, 0x94300225ff3aa842ULL,
         0x0302e97183dd584fULL}, // x86-64D-64W-F
    };
    std::vector<FeatureSet> sets = goldenSets();
    for (size_t s = 0; s < sets.size(); s++) {
        uint64_t hr = kFnv1aBasis, hd = kFnv1aBasis, ho = kFnv1aBasis;
        for (int ph = 0; ph < phaseCount(); ph++) {
            PhaseExec r = runPhase(ph, sets[s]);
            ASSERT_FALSE(r.res.ranOut) << sets[s].name() << " " << ph;
            ASSERT_FALSE(r.trace.truncated)
                << sets[s].name() << " " << ph;
            hr = hashResult(hr, r.res);
            hd = hashDyn(hd, r.trace.dyn);
            ho = mix(ho, uint64_t(r.trace.ops.size()));
            for (const DynOp &op : r.trace.ops)
                ho = hashOp(ho, op);
        }
        EXPECT_EQ(hr, golden[s].result) << sets[s].name();
        EXPECT_EQ(hd, golden[s].dyn) << sets[s].name();
        EXPECT_EQ(ho, golden[s].ops) << sets[s].name();
    }
}

TEST(ExecPrefix, CappedRecordingIsAPrefixOfTheFullRun)
{
    // 7501 = warm + timed + 1 at the default 6000/1500 budget, the
    // cap the campaign and evaluatePhase record at.
    const uint64_t caps[] = {0, 1, 7501};
    for (const FeatureSet &fs : goldenSets()) {
        for (int ph = 0; ph < phaseCount(); ph += 6) {
            PhaseExec full = runPhase(ph, fs);
            ASSERT_GT(full.trace.ops.size(), 7501u);
            for (uint64_t cap : caps) {
                PhaseExec c = runPhase(ph, fs, cap);
                std::string what = fs.name() + " phase " +
                                   std::to_string(ph) + " cap " +
                                   std::to_string(cap);
                EXPECT_FALSE(c.trace.truncated) << what;
                EXPECT_EQ(hashResult(0, c.res), hashResult(0, full.res))
                    << what;
                EXPECT_EQ(hashDyn(0, c.trace.dyn),
                          hashDyn(0, full.trace.dyn))
                    << what;
                ASSERT_EQ(c.trace.ops.size(), cap) << what;
                for (size_t i = 0; i < c.trace.ops.size(); i++) {
                    DynOp want = full.trace.ops[i];
                    // The last recorded op has no recorded successor,
                    // so its target falls back to pc + len.
                    if (i + 1 == c.trace.ops.size())
                        want.target = want.pc + want.len;
                    ASSERT_TRUE(sameOp(c.trace.ops[i], want))
                        << what << " op " << i;
                }
            }
        }
    }
}

TEST(ExecPrefix, CappedRunOverTraceCapIsTruncated)
{
    const FeatureSet fs = FeatureSet::x86_64();
    PhaseExec full = runPhase(0, fs);
    const uint64_t trace_cap = 20000;
    ASSERT_GT(full.trace.dyn.macroOps, trace_cap);
    for (uint64_t cap : {uint64_t(0), uint64_t(7501),
                         ~uint64_t(0)}) {
        PhaseExec c = runPhase(0, fs, cap, trace_cap);
        EXPECT_TRUE(c.trace.truncated) << "record_cap " << cap;
        EXPECT_FALSE(c.res.ranOut) << "record_cap " << cap;
        // The run stops on the first op past the cap.
        EXPECT_EQ(c.trace.dyn.macroOps, trace_cap + 1);
        EXPECT_EQ(c.res.dynInstrs, trace_cap + 1);
        EXPECT_EQ(c.trace.ops.size(), std::min(cap, trace_cap));
    }

    // Fuel below the trace cap: the run stops before the op past
    // the fuel and reports ranOut, not truncated.
    PhaseExec f = runPhase(0, fs, 7501, trace_cap, 5000);
    EXPECT_TRUE(f.res.ranOut);
    EXPECT_FALSE(f.trace.truncated);
    EXPECT_EQ(f.res.dynInstrs, 5000u);
    EXPECT_EQ(f.trace.dyn.macroOps, 5000u);
    EXPECT_EQ(f.trace.ops.size(), 5000u);
}

} // namespace
} // namespace cisa
