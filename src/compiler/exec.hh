/**
 * @file
 * Functional machine execution and dynamic-trace capture.
 *
 * executeMachine interprets a compiled MachineProgram against a
 * MemImage with exact architectural semantics (two-address ops, adc
 * carry chains, predication, SSE lanes), producing the same
 * observable ExecResult contract as the IR interpreter — that
 * equality is the compiler's correctness oracle.
 *
 * Each call first predecodes the program into a flat record array
 * (successors and callees as indices, operands as register slots)
 * and then runs one dispatch loop over it with an explicit call
 * stack. The loop only counts per static instruction; the counts
 * fold into ExecResult and DynStats at the end.
 *
 * When given a Trace sink it additionally records one DynOp per
 * executed macro-op, up to record_cap of them, carrying everything
 * the timing models need: code address and length (fetch, ILD,
 * I-cache, micro-op cache), micro-op expansion and class (decode,
 * issue, functional units), genuine data addresses (D-cache),
 * register operands (renaming and dependencies), and real branch
 * outcomes (predictors). Trace::dyn always covers the whole run.
 */

#ifndef CISA_COMPILER_EXEC_HH
#define CISA_COMPILER_EXEC_HH

#include <cstdint>
#include <vector>

#include "compiler/interp.hh"
#include "compiler/machine.hh"

namespace cisa
{

/** Rename-space register ids used in DynOp operands. */
constexpr int16_t kGprBase = 0;    ///< GPRs: 0..63
constexpr int16_t kXmmBase = 64;   ///< XMMs: 64..79
constexpr int16_t kFlagsReg = 80;  ///< the flags register
constexpr int kNumArchIds = 81;

/** DynOp flag bits. */
enum DynFlags : uint16_t {
    DynIsBranch = 1 << 0,
    DynTaken = 1 << 1,
    DynPredicated = 1 << 2,
    DynPredFalse = 1 << 3, ///< predicated out: no architectural effect
    DynFp = 1 << 4,
    DynVec = 1 << 5,
    DynWideData = 1 << 6, ///< 64-bit data (long-mode emulation pays)
    DynCall = 1 << 7,
    DynRet = 1 << 8,
};

/** One executed macro-op. */
struct DynOp
{
    uint64_t pc = 0;
    uint64_t maddr = 0;   ///< effective address (0 when no memory op)
    uint64_t target = 0;  ///< address of the next executed macro-op
    uint8_t len = 0;
    uint8_t uops = 1;
    uint8_t msize = 0;
    uint8_t opBits = 64; ///< operand width of the macro-op
    uint16_t flags = 0;
    MicroClass cls = MicroClass::IntAlu;
    MemForm form = MemForm::None;

    // Rename-space operands (-1 = none). dst2 covers flag writes.
    int16_t dst = -1;
    int16_t src1 = -1;
    int16_t src2 = -1;
    int16_t base = -1;
    int16_t index = -1;
    int16_t pred = -1;
    bool writesFlags = false;
    bool readsFlags = false;
    bool readsDst = false; ///< two-address op: dst is also a source

    bool isBranch() const { return flags & DynIsBranch; }
    bool taken() const { return flags & DynTaken; }
    bool predFalse() const { return flags & DynPredFalse; }
    bool readsMem() const
    {
        return (form == MemForm::Load || form == MemForm::LoadOp ||
                form == MemForm::LoadOpStore) && !predFalse();
    }
    bool writesMem() const
    {
        return (form == MemForm::Store ||
                form == MemForm::LoadOpStore) && !predFalse();
    }
};

/** Dynamic instruction-mix statistics (Figure 2's categories). */
struct DynStats
{
    uint64_t macroOps = 0;
    uint64_t uops = 0;
    uint64_t uopsByClass[size_t(MicroClass::NumClasses)] = {};
    uint64_t loads = 0;   ///< load micro-ops
    uint64_t stores = 0;  ///< store micro-ops
    uint64_t branches = 0;
    uint64_t taken = 0;
    uint64_t predicated = 0;
    uint64_t predFalse = 0;
    uint64_t memBytes = 0;
    uint64_t fetchBytes = 0;

    void add(const DynStats &o);
};

/** A captured execution trace. */
struct Trace
{
    std::vector<DynOp> ops;
    DynStats dyn;
    bool truncated = false; ///< executed past trace_cap: stopped early
};

/**
 * Execute @p prog against @p img.
 *
 * @param max_macro_ops fuel limit: the run stops (ExecResult::ranOut)
 *     before executing more macro-ops than this
 * @param trace optional trace sink
 * @param trace_cap with a trace, the run stops right after the first
 *     executed macro-op past this many and sets Trace::truncated,
 *     however many ops are recorded
 * @param record_cap stop *storing* DynOps after this many entries
 *     while execution (and DynStats accounting) continues to the
 *     end of the run. The stored ops are exactly the full run's
 *     first record_cap, except that the last one's target (no
 *     recorded successor) is its own pc + len. Callers that only
 *     simulate a bounded uop budget over the trace prefix pass the
 *     budget here (0 when they read only Trace::dyn) and read the
 *     full-run op count from Trace::dyn.macroOps.
 */
ExecResult executeMachine(const MachineProgram &prog, MemImage &img,
                          uint64_t max_macro_ops = 1ULL << 32,
                          Trace *trace = nullptr,
                          uint64_t trace_cap = 1ULL << 22,
                          uint64_t record_cap = ~uint64_t(0));

} // namespace cisa

#endif // CISA_COMPILER_EXEC_HH
