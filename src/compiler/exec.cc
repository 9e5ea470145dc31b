#include "compiler/exec.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "isa/registers.hh"

namespace cisa
{

void
DynStats::add(const DynStats &o)
{
    macroOps += o.macroOps;
    uops += o.uops;
    for (size_t c = 0; c < size_t(MicroClass::NumClasses); c++)
        uopsByClass[c] += o.uopsByClass[c];
    loads += o.loads;
    stores += o.stores;
    branches += o.branches;
    taken += o.taken;
    predicated += o.predicated;
    predFalse += o.predFalse;
    memBytes += o.memBytes;
    fetchBytes += o.fetchBytes;
}

namespace
{

struct Xmm
{
    uint64_t lo = 0;
    uint64_t hi = 0;
};

struct Flags
{
    int64_t a = 0;
    int64_t b = 0;
    bool carry = false;
};

int64_t
norm(int64_t v, int bits)
{
    return bits == 32 ? int64_t(int32_t(uint32_t(uint64_t(v)))) : v;
}

double
asF(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
}

uint64_t
asBits(double d)
{
    uint64_t v;
    std::memcpy(&v, &d, 8);
    return v;
}

/** Integer binary op at a given width, updating carry and flags. */
template <Op OP>
int64_t
intOp(int64_t a, int64_t b, int bits, Flags &fl)
{
    uint64_t ua = bits == 32 ? uint64_t(uint32_t(uint64_t(a)))
                             : uint64_t(a);
    uint64_t ub = bits == 32 ? uint64_t(uint32_t(uint64_t(b)))
                             : uint64_t(b);
    uint64_t r = 0;
    switch (OP) {
      case Op::Add:
        r = ua + ub;
        fl.carry = bits == 32 ? (r >> 32) != 0 : r < ua;
        break;
      case Op::Adc: {
        uint64_t c = fl.carry ? 1 : 0;
        r = ua + ub + c;
        fl.carry = bits == 32 ? (r >> 32) != 0
                              : (r < ua || (c && r == ua));
        break;
      }
      case Op::Sub:
        fl.carry = ua < ub;
        r = ua - ub;
        break;
      case Op::Sbb: {
        uint64_t c = fl.carry ? 1 : 0;
        fl.carry = ua < ub + c || (bits == 64 && ub + c < ub);
        r = ua - ub - c;
        break;
      }
      case Op::And: r = ua & ub; break;
      case Op::Or:  r = ua | ub; break;
      case Op::Xor: r = ua ^ ub; break;
      case Op::Shl: r = ua << (ub & uint64_t(bits - 1)); break;
      case Op::Shr: r = ua >> (ub & uint64_t(bits - 1)); break;
      case Op::Mul:
        r = ua * ub;
        break;
      case Op::MulHi:
        if (bits == 32) {
            r = (uint64_t(uint32_t(ua)) * uint32_t(ub)) >> 32;
        } else {
            using U128 = unsigned __int128;
            r = uint64_t((U128(ua) * ub) >> 64);
        }
        break;
      case Op::Div: {
        int64_t sa = norm(a, bits);
        int64_t sb = norm(b, bits);
        r = sb == 0 ? 0 : uint64_t(sa / sb);
        break;
      }
      default:
        break;
    }
    int64_t out = norm(int64_t(r), bits);
    // x86 leaves flags mostly reflecting the result; mul/div are
    // excluded (undefined in x86, never consumed here).
    if (OP != Op::Mul && OP != Op::MulHi && OP != Op::Div) {
        fl.a = out;
        fl.b = 0;
    }
    return out;
}

/** intOp for an op known only at run time (read-modify-write). */
int64_t
intOpAny(Op op, int64_t a, int64_t b, int bits, Flags &fl)
{
    switch (op) {
      case Op::Add:   return intOp<Op::Add>(a, b, bits, fl);
      case Op::Sub:   return intOp<Op::Sub>(a, b, bits, fl);
      case Op::Adc:   return intOp<Op::Adc>(a, b, bits, fl);
      case Op::Sbb:   return intOp<Op::Sbb>(a, b, bits, fl);
      case Op::And:   return intOp<Op::And>(a, b, bits, fl);
      case Op::Or:    return intOp<Op::Or>(a, b, bits, fl);
      case Op::Xor:   return intOp<Op::Xor>(a, b, bits, fl);
      case Op::Shl:   return intOp<Op::Shl>(a, b, bits, fl);
      case Op::Shr:   return intOp<Op::Shr>(a, b, bits, fl);
      case Op::Mul:   return intOp<Op::Mul>(a, b, bits, fl);
      case Op::MulHi: return intOp<Op::MulHi>(a, b, bits, fl);
      case Op::Div:   return intOp<Op::Div>(a, b, bits, fl);
      default: panic("intOp: bad op %s", opName(op));
    }
}

template <Op OP>
double
fpOp(double a, double b)
{
    switch (OP) {
      case Op::FAdd: return a + b;
      case Op::FSub: return a - b;
      case Op::FMul: return a * b;
      default: return b == 0.0 ? 0.0 : a / b; // FDiv
    }
}

/**
 * Handler index of a decoded record. Integer ALU ops get one kind
 * per op so the op folds into its handler; everything the handler
 * would otherwise branch on per execution (register file, memory
 * form, lane count) is resolved at decode time.
 */
enum class Kind : uint8_t {
    MovG, MovX, MovImm,
    Add, Sub, Adc, Sbb, And, Or, Xor, Shl, Shr, Mul, MulHi, Div,
    IntRmw, ///< any ALU op in LoadOpStore form
    Cmp, Lea, Set, Cmov,
    FMovI, I2F, F2I,
    FAdd, FSub, FMul, FDiv, ///< also VAdd/VSub/VMul (two lanes)
    FSqrt, VSplat, VPack, VReduce,
    LoadG, LoadX, StoreG, StoreX,
    Branch, Jump, Call, Ret, Nop,
    Invalid, ///< panics if executed (bad op, or fell off a block)
};

/** Register slots past the architectural ones. A missing source or
 * address register reads the always-zero slot; a missing
 * destination writes the sink, so the zero slot stays zero. */
constexpr uint8_t kGprZero = kMaxRegDepth;
constexpr uint8_t kGprSink = kMaxRegDepth + 1;
constexpr uint8_t kXmmZero = kXmmRegs;
constexpr uint8_t kXmmSink = kXmmRegs + 1;

constexpr int kMaxCallDepth = 64;

/** One predecoded static instruction plus its execution counters;
 * one cache line. */
struct alignas(64) Rec
{
    // Counted by the loop, folded into ExecResult/DynStats at the end.
    uint64_t n = 0;  ///< executions
    uint64_t pf = 0; ///< predicated-false executions
    uint64_t tk = 0; ///< taken (conditional branches only)

    int64_t imm = 0;  ///< B-operand immediate (0 when a register
                      ///< supplies it); MovImm's normalized value;
                      ///< Call's return address
    int64_t disp = 0; ///< 0 unless the op addresses memory (or Lea)
    uint32_t t0 = 0;  ///< Branch/Jump target, Call entry
    uint32_t t1 = 0;  ///< Branch fall-through
    Kind kind = Kind::Invalid;
    Op op = Op::Nop; ///< IntRmw's ALU op
    Cond cond = Cond::Eq;
    uint8_t bits = 64;
    uint8_t msize = 0; ///< memory bytes; pointer bytes for Call/Ret
    uint8_t scale = 0;
    uint8_t dst = kGprSink;
    uint8_t src = kGprZero;  ///< first source (file depends on kind)
    uint8_t srcB = kGprZero; ///< integer B operand register
    uint8_t base = kGprZero;
    uint8_t index = kGprZero;
    uint8_t pred = kGprZero;
    bool predicated : 1 = false;
    bool predSense : 1 = false; ///< skip if (gpr[pred] != 0) != this
    bool memSrc : 1 = false;    ///< B operand from memory (LoadOp)
    bool lanes2 : 1 = false;    ///< packed: both 64-bit lanes
    bool hasSrc : 1 = false;    ///< Ret carries a return value
    bool memAddr : 1 = false;   ///< Lea: a memory form (records maddr)
};
static_assert(sizeof(Rec) == 64);

/** A MachineProgram decoded into one flat record array: functions
 * back to back, each block followed by an Invalid record so control
 * that falls off a block panics instead of running on. */
struct Decoded
{
    std::vector<Rec> recs;
    std::vector<const MachineInstr *> origin; ///< nullptr: Invalid pad
};

uint8_t
gprSlot(int r, uint8_t none)
{
    if (r < 0)
        return none;
    panic_if(r >= kMaxRegDepth, "machine exec: gpr %d out of range", r);
    return uint8_t(r);
}

uint8_t
xmmSlot(int r, uint8_t none)
{
    if (r < 0)
        return none;
    panic_if(r >= kXmmRegs, "machine exec: xmm %d out of range", r);
    return uint8_t(r);
}

/** The handler of an integer ALU op; Invalid for any other op. */
Kind
aluKind(Op op)
{
    switch (op) {
      case Op::Add:   return Kind::Add;
      case Op::Sub:   return Kind::Sub;
      case Op::Adc:   return Kind::Adc;
      case Op::Sbb:   return Kind::Sbb;
      case Op::And:   return Kind::And;
      case Op::Or:    return Kind::Or;
      case Op::Xor:   return Kind::Xor;
      case Op::Shl:   return Kind::Shl;
      case Op::Shr:   return Kind::Shr;
      case Op::Mul:   return Kind::Mul;
      case Op::MulHi: return Kind::MulHi;
      case Op::Div:   return Kind::Div;
      default:        return Kind::Invalid;
    }
}

Kind
fpKind(Op op)
{
    switch (op) {
      case Op::FAdd: case Op::VAdd: return Kind::FAdd;
      case Op::FSub: case Op::VSub: return Kind::FSub;
      case Op::FMul: case Op::VMul: return Kind::FMul;
      default:                      return Kind::FDiv;
    }
}

/** Decode one instruction; successors are resolved by the caller. */
Rec
decodeInstr(const MachineInstr &i, int ptr_bits)
{
    Rec r;
    r.op = i.op;
    r.cond = i.cond;
    r.bits = i.opBits;
    r.msize = uint8_t(i.memBytes());
    if (i.predReg >= 0) {
        r.predicated = true;
        r.pred = gprSlot(i.predReg, kGprZero);
        r.predSense = i.predSense;
    }
    // Address fields stay zero unless the op has a memory operand
    // (or is Lea), so the loop's per-op address is 0 for the rest.
    if (i.form != MemForm::None || i.op == Op::Lea) {
        r.base = gprSlot(i.mem.base, kGprZero);
        r.index = gprSlot(i.mem.index, kGprZero);
        r.scale = uint8_t(i.mem.scale);
        r.disp = i.mem.disp;
    }
    // The integer B operand: a register, else the immediate.
    auto operandB = [&](int reg) {
        r.srcB = gprSlot(reg, kGprZero);
        r.imm = reg >= 0 ? 0 : i.imm;
        r.memSrc = i.form == MemForm::LoadOp;
    };
    switch (i.op) {
      case Op::Mov:
        r.kind = i.fp ? Kind::MovX : Kind::MovG;
        if (i.fp) {
            r.dst = xmmSlot(i.dst, kXmmSink);
            r.src = xmmSlot(i.src1, kXmmZero);
        } else {
            r.dst = gprSlot(i.dst, kGprSink);
            r.src = gprSlot(i.src1, kGprZero);
        }
        break;
      case Op::MovImm:
        r.kind = Kind::MovImm;
        r.dst = gprSlot(i.dst, kGprSink);
        r.imm = norm(i.imm, i.opBits);
        break;
      case Op::Add: case Op::Sub: case Op::Adc: case Op::Sbb:
      case Op::And: case Op::Or: case Op::Xor: case Op::Shl:
      case Op::Shr: case Op::Mul: case Op::MulHi: case Op::Div:
        if (i.fp) // Invalid: panics when executed
            break;
        operandB(i.src1);
        if (i.form == MemForm::LoadOpStore) {
            r.kind = Kind::IntRmw;
            r.memSrc = false;
        } else {
            r.kind = aluKind(i.op);
            r.dst = gprSlot(i.dst, kGprSink);
        }
        break;
      case Op::Cmp:
        r.kind = Kind::Cmp;
        r.src = gprSlot(i.src1, kGprZero);
        operandB(i.src2);
        break;
      case Op::Lea:
        r.kind = Kind::Lea;
        r.dst = gprSlot(i.dst, kGprSink);
        r.memAddr = i.form != MemForm::None;
        break;
      case Op::Set:
        r.kind = Kind::Set;
        r.dst = gprSlot(i.dst, kGprSink);
        break;
      case Op::Cmov:
        r.kind = Kind::Cmov;
        r.dst = gprSlot(i.dst, kGprSink);
        r.src = gprSlot(i.src1, kGprZero);
        break;
      case Op::FMovI: case Op::I2F:
        r.kind = i.op == Op::FMovI ? Kind::FMovI : Kind::I2F;
        r.dst = xmmSlot(i.dst, kXmmSink);
        r.src = gprSlot(i.src1, kGprZero);
        break;
      case Op::F2I:
        r.kind = Kind::F2I;
        r.dst = gprSlot(i.dst, kGprSink);
        r.src = xmmSlot(i.src1, kXmmZero);
        break;
      case Op::FAdd: case Op::FSub: case Op::FMul: case Op::FDiv:
      case Op::VAdd: case Op::VSub: case Op::VMul:
        r.kind = fpKind(i.op);
        r.dst = xmmSlot(i.dst, kXmmSink);
        r.src = xmmSlot(i.src1, kXmmZero);
        r.lanes2 = i.vec || isSimdOp(i.op);
        r.memSrc = i.form == MemForm::LoadOp;
        break;
      case Op::FSqrt: case Op::VSplat: case Op::VPack:
      case Op::VReduce:
        r.kind = i.op == Op::FSqrt    ? Kind::FSqrt
                 : i.op == Op::VSplat ? Kind::VSplat
                 : i.op == Op::VPack  ? Kind::VPack
                                      : Kind::VReduce;
        r.dst = xmmSlot(i.dst, kXmmSink);
        r.src = xmmSlot(i.src1, kXmmZero);
        break;
      case Op::Load:
        r.kind = i.fp ? Kind::LoadX : Kind::LoadG;
        r.dst = i.fp ? xmmSlot(i.dst, kXmmSink)
                     : gprSlot(i.dst, kGprSink);
        r.lanes2 = i.vec;
        break;
      case Op::Store:
        r.kind = i.fp ? Kind::StoreX : Kind::StoreG;
        r.src = i.fp ? xmmSlot(i.src1, kXmmZero)
                     : gprSlot(i.src1, kGprZero);
        r.lanes2 = i.vec;
        break;
      case Op::Branch: case Op::Jump:
        r.kind = i.op == Op::Branch ? Kind::Branch : Kind::Jump;
        break;
      case Op::Call:
        r.kind = Kind::Call;
        r.imm = int64_t(i.addr + i.len);
        r.msize = uint8_t(ptr_bits / 8);
        break;
      case Op::Ret:
        r.kind = Kind::Ret;
        r.hasSrc = i.src1 >= 0;
        r.src = gprSlot(i.src1, kGprZero);
        r.msize = uint8_t(ptr_bits / 8);
        break;
      case Op::Nop:
        r.kind = Kind::Nop;
        break;
      default:
        break;
    }
    return r;
}

Decoded
decode(const MachineProgram &prog)
{
    // Pass 1: flat indices of every function entry and block start;
    // the final record is the shared Invalid pad for missing targets.
    std::vector<std::vector<uint32_t>> blockAt(prog.funcs.size());
    std::vector<uint32_t> funcAt(prog.funcs.size());
    uint32_t n = 0;
    for (size_t f = 0; f < prog.funcs.size(); f++) {
        funcAt[f] = n;
        for (const MachineBlock &b : prog.funcs[f].blocks) {
            blockAt[f].push_back(n);
            n += uint32_t(b.instrs.size()) + 1;
        }
    }
    const uint32_t pad = n;
    for (size_t f = 0; f < prog.funcs.size(); f++) {
        if (prog.funcs[f].blocks.empty())
            funcAt[f] = pad;
    }

    Decoded d;
    d.recs.reserve(n + 1);
    d.origin.reserve(n + 1);
    int ptr_bits = prog.target.widthBits();
    for (size_t f = 0; f < prog.funcs.size(); f++) {
        const std::vector<uint32_t> &at = blockAt[f];
        auto block = [&](int b) {
            return b >= 0 && size_t(b) < at.size() ? at[size_t(b)]
                                                   : pad;
        };
        for (const MachineBlock &b : prog.funcs[f].blocks) {
            for (const MachineInstr &i : b.instrs) {
                Rec r = decodeInstr(i, ptr_bits);
                if (i.op == Op::Branch || i.op == Op::Jump) {
                    r.t0 = block(i.succ0);
                    r.t1 = block(i.succ1);
                } else if (i.op == Op::Call) {
                    r.t0 = i.callee >= 0 &&
                                   size_t(i.callee) < funcAt.size()
                               ? funcAt[size_t(i.callee)]
                               : pad;
                }
                d.recs.push_back(r);
                d.origin.push_back(&i);
            }
            d.recs.emplace_back();
            d.origin.push_back(nullptr);
        }
    }
    d.recs.emplace_back();
    d.origin.push_back(nullptr);
    return d;
}

/** The integer B operand: memory (LoadOp), else register/immediate. */
int64_t
opB(const Rec &r, const int64_t *g, const MemImage &img, uint64_t addr)
{
    if (r.memSrc) {
        uint64_t mv = img.load(addr, r.msize);
        return r.msize == 4 ? norm(int64_t(mv), 32) : int64_t(mv);
    }
    return g[r.srcB] + r.imm;
}

/** One 64-bit lane of an FP arithmetic kind. */
uint64_t
fpLane(Kind k, uint64_t a, uint64_t b)
{
    double fa = asF(a), fb = asF(b);
    switch (k) {
      case Kind::FAdd: return asBits(fpOp<Op::FAdd>(fa, fb));
      case Kind::FSub: return asBits(fpOp<Op::FSub>(fa, fb));
      case Kind::FMul: return asBits(fpOp<Op::FMul>(fa, fb));
      default:         return asBits(fpOp<Op::FDiv>(fa, fb));
    }
}

[[noreturn]] void
invalid(const MachineInstr *i)
{
    if (!i)
        panic("machine exec: control fell off the end of a block");
    if (aluKind(i->op) != Kind::Invalid)
        panic("fp value in integer op");
    panic("machine exec: unhandled op %s", opName(i->op));
}

/** The static half of an instruction's DynOp; the loop fills in
 * maddr, msize and the taken/predicated-false bits. */
DynOp
dynTemplate(const MachineInstr &i, uint8_t msize)
{
    DynOp op;
    op.pc = i.addr;
    op.len = i.len;
    op.uops = i.uops;
    op.msize = msize;
    op.cls = i.cls();
    op.form = i.form;
    op.opBits = i.opBits;
    op.flags = uint16_t(
        (i.isBranch() ? DynIsBranch : 0) |
        (i.predReg >= 0 ? DynPredicated : 0) | (i.fp ? DynFp : 0) |
        (i.vec ? DynVec : 0) | (i.wideData ? DynWideData : 0) |
        (i.op == Op::Call ? DynCall : 0) |
        (i.op == Op::Ret ? DynRet : 0));

    auto rid = [&](int r, bool fp) -> int16_t {
        if (r < 0)
            return -1;
        return int16_t(fp ? kXmmBase + r : r);
    };
    // Cross-file ops: I2F reads a GPR, F2I writes one, FMovI reads.
    bool src_fp = i.fp && i.op != Op::FMovI && i.op != Op::I2F;
    bool dst_fp = i.fp && i.op != Op::F2I;
    op.dst = rid(i.dst, dst_fp);
    op.src1 = rid(i.src1, src_fp);
    op.src2 = rid(i.src2, src_fp);
    op.base = rid(i.mem.base, false);
    op.index = rid(i.mem.index, false);
    op.pred = rid(i.predReg, false);
    switch (i.op) {
      case Op::Mov: case Op::MovImm: case Op::Load: case Op::Set:
      case Op::Lea: case Op::FMovI: case Op::I2F: case Op::F2I:
      case Op::FSqrt: case Op::VSplat: case Op::VReduce:
        break;
      default:
        op.readsDst = i.dst >= 0;
        break;
    }
    if (i.predReg >= 0)
        op.readsDst = op.readsDst || i.dst >= 0;
    switch (i.op) {
      case Op::Cmp:
        op.writesFlags = true;
        break;
      case Op::Branch:
      case Op::Cmov:
      case Op::Set:
        op.readsFlags = true;
        break;
      case Op::Adc:
      case Op::Sbb:
        op.readsFlags = true;
        op.writesFlags = true;
        break;
      case Op::Add: case Op::Sub: case Op::And: case Op::Or:
      case Op::Xor: case Op::Shl: case Op::Shr:
        op.writesFlags = true;
        break;
      default:
        break;
    }
    return op;
}

/** Add @p r's executions to @p d: Figure 2's mix as integer sums of
 * the per-instruction counters. */
void
foldDyn(const MachineInstr &i, const Rec &r, DynStats &d)
{
    uint64_t n = r.n;
    uint64_t live = r.n - r.pf; // executions with an effect
    d.macroOps += n;
    d.uops += n * i.uops;
    d.fetchBytes += n * i.len;
    if (i.predReg >= 0) {
        d.predicated += n;
        d.predFalse += r.pf;
    }
    uint64_t *by = d.uopsByClass;
    size_t primary = size_t(i.cls());
    uint64_t mb = r.msize;
    switch (i.form) {
      case MemForm::None:
        by[primary] += n * i.uops;
        break;
      case MemForm::Load:
        by[size_t(MicroClass::Load)] += n * i.uops;
        d.loads += live * i.uops;
        d.memBytes += live * mb;
        break;
      case MemForm::Store:
        by[size_t(MicroClass::Store)] += n * i.uops;
        d.stores += live * i.uops;
        d.memBytes += live * mb;
        break;
      case MemForm::LoadOp:
        by[size_t(MicroClass::Load)] += n;
        by[primary] += n * uint64_t(int64_t(i.uops) - 1);
        d.loads += live;
        d.memBytes += live * mb;
        break;
      case MemForm::LoadOpStore:
        by[size_t(MicroClass::Load)] += n;
        by[primary] += n;
        by[size_t(MicroClass::IntAlu)] += n; // store-address gen
        by[size_t(MicroClass::Store)] += n;
        d.loads += live;
        d.stores += live;
        d.memBytes += live * 2 * mb;
        break;
    }
    if (i.isBranch())
        d.branches += n;
    if (r.kind == Kind::Branch)
        d.taken += r.tk;
    else if (r.kind == Kind::Jump || r.kind == Kind::Call ||
             r.kind == Kind::Ret)
        d.taken += live;
}

void
noteStore(ExecResult &res, uint64_t stack_base, uint64_t addr,
          uint64_t val, int bytes, bool fp_scalar)
{
    if (addr >= stack_base)
        return;
    if (fp_scalar) {
        res.fpSum += asF(val);
    } else {
        uint64_t mask = bytes >= 8 ? ~uint64_t(0)
                                   : ((uint64_t(1) << (bytes * 8)) - 1);
        res.intChecksum = checksumStep(res.intChecksum, val & mask);
    }
}

} // namespace

ExecResult
executeMachine(const MachineProgram &prog, MemImage &img,
               uint64_t max_macro_ops, Trace *trace,
               uint64_t trace_cap, uint64_t record_cap)
{
    Decoded d = decode(prog);
    std::vector<Rec> &code = d.recs;

    // The run stops before the op that would exceed the fuel, or
    // (with a trace) right after the first op past the trace cap.
    uint64_t stop_at = max_macro_ops;
    if (trace && trace_cap < max_macro_ops)
        stop_at = trace_cap + 1;
    // Ops are recorded while ops->size() < rec_limit, each copied
    // from its instruction's template; a capped prefix is reserved
    // up front.
    std::vector<DynOp> *ops = trace ? &trace->ops : nullptr;
    uint64_t rec_limit = trace ? std::min(record_cap, trace_cap) : 0;
    uint64_t nrec = ops ? ops->size() : 0;
    std::vector<DynOp> tmpl;
    if (nrec < rec_limit) {
        tmpl.reserve(code.size());
        for (size_t k = 0; k < code.size(); k++) {
            const MachineInstr *i = d.origin[k];
            tmpl.push_back(i ? dynTemplate(*i, code[k].msize) : DynOp{});
        }
        if (record_cap < trace_cap)
            ops->reserve(rec_limit);
    }

    ExecResult res;
    int64_t g[kMaxRegDepth + 2] = {};
    Xmm x[kXmmRegs + 2] = {};
    Flags fl;
    const int psz = prog.target.widthBits() / 8;
    const uint64_t stack_base = img.stackBase;
    g[kSpReg] = int64_t(img.stackBase + img.stackSize - 64);
    Rec *stack[kMaxCallDepth];
    int depth = 0;
    bool finished = false;
    uint64_t dyn = 0;
    Rec *const first = code.data();
    Rec *pc = prog.funcs.empty() ? &code.back() : first;

    // One check per op: `event` is the op count at which the loop
    // must look up from executing: every op while recording, else
    // the stop (fuel or trace cap), or 0 once the entry returns.
    uint64_t event = nrec < rec_limit ? 0 : stop_at;
    while (stop_at > 0) {
        Rec &r = *pc;
        dyn++;
        r.n++;
        Rec *next = pc + 1;
        bool taken = false;
        bool pred_false = false;
        // Computed before the op runs: it may overwrite its base.
        uint64_t addr = uint64_t(r.disp) + uint64_t(g[r.base]) +
                        uint64_t(g[r.index]) * r.scale;
        if (r.predicated &&
            (g[r.pred] != 0) != r.predSense) [[unlikely]] {
            pred_false = true;
            r.pf++;
        } else {
            switch (r.kind) {
              case Kind::MovG: g[r.dst] = norm(g[r.src], r.bits); break;
              case Kind::MovX: x[r.dst] = x[r.src]; break;
              case Kind::MovImm: g[r.dst] = r.imm; break;
              case Kind::Add:
                g[r.dst] = intOp<Op::Add>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::Sub:
                g[r.dst] = intOp<Op::Sub>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::Adc:
                g[r.dst] = intOp<Op::Adc>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::Sbb:
                g[r.dst] = intOp<Op::Sbb>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::And:
                g[r.dst] = intOp<Op::And>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::Or:
                g[r.dst] = intOp<Op::Or>(g[r.dst], opB(r, g, img, addr),
                                         r.bits, fl);
                break;
              case Kind::Xor:
                g[r.dst] = intOp<Op::Xor>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::Shl:
                g[r.dst] = intOp<Op::Shl>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::Shr:
                g[r.dst] = intOp<Op::Shr>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::Mul:
                g[r.dst] = intOp<Op::Mul>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::MulHi:
                g[r.dst] = intOp<Op::MulHi>(g[r.dst], opB(r, g, img, addr),
                                            r.bits, fl);
                break;
              case Kind::Div:
                g[r.dst] = intOp<Op::Div>(g[r.dst], opB(r, g, img, addr),
                                          r.bits, fl);
                break;
              case Kind::IntRmw: {
                uint64_t mv = img.load(addr, r.msize);
                int64_t m = r.msize == 4 ? norm(int64_t(mv), 32)
                                         : int64_t(mv);
                int64_t v = intOpAny(r.op, m, opB(r, g, img, addr),
                                     r.bits, fl);
                img.store(addr, uint64_t(v), r.msize);
                noteStore(res, stack_base, addr, uint64_t(v), r.msize,
                          false);
                break;
              }
              case Kind::Cmp: {
                int64_t a = g[r.src];
                int64_t bv = opB(r, g, img, addr);
                fl.a = norm(a, r.bits);
                fl.b = norm(bv, r.bits);
                uint64_t ua = r.bits == 32 ? uint32_t(uint64_t(a))
                                           : uint64_t(a);
                uint64_t ub = r.bits == 32 ? uint32_t(uint64_t(bv))
                                           : uint64_t(bv);
                fl.carry = ua < ub;
                break;
              }
              case Kind::Lea:
                g[r.dst] = norm(int64_t(addr), r.bits);
                if (!r.memAddr)
                    addr = 0; // not a memory access
                break;
              case Kind::Set:
                g[r.dst] = evalCond(r.cond, fl.a, fl.b) ? 1 : 0;
                break;
              case Kind::Cmov:
                if (evalCond(r.cond, fl.a, fl.b))
                    g[r.dst] = norm(g[r.src], r.bits);
                break;
              case Kind::FMovI:
                x[r.dst].lo = uint64_t(g[r.src]);
                break;
              case Kind::I2F:
                x[r.dst].lo = asBits(double(g[r.src]));
                break;
              case Kind::F2I: {
                double v = asF(x[r.src].lo);
                int64_t iv = (v >= -9.0e18 && v <= 9.0e18) ? int64_t(v)
                                                           : 0;
                g[r.dst] = norm(iv, r.bits);
                break;
              }
              case Kind::FAdd: case Kind::FSub: case Kind::FMul:
              case Kind::FDiv: {
                uint64_t blo, bhi = 0;
                if (r.memSrc) {
                    blo = img.load(addr, 8);
                    if (r.lanes2)
                        bhi = img.load(addr + 8, 8);
                } else {
                    blo = x[r.src].lo;
                    bhi = x[r.src].hi;
                }
                x[r.dst].lo = fpLane(r.kind, x[r.dst].lo, blo);
                if (r.lanes2)
                    x[r.dst].hi = fpLane(r.kind, x[r.dst].hi, bhi);
                break;
              }
              case Kind::FSqrt:
                x[r.dst].lo =
                    asBits(std::sqrt(std::fabs(asF(x[r.src].lo))));
                break;
              case Kind::VSplat:
                x[r.dst].lo = x[r.src].lo;
                x[r.dst].hi = x[r.src].lo;
                break;
              case Kind::VPack:
                x[r.dst].hi = x[r.src].lo;
                break;
              case Kind::VReduce: {
                double s = asF(x[r.src].lo) + asF(x[r.src].hi);
                x[r.dst].lo = asBits(s);
                x[r.dst].hi = 0;
                break;
              }
              case Kind::LoadG: {
                uint64_t v = img.load(addr, r.msize);
                g[r.dst] = r.msize == 4 ? norm(int64_t(v), 32)
                                        : int64_t(v);
                break;
              }
              case Kind::LoadX:
                x[r.dst].lo = img.load(addr, 8);
                if (r.lanes2)
                    x[r.dst].hi = img.load(addr + 8, 8);
                break;
              case Kind::StoreG: {
                uint64_t v = uint64_t(g[r.src]);
                img.store(addr, v, r.msize);
                noteStore(res, stack_base, addr, v, r.msize, false);
                break;
              }
              case Kind::StoreX: {
                Xmm v = x[r.src];
                img.store(addr, v.lo, 8);
                if (r.lanes2) {
                    img.store(addr + 8, v.hi, 8);
                    noteStore(res, stack_base, addr, v.lo, 8, false);
                    noteStore(res, stack_base, addr + 8, v.hi, 8,
                              false);
                } else {
                    noteStore(res, stack_base, addr, v.lo, 8, true);
                }
                break;
              }
              case Kind::Branch:
                taken = evalCond(r.cond, fl.a, fl.b);
                r.tk += taken;
                next = first + (taken ? r.t0 : r.t1);
                break;
              case Kind::Jump:
                taken = true;
                next = first + r.t0;
                break;
              case Kind::Call:
                panic_if(depth >= kMaxCallDepth,
                         "machine call depth overflow");
                taken = true;
                g[kSpReg] -= psz;
                addr = uint64_t(g[kSpReg]);
                img.store(addr, uint64_t(r.imm), psz);
                stack[depth++] = pc + 1;
                next = first + r.t0;
                break;
              case Kind::Ret:
                taken = true;
                addr = uint64_t(g[kSpReg]);
                (void)img.load(addr, psz);
                if (r.hasSrc)
                    res.retVal = g[r.src];
                if (depth == 0) {
                    finished = true;
                    event = 0;
                } else {
                    next = stack[--depth];
                    g[kSpReg] += psz;
                }
                break;
              case Kind::Nop:
                break;
              case Kind::Invalid:
                invalid(d.origin[size_t(pc - first)]);
              default:
                __builtin_unreachable();
            }
        }

        if (dyn >= event) [[unlikely]] {
            if (nrec < rec_limit) {
                DynOp &op = ops->emplace_back(tmpl[size_t(pc - first)]);
                if (pred_false) {
                    op.flags |= DynPredFalse;
                    op.msize = 0;
                } else {
                    op.maddr = addr;
                    op.flags |= taken ? DynTaken : 0;
                }
                nrec++;
            }
            if (finished || dyn >= stop_at)
                break;
            event = nrec < rec_limit ? 0 : stop_at;
        }
        pc = next;
    }

    res.dynInstrs = dyn;
    if (trace && dyn > trace_cap)
        trace->truncated = true;
    else if (!finished)
        res.ranOut = true;

    for (size_t k = 0; k < code.size(); k++) {
        const Rec &r = code[k];
        if (!r.n)
            continue;
        uint64_t live = r.n - r.pf;
        switch (r.kind) {
          case Kind::LoadG: case Kind::LoadX:
            res.loads += live;
            break;
          case Kind::StoreG: case Kind::StoreX:
            res.stores += live;
            break;
          case Kind::IntRmw:
            res.loads += live;
            res.stores += live;
            break;
          case Kind::Branch: case Kind::Jump: case Kind::Call:
          case Kind::Ret:
            res.branches += live;
            break;
          default:
            if (r.memSrc)
                res.loads += live;
            break;
        }
        if (trace)
            foldDyn(*d.origin[k], r, trace->dyn);
    }

    if (trace) {
        // Backpatch each op's dynamic successor address.
        auto &v = trace->ops;
        for (size_t i = 0; i + 1 < v.size(); i++)
            v[i].target = v[i + 1].pc;
        if (!v.empty())
            v.back().target = v.back().pc + v.back().len;
    }
    return res;
}

} // namespace cisa
