#include "compiler/interp.hh"

#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"

namespace cisa
{

std::vector<uint64_t>
regionLayout(const IrModule &m, int ptr_bits, uint64_t *stack_base)
{
    // Regions sit at cache-line-aligned offsets from 0x1000 so that
    // address 0 stays an obvious poison value.
    std::vector<uint64_t> bases;
    uint64_t off = 0x1000;
    for (const auto &r : m.regions) {
        bases.push_back(off);
        off += (r.sizeBytes(ptr_bits) + 63) & ~uint64_t(63);
    }
    if (stack_base)
        *stack_base = (off + 4095) & ~uint64_t(4095);
    return bases;
}

MemImage
MemImage::build(const IrModule &m, int ptr_bits)
{
    MemImage img;
    img.ptrBits = ptr_bits;
    img.regionBase = regionLayout(m, ptr_bits, &img.stackBase);
    img.stackSize = 256 * 1024;
    img.mem.assign(img.stackBase + img.stackSize, 0);

    // Initialize contents.
    for (size_t ri = 0; ri < m.regions.size(); ri++) {
        const MemRegion &r = m.regions[ri];
        uint64_t base = img.regionBase[ri];
        int eb = r.elemBytes(ptr_bits);
        Pcg32 rng(r.seed, 17 + ri);
        switch (r.init) {
          case RegionInit::Zero:
            break;
          case RegionInit::RandomInt:
            for (uint64_t i = 0; i < r.count; i++) {
                uint64_t v;
                if (r.elem == ElemKind::F64) {
                    double d = rng.uniform() * 128.0 + 1.0;
                    std::memcpy(&v, &d, 8);
                } else {
                    // Keep magnitudes small so arithmetic stays well
                    // inside 32-bit range on narrow feature sets.
                    v = rng.below(1 << 16);
                }
                img.store(base + i * uint64_t(eb), v, eb);
            }
            break;
          case RegionInit::Ramp:
            for (uint64_t i = 0; i < r.count; i++)
                img.store(base + i * uint64_t(eb), i, eb);
            break;
          case RegionInit::PermutePtr: {
            // Sattolo's algorithm: one full cycle, so a pointer chase
            // visits every element (mcf-style behaviour).
            std::vector<uint64_t> next(r.count);
            for (uint64_t i = 0; i < r.count; i++)
                next[i] = i;
            for (uint64_t i = r.count - 1; i > 0; i--) {
                uint64_t j = rng.below(uint32_t(i));
                std::swap(next[i], next[j]);
            }
            for (uint64_t i = 0; i < r.count; i++) {
                img.store(base + i * uint64_t(eb),
                          base + next[i] * uint64_t(eb), eb);
            }
            break;
          }
        }
    }
    return img;
}

void
MemImage::outOfBounds(const char *what, uint64_t addr, int bytes) const
{
    panic("%s out of bounds: %llu+%d (image %zu)", what,
          static_cast<unsigned long long>(addr), bytes, mem.size());
}

namespace
{

/** A 128-bit value slot: scalar users only touch lo. */
struct Slot
{
    uint64_t lo = 0;
    uint64_t hi = 0;
};

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

/** Normalize an integer result to its type width (sign-extended for
 * data, zero-extended for pointers). */
uint64_t
normInt(uint64_t v, Type t, int ptr_bits)
{
    switch (t) {
      case Type::I32:
        return uint64_t(int64_t(int32_t(uint32_t(v))));
      case Type::PtrInt:
        return ptr_bits == 32 ? uint64_t(uint32_t(v)) : v;
      default:
        return v;
    }
}

int64_t
intBin(IrOp op, int64_t a, int64_t b)
{
    switch (op) {
      case IrOp::Add: return a + b;
      case IrOp::Sub: return a - b;
      case IrOp::Mul: return a * b;
      case IrOp::Div: return b == 0 ? 0 : a / b;
      case IrOp::And: return a & b;
      case IrOp::Or:  return a | b;
      case IrOp::Xor: return a ^ b;
      case IrOp::Shl: return int64_t(uint64_t(a) << (uint64_t(b) & 63));
      case IrOp::Shr: return int64_t(uint64_t(a) >> (uint64_t(b) & 63));
      default: panic("not an int binop: %s", irOpName(op));
    }
}

double
fpBin(IrOp op, double a, double b)
{
    switch (op) {
      case IrOp::FAdd: return a + b;
      case IrOp::FSub: return a - b;
      case IrOp::FMul: return a * b;
      case IrOp::FDiv: return b == 0.0 ? 0.0 : a / b;
      default: panic("not an fp binop: %s", irOpName(op));
    }
}

/** Interpreter state for one call frame / whole run. */
struct InterpState
{
    const IrModule &mod;
    MemImage &img;
    ExecResult res;
    uint64_t fuel;

    InterpState(const IrModule &m, MemImage &image, uint64_t f)
        : mod(m), img(image), fuel(f)
    {}

    void noteStore(uint64_t addr, uint64_t val, Type t);
    bool run(const IrFunction &f, int depth);
};

void
InterpState::noteStore(uint64_t addr, uint64_t val, Type t)
{
    if (addr >= img.stackBase)
        return; // spill traffic is not observable output
    if (t == Type::F64) {
        res.fpSum += asF(val);
    } else if (t == Type::I64 && img.ptrBits == 32) {
        // A 64-bit store lowers to two 32-bit stores (lo, hi) on
        // 32-bit targets; checksum in the same canonical order.
        res.intChecksum = checksumStep(res.intChecksum,
                                       val & 0xffffffffULL);
        res.intChecksum = checksumStep(res.intChecksum, val >> 32);
    } else {
        res.intChecksum = checksumStep(res.intChecksum, val);
    }
}

bool
InterpState::run(const IrFunction &f, int depth)
{
    panic_if(depth > 64, "call depth overflow in '%s'",
             f.name.c_str());
    int bi = 0;
    size_t pc = 0;
    // Each invocation owns a fresh frame of virtual registers, which
    // matches the machine level's caller-saved convention.
    std::vector<Slot> r(size_t(f.numVregs));
    int pbits = img.ptrBits;

    while (true) {
        if (res.dynInstrs >= fuel) {
            res.ranOut = true;
            return false;
        }
        const IrInstr &i = f.blocks[size_t(bi)].instrs[pc];
        res.dynInstrs++;
        pc++;

        // Predicated-false instructions flow through the pipeline but
        // have no architectural effect.
        if (i.predVreg >= 0 &&
            (r[size_t(i.predVreg)].lo != 0) != i.predSense) {
            continue;
        }

        auto srcB = [&](Type t) -> uint64_t {
            return i.b >= 0 ? r[size_t(i.b)].lo
                            : normInt(uint64_t(i.imm), t, pbits);
        };

        switch (i.op) {
          case IrOp::ConstInt:
            r[size_t(i.dst)].lo = normInt(uint64_t(i.imm), i.type,
                                          pbits);
            break;
          case IrOp::ConstF:
            r[size_t(i.dst)].lo = asBits(i.fimm);
            break;
          case IrOp::BaseAddr:
            r[size_t(i.dst)].lo = img.regionBase[size_t(i.imm)];
            break;
          case IrOp::Add: case IrOp::Sub: case IrOp::Mul:
          case IrOp::Div: case IrOp::And: case IrOp::Or:
          case IrOp::Xor: case IrOp::Shl: case IrOp::Shr: {
            int64_t a = int64_t(r[size_t(i.a)].lo);
            int64_t b = int64_t(srcB(i.type));
            int64_t v;
            if (i.op == IrOp::Shr &&
                (i.type == Type::I32 ||
                 (i.type == Type::PtrInt && pbits == 32))) {
                // Logical shift at the declared width, matching the
                // machine level's 32-bit shifter.
                v = int64_t(uint64_t(uint32_t(uint64_t(a)) >>
                                     (uint64_t(b) & 31)));
            } else {
                v = intBin(i.op, a, b);
            }
            r[size_t(i.dst)].lo = normInt(uint64_t(v), i.type, pbits);
            break;
          }
          case IrOp::FAdd: case IrOp::FSub: case IrOp::FMul:
          case IrOp::FDiv: {
            double a = asF(r[size_t(i.a)].lo);
            double b = asF(r[size_t(i.b)].lo);
            r[size_t(i.dst)].lo = asBits(fpBin(i.op, a, b));
            break;
          }
          case IrOp::FSqrt:
            r[size_t(i.dst)].lo =
                asBits(std::sqrt(std::fabs(asF(r[size_t(i.a)].lo))));
            break;
          case IrOp::I2F:
            r[size_t(i.dst)].lo =
                asBits(double(int64_t(r[size_t(i.a)].lo)));
            break;
          case IrOp::F2I: {
            double d = asF(r[size_t(i.a)].lo);
            // Saturate like both interpreters must: out-of-range
            // conversions are defined as 0.
            int64_t v = (d >= -9.0e18 && d <= 9.0e18) ? int64_t(d)
                                                      : 0;
            r[size_t(i.dst)].lo = normInt(uint64_t(v), i.type,
                                          pbits);
            break;
          }
          case IrOp::Gep: {
            uint64_t base = r[size_t(i.a)].lo;
            uint64_t idx = i.b >= 0 ? r[size_t(i.b)].lo : 0;
            uint64_t addr = base + idx * uint64_t(i.imm2) +
                            uint64_t(i.imm);
            r[size_t(i.dst)].lo = normInt(addr, Type::PtrInt, pbits);
            break;
          }
          case IrOp::Load: {
            uint64_t addr = r[size_t(i.a)].lo;
            int nb = typeBytes(i.type, pbits);
            uint64_t v = img.load(addr, nb);
            if (i.type == Type::I32)
                v = normInt(v, Type::I32, pbits);
            r[size_t(i.dst)].lo = v;
            res.loads++;
            break;
          }
          case IrOp::Store: {
            uint64_t addr = r[size_t(i.a)].lo;
            int nb = typeBytes(i.type, pbits);
            uint64_t v = r[size_t(i.b)].lo;
            img.store(addr, v, nb);
            noteStore(addr, v & (nb >= 8 ? ~uint64_t(0)
                                         : ((uint64_t(1) << (nb * 8)) -
                                            1)),
                      i.type);
            res.stores++;
            break;
          }
          case IrOp::ICmp: {
            int64_t a = int64_t(r[size_t(i.a)].lo);
            int64_t b = int64_t(srcB(i.type));
            r[size_t(i.dst)].lo = evalCond(i.cond, a, b) ? 1 : 0;
            break;
          }
          case IrOp::Select: {
            bool c = r[size_t(i.a)].lo != 0;
            r[size_t(i.dst)].lo =
                c ? r[size_t(i.b)].lo : r[size_t(i.c)].lo;
            break;
          }
          case IrOp::Br: {
            res.branches++;
            bool taken = r[size_t(i.a)].lo != 0;
            bi = taken ? i.succ0 : i.succ1;
            pc = 0;
            break;
          }
          case IrOp::Jmp:
            res.branches++;
            bi = i.succ0;
            pc = 0;
            break;
          case IrOp::Call: {
            res.branches++;
            if (!run(mod.funcs[size_t(i.imm)], depth + 1))
                return false;
            break;
          }
          case IrOp::Ret:
            res.branches++;
            if (i.a >= 0)
                res.retVal = int64_t(r[size_t(i.a)].lo);
            return true;
          case IrOp::VLoad: {
            uint64_t addr = r[size_t(i.a)].lo;
            r[size_t(i.dst)].lo = img.load(addr, 8);
            r[size_t(i.dst)].hi = img.load(addr + 8, 8);
            res.loads++;
            break;
          }
          case IrOp::VStore: {
            uint64_t addr = r[size_t(i.a)].lo;
            img.store(addr, r[size_t(i.b)].lo, 8);
            img.store(addr + 8, r[size_t(i.b)].hi, 8);
            noteStore(addr, r[size_t(i.b)].lo, i.type);
            noteStore(addr + 8, r[size_t(i.b)].hi, i.type);
            res.stores++;
            break;
          }
          case IrOp::VAdd: case IrOp::VSub: case IrOp::VMul: {
            const Slot &a = r[size_t(i.a)];
            const Slot &b = r[size_t(i.b)];
            Slot &d = r[size_t(i.dst)];
            // Packed lanes are always 2 x f64 (SSE2 double style);
            // the vectorizer only packs F64 streams.
            IrOp sc = i.op == IrOp::VAdd   ? IrOp::FAdd
                      : i.op == IrOp::VSub ? IrOp::FSub
                                           : IrOp::FMul;
            d.lo = asBits(fpBin(sc, asF(a.lo), asF(b.lo)));
            d.hi = asBits(fpBin(sc, asF(a.hi), asF(b.hi)));
            break;
          }
          case IrOp::VSplat:
            r[size_t(i.dst)].lo = r[size_t(i.a)].lo;
            r[size_t(i.dst)].hi = r[size_t(i.a)].lo;
            break;
          case IrOp::VPack:
            r[size_t(i.dst)].lo = r[size_t(i.a)].lo;
            r[size_t(i.dst)].hi = r[size_t(i.b)].lo;
            break;
          case IrOp::VReduce: {
            const Slot &a = r[size_t(i.a)];
            r[size_t(i.dst)].lo = asBits(asF(a.lo) + asF(a.hi));
            r[size_t(i.dst)].hi = 0;
            break;
          }
          default:
            panic("interp: unhandled op %s", irOpName(i.op));
        }
    }
}

} // namespace

ExecResult
interpret(const IrModule &m, MemImage &image, uint64_t fuel)
{
    InterpState st(m, image, fuel);
    st.run(m.funcs[0], 0);
    return st.res;
}

} // namespace cisa
