/**
 * @file
 * IR interpreter and the shared memory image.
 *
 * The interpreter executes an IrModule directly and produces an
 * observable result (return value, a checksum of integer stores, and
 * a tolerance-comparable sum of FP stores). Compiled machine code for
 * any feature set of the same pointer width must reproduce this
 * result exactly (integers) / within tolerance (FP, because
 * vectorization reassociates reductions) — the backbone of the
 * compiler's correctness tests.
 *
 * MemImage assigns concrete base addresses to the module's regions
 * and materializes their initial contents; both interpreters and the
 * functional trace executor share it, so data-dependent branches and
 * pointer-chasing loads behave identically everywhere.
 */

#ifndef CISA_COMPILER_INTERP_HH
#define CISA_COMPILER_INTERP_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "compiler/ir.hh"

namespace cisa
{

/**
 * Deterministic region layout for one pointer width: base address of
 * each region. @p stack_base (optional) receives the first address
 * past the data. Shared by the interpreters and the code generator,
 * which burns region bases into the compiled code.
 */
std::vector<uint64_t> regionLayout(const IrModule &m, int ptr_bits,
                                   uint64_t *stack_base = nullptr);

/** Concrete memory image of a module for one pointer width. */
struct MemImage
{
    std::vector<uint8_t> mem;
    std::vector<uint64_t> regionBase; ///< per region
    uint64_t stackBase = 0;           ///< grows upward; machine only
    uint64_t stackSize = 0;
    int ptrBits = 64;

    /** Lay out and initialize all regions of @p m. */
    static MemImage build(const IrModule &m, int ptr_bits);

    /** Little-endian access of 0-8 bytes; out of bounds panics.
     * Inline, with 4- and 8-byte fast paths: the functional
     * executor makes one or two per executed memory op. */
    uint64_t
    load(uint64_t addr, int bytes) const
    {
        if (addr + uint64_t(bytes) > mem.size()) [[unlikely]]
            outOfBounds("load", addr, bytes);
        uint64_t v = 0;
        copyBytes(&v, mem.data() + addr, bytes);
        return v;
    }

    void
    store(uint64_t addr, uint64_t val, int bytes)
    {
        if (addr + uint64_t(bytes) > mem.size()) [[unlikely]]
            outOfBounds("store", addr, bytes);
        copyBytes(mem.data() + addr, &val, bytes);
    }

    /** Total footprint in bytes (excluding the stack). */
    uint64_t dataBytes() const { return stackBase; }

  private:
    static void
    copyBytes(void *dst, const void *src, int bytes)
    {
        if (bytes == 8)
            std::memcpy(dst, src, 8);
        else if (bytes == 4)
            std::memcpy(dst, src, 4);
        else
            std::memcpy(dst, src, size_t(bytes));
    }

    [[noreturn]] void outOfBounds(const char *what, uint64_t addr,
                                  int bytes) const;
};

/** Observable outcome of executing a module. */
struct ExecResult
{
    int64_t retVal = 0;
    uint64_t intChecksum = 0; ///< FNV over non-stack integer stores
    double fpSum = 0.0;       ///< sum of non-stack FP stores
    uint64_t dynInstrs = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    bool ranOut = false; ///< fuel exhausted before Ret
};

/** FNV-1a step shared by both interpreters. */
inline uint64_t
checksumStep(uint64_t h, uint64_t v)
{
    h ^= v;
    return h * 1099511628211ULL;
}

/**
 * Execute @p m's entry function to completion (or until @p fuel
 * dynamic IR instructions). @p image is modified in place.
 */
ExecResult interpret(const IrModule &m, MemImage &image,
                     uint64_t fuel = 1ULL << 32);

} // namespace cisa

#endif // CISA_COMPILER_INTERP_HH
