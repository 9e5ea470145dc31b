/**
 * @file
 * Batched lockstep replay: one walk of a phase's packed trace and
 * memoized structural stream advances many timing configurations at
 * once.
 *
 * Every cell that shares a structural slice consumes the identical
 * step sequence, so the per-step work that does not depend on the
 * timing configuration happens once per walk: one cursor set, one
 * decoded step, one stats update per (OoO, uop-cache, fusion)
 * combination. Only the cycle step (engine_detail::stepLanes) runs
 * per cell, over a lane type: 16 cells per vector of 32-bit stamps
 * on AVX-512 hosts whenever the walk's stamps provably fit 32 bits,
 * else one cell per 64-bit scalar lane. The walk is time-tiled. See
 * DESIGN.md §9 for the layout and the bound.
 */

#ifndef CISA_UARCH_BATCH_HH
#define CISA_UARCH_BATCH_HH

#include <vector>

#include "uarch/replay.hh"

namespace cisa
{

/**
 * Simulate @p ncells timing configurations over one packed trace and
 * one memoized structural stream in lockstep. Every cell must lie in
 * the stream's structural slice (same structuralFingerprint for
 * @p env) — cells may differ arbitrarily in timing-side parameters
 * (width, windows, FU counts, uop cache/fusion, in-order vs
 * out-of-order). Returns one PerfResult per cell, in input order,
 * byte-identical to what simulateCore would produce for each cell
 * alone; panics on a slice or budget mismatch, exactly like
 * simulateCoreReplay.
 */
std::vector<PerfResult> simulateCoreBatch(const CoreConfig *cells,
                                          size_t ncells,
                                          const ReplayTrace &packed,
                                          const StructuralStream &stream,
                                          uint64_t timed_uops,
                                          uint64_t warmup_uops,
                                          const RunEnv &env = {});

/** Whether this CPU runs the AVX-512 lane (AVX-512 F, BW, DQ and
 * VL). A walk takes it only if its stamps also fit 32 bits. */
bool batchSimdEnabled();

} // namespace cisa

#endif // CISA_UARCH_BATCH_HH
