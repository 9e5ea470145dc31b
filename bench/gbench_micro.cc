/**
 * @file
 * google-benchmark microbenchmarks of the infrastructure itself:
 * compiler throughput, functional-execution rate, timing-simulation
 * rate, and the predictor/cache primitives. These guard against
 * performance regressions that would make the design-space campaign
 * intractable.
 */

#include <benchmark/benchmark.h>

#include "common/parallel.hh"
#include "core/cisa.hh"
#include "uarch/batch.hh"
#include "uarch/bpred.hh"
#include "uarch/cache.hh"
#include "uarch/replay.hh"

using namespace cisa;

namespace
{

const IrModule &
module0()
{
    return phaseModule(0);
}

const Trace &
trace0()
{
    static const Trace t = [] {
        CompiledRun run = compileAndRun(module0(),
                                        FeatureSet::x86_64());
        return run.trace;
    }();
    return t;
}

void
BM_Compile(benchmark::State &state)
{
    FeatureSet fs = FeatureSet::byId(int(state.range(0)));
    CompileOptions opts;
    opts.target = fs;
    uint64_t instrs = 0;
    for (auto _ : state) {
        MachineProgram p = compile(module0(), opts);
        instrs += p.stats.instrs;
        benchmark::DoNotOptimize(p.stats.codeBytes);
    }
    state.counters["instrs/s"] = benchmark::Counter(
        double(instrs), benchmark::Counter::kIsRate);
}

void
BM_FunctionalExecution(benchmark::State &state)
{
    // The functional executor alone, on a composite ISA (the
    // superset's full predication and packed SIMD): a fresh MemImage
    // per iteration is copied outside the timed region. The argument
    // is the record cap: 0 counts only (fig02/sec3), 7501 is the
    // campaign's warm + timed + 1 prefix at the default budget, and
    // -1 records the whole trace (migration, fig14). time/macroop
    // is timed seconds per executed macro-op.
    FeatureSet fs = FeatureSet::superset();
    CompileOptions opts;
    opts.target = fs;
    IrModule ir;
    MachineProgram prog = compile(module0(), opts, nullptr, &ir);
    const MemImage fresh = MemImage::build(ir, fs.widthBits());
    uint64_t cap = state.range(0) < 0 ? ~uint64_t(0)
                                      : uint64_t(state.range(0));
    uint64_t ops = 0;
    for (auto _ : state) {
        state.PauseTiming();
        MemImage img = fresh;
        Trace trace;
        state.ResumeTiming();
        ExecResult r = executeMachine(prog, img, 1ULL << 31, &trace,
                                      1ULL << 21, cap);
        ops += r.dynInstrs;
        benchmark::DoNotOptimize(r.intChecksum);
        benchmark::DoNotOptimize(trace.ops.data());
        state.PauseTiming();
        trace = Trace();
        state.ResumeTiming();
    }
    state.counters["time/macroop"] = benchmark::Counter(
        double(ops),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_IrInterpreter(benchmark::State &state)
{
    uint64_t ops = 0;
    for (auto _ : state) {
        MemImage img = MemImage::build(module0(), 64);
        ExecResult r = interpret(module0(), img);
        ops += r.dynInstrs;
        benchmark::DoNotOptimize(r.retVal);
    }
    state.counters["ops/s"] = benchmark::Counter(
        double(ops), benchmark::Counter::kIsRate);
}

void
BM_TimingSimulation(benchmark::State &state)
{
    bool ooo = state.range(0) != 0;
    MicroArchConfig ua;
    for (const auto &c : MicroArchConfig::enumerate()) {
        if (c.outOfOrder == ooo && c.width == 2 &&
            c.bpred == BpKind::Tournament && c.uopCache) {
            ua = c;
            break;
        }
    }
    CoreConfig cc{FeatureSet::x86_64(), ua};
    uint64_t uops = 0;
    for (auto _ : state) {
        PerfResult r = simulateCore(cc, trace0(), 20000, 2000);
        uops += r.stats.uops;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["uops/s"] = benchmark::Counter(
        double(uops), benchmark::Counter::kIsRate);
}

void
BM_BranchPredictor(benchmark::State &state)
{
    auto bp = BranchPredictor::create(BpKind(state.range(0)));
    uint64_t n = 0;
    uint64_t pc = 0x400000;
    for (auto _ : state) {
        bool taken = (n & 7) != 0;
        bool p = bp->predict(pc + (n % 64) * 8);
        bp->update(pc + (n % 64) * 8, taken);
        benchmark::DoNotOptimize(p);
        n++;
    }
    state.SetItemsProcessed(int64_t(n));
}

void
BM_CacheAccess(benchmark::State &state)
{
    Cache c(32, 4);
    uint64_t n = 0;
    for (auto _ : state) {
        bool hit = c.access((n * 64) & 0xFFFFF, false);
        benchmark::DoNotOptimize(hit);
        n++;
    }
    state.SetItemsProcessed(int64_t(n));
}

void
BM_ParallelFor(benchmark::State &state)
{
    // Pool fan-out overhead vs. per-index work: each index does a
    // fixed FP kernel, so items/s exposes scheduling cost at small n
    // and scaling at large n.
    size_t n = size_t(state.range(0));
    std::vector<double> out(n);
    for (auto _ : state) {
        parallelFor(n, [&](uint64_t i) {
            double x = double(i) + 1.0;
            for (int k = 0; k < 64; k++)
                x = x * 1.0000001 + 0.25;
            out[i] = x;
        });
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(int64_t(n) * state.iterations());
    state.counters["threads"] =
        double(ThreadPool::get().threads());
}

void
BM_ParallelForSerialBaseline(benchmark::State &state)
{
    size_t n = size_t(state.range(0));
    std::vector<double> out(n);
    ScopedThreadLimit serial(1);
    for (auto _ : state) {
        parallelFor(n, [&](uint64_t i) {
            double x = double(i) + 1.0;
            for (int k = 0; k < 64; k++)
                x = x * 1.0000001 + 0.25;
            out[i] = x;
        });
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(int64_t(n) * state.iterations());
}

struct BatchFix
{
    std::vector<CoreConfig> family; ///< one structural slice
    ReplayTrace packed;
    StructuralStream stream;
};

const BatchFix &
batchFix()
{
    static const BatchFix f = [] {
        BatchFix b;
        const RunEnv env{};
        auto all = MicroArchConfig::enumerate();
        uint64_t key = structuralFingerprint(all[0], env);
        for (const auto &c : all) {
            if (structuralFingerprint(c, env) == key)
                b.family.push_back(
                    CoreConfig{FeatureSet::x86_64(), c});
        }
        b.packed = ReplayTrace::build(trace0(), 22000);
        b.stream = buildStructuralStream(b.family[0], env, trace0(),
                                         b.packed, 20000, 2000);
        return b;
    }();
    return f;
}

void
BM_BatchStep(benchmark::State &state)
{
    // Lockstep walk throughput at growing group sizes: one walk
    // advances `cells` timing configurations of one structural
    // slice. Arg(1) is the one-cell walk (simulateCoreReplay), so
    // celluops/s (simulated uops x cells per second) shows what
    // sharing the decode, stream cursors and stats across a group
    // buys. On AVX-512 hosts every group, the one-cell walk too,
    // runs 16-lane groups of the shared cycle step.
    const BatchFix &f = batchFix();
    size_t group = size_t(state.range(0));
    std::vector<CoreConfig> cells;
    for (size_t i = 0; i < group; i++)
        cells.push_back(f.family[i % f.family.size()]);
    uint64_t uops = 0;
    for (auto _ : state) {
        if (group == 1) {
            PerfResult r = simulateCoreReplay(
                cells[0], f.packed, f.stream, 20000, 2000);
            uops += r.stats.uops;
            benchmark::DoNotOptimize(r.cycles);
        } else {
            std::vector<PerfResult> rs = simulateCoreBatch(
                cells.data(), group, f.packed, f.stream, 20000,
                2000);
            for (const PerfResult &r : rs)
                uops += r.stats.uops;
            benchmark::DoNotOptimize(rs.data());
        }
    }
    state.counters["celluops/s"] = benchmark::Counter(
        double(uops), benchmark::Counter::kIsRate);
    state.counters["cells"] = double(group);
}

void
BM_WorkloadSynthesis(benchmark::State &state)
{
    const PhaseProfile &p = allPhases()[size_t(state.range(0))];
    for (auto _ : state) {
        IrModule m = buildPhase(p);
        benchmark::DoNotOptimize(m.funcs[0].numVregs);
    }
}

// Pre-warm shared fixtures so setup cost never lands inside a
// single timed iteration.
const bool g_warm = [] {
    module0();
    trace0();
    batchFix();
    return true;
}();

} // namespace

BENCHMARK(BM_Compile)->Arg(0)->Arg(25);
BENCHMARK(BM_FunctionalExecution)->Arg(0)->Arg(7501)->Arg(-1);
BENCHMARK(BM_IrInterpreter);
BENCHMARK(BM_TimingSimulation)->Arg(0)->Arg(1);
BENCHMARK(BM_BranchPredictor)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_CacheAccess);
BENCHMARK(BM_ParallelFor)->Arg(64)->Arg(4096)->Arg(262144);
BENCHMARK(BM_ParallelForSerialBaseline)->Arg(4096);
BENCHMARK(BM_BatchStep)->Arg(1)->Arg(8)->Arg(30);
BENCHMARK(BM_WorkloadSynthesis)->Arg(0)->Arg(25);

BENCHMARK_MAIN();
