#include "core/cisa.hh"

#include "common/env.hh"
#include "common/logging.hh"

namespace cisa
{

const char *
versionString()
{
    return "cisa 1.0.0 (composite-ISA cores, HPCA'19 reproduction)";
}

CompiledRun
compileAndRun(const IrModule &module, const FeatureSet &isa,
              const CompileOptions *options, uint64_t record_cap)
{
    CompileOptions opts =
        options ? *options : CompileOptions::fromEnv();
    opts.target = isa;

    CompiledRun out;
    CompileReport rep;
    out.program = compile(module, opts, &rep, &out.transformedIr);
    MemImage img = MemImage::build(out.transformedIr,
                                   isa.widthBits());
    out.result = executeMachine(out.program, img, 1ULL << 31,
                                &out.trace, 1ULL << 21, record_cap);
    return out;
}

PhaseRun
evaluatePhase(int phase_idx, const FeatureSet &isa,
              const MicroArchConfig &uarch, uint64_t timed_uops,
              const RunEnv &env)
{
    const IrModule &mod = phaseModule(phase_idx);

    CompileOptions opts = CompileOptions::fromEnv();
    opts.target = isa;
    CompileReport rep;
    IrModule ir;
    MachineProgram prog = compile(mod, opts, &rep, &ir);

    // The simulation reads at most warm + timed ops (one uop or
    // more each) plus one successor, so only that prefix is recorded;
    // the run itself goes to completion for the per-run op count.
    uint64_t timed = timed_uops ? timed_uops : simUopBudget();
    uint64_t warm = simWarmupUops();
    MemImage img = MemImage::build(ir, isa.widthBits());
    Trace trace;
    ExecResult er = executeMachine(prog, img, 1ULL << 31, &trace,
                                   1ULL << 21, warm + timed + 1);
    panic_if(trace.truncated || er.ranOut, "phase %d trace truncated",
             phase_idx);

    CoreConfig cc{isa, uarch};
    PerfResult perf = simulateCore(cc, trace, timed, warm, env);

    PhaseRun run;
    run.code = prog.stats;
    run.passes = rep;
    run.mix = trace.dyn;
    run.perf = perf;
    run.energy = coreEnergy(cc, perf.stats);
    run.areaMm2 = coreAreaMm2(cc);
    run.peakPowerW = corePeakPowerW(cc);
    double scale =
        double(trace.dyn.macroOps) / double(perf.stats.macroOps);
    run.timePerRunSec = secondsOf(perf.cycles) * scale;
    run.energyPerRunJ = run.energy.total() * scale;
    return run;
}

} // namespace cisa
