/**
 * @file
 * fuzz_seeds: the differential fuzzer's per-program oracle,
 * fuzz::checkProgram(fuzz::generateProgram(s)), over a fixed window
 * of kFuzzWindow seeds on one thread. Each program is compiled in
 * four modes (unsafe, safe, safe+cxprop, unsafe+cxprop) and run on
 * the IR interpreter and all three simulator cores; a Divergence or
 * an exception fails the seed.
 *
 * Run time depends strongly on which programs a window draws, so the
 * window is fixed (--fuzz-base picks it; the default and a held-out
 * window are recorded in BENCHMARK.json); the run's --seed only sets
 * the order in which the window's seeds run.
 *
 * The replica repeats the oracle through the stage functions so each
 * layer gets its own span, and it measures the quality of the
 * generated code (safe+cxprop against unsafe) for the end-to-end
 * metrics.
 */
#include <algorithm>
#include <ostream>

#include "core/pipeline.h"
#include "fuzz/fuzz.h"
#include "ir/interp.h"
#include "sim/machine.h"
#include "stats.h"
#include "support/devmap.h"
#include "workload.h"

namespace perfbench {

using namespace stos;
using namespace stos::core;

namespace {

struct Run {
    bool ok = false;
    std::string uart;
    uint64_t instructions = 0, cycles = 0;
};

/** The oracle's interpreter run (fuzz/oracles.cpp, runInterp). */
Run
runInterp(const ir::Module &m)
{
    ir::HwBus bus;
    ir::InterpOptions iopts;
    iopts.stepLimit = 50'000'000;
    ir::Interp interp(m, &bus, iopts);
    Run r;
    r.ok = interp.run("main").reason == ir::StopReason::Returned;
    for (const auto &w : bus.writeLog())
        if (w.addr == dev::kRegUartData)
            r.uart.push_back(static_cast<char>(w.value));
    return r;
}

/** The oracle's machine run (fuzz/oracles.cpp, runMachine). */
Run
runMachine(const backend::MProgram &img, sim::ExecMode mode)
{
    sim::Machine mote(img, 1, mode);
    mote.boot();
    mote.runUntilCycle(100'000'000);
    Run r;
    r.ok = mote.halted() && !mote.wedged();
    r.uart = mote.devices().uartLog();
    r.instructions = mote.instructionsExecuted();
    r.cycles = mote.cycles();
    return r;
}

class FuzzSeeds : public Workload {
  public:
    explicit FuzzSeeds(const Options &opts)
    {
        for (size_t i : seededOrder(kFuzzWindow, opts.seed))
            seeds_.push_back(opts.fuzzBase + i);
    }

    /**
     * Set-up: generate the window's programs (the reference text for
     * the pass's determinism check) and make sure each one compiles.
     */
    void
    setup() override
    {
        sources_.clear();
        for (uint64_t s : seeds_) {
            sources_.push_back(fuzz::generateProgram(s));
            runFrontend("fuzz", sources_.back());
        }
    }

    Tally
    pass() override
    {
        Tally t;
        for (size_t i = 0; i < seeds_.size(); ++i) {
            std::string where = "seed " + std::to_string(seeds_[i]) + ": ";
            try {
                std::string src = fuzz::generateProgram(seeds_[i]);
                fuzz::Divergence d = fuzz::checkProgram(src);
                if (d)
                    t.add(false, where + d.oracle + ": " + d.detail);
                else
                    t.add(src == sources_[i],
                          where + "generator is not deterministic");
            } catch (const std::exception &e) {
                t.add(false, where + e.what());
            }
        }
        return t;
    }

    /** The replica re-checks every engine and measures quality. */
    Tally check() override { return replica(nullptr).tally; }

    Quality quality() override { return quality_; }

    LayerReport
    replica(Tracer *t) override
    {
        LayerReport rep;
        rows_.clear();
        for (uint64_t seed : seeds_) {
            Tracer::Scope seedSpan(t, "seed");
            try {
                seedOnce(t, seed, rep);
            } catch (const std::exception &e) {
                rep.tally.add(false, "seed " + std::to_string(seed) + ": " +
                                         e.what());
            }
        }
        std::vector<double> code, ram;
        double maxOpt = 0;
        quality_.checksLeft = 0;
        for (const Row &r : rows_) {
            code.push_back(r.codeRatio);
            ram.push_back(r.ramRatio);
            quality_.checksLeft += r.checksLeft;
            maxOpt = std::max(maxOpt, r.optMsMax);
        }
        quality_.codeRatio = geomean(code);
        quality_.ramRatio = geomean(ram);
        rep.measured["opt.cell_ms_max"] = maxOpt;
        return rep;
    }

    void
    printRows(std::ostream &os) override
    {
        std::vector<Row> rows = rows_;
        std::sort(rows.begin(), rows.end(),
                  [](const Row &x, const Row &y) { return x.seed < y.seed; });
        os << "per-seed (safe+cxprop vs unsafe; opt ms summed over the "
              "seed's four modes in the last replica)\n";
        os << "  seed        opt_ms  code_ratio  ram_ratio  checks_left\n";
        std::vector<double> code, ram;
        double optMs = 0, checks = 0;
        char line[160];
        for (const Row &r : rows) {
            snprintf(line, sizeof line,
                     "  %-8llu %9.1f  %10.4f  %9.4f  %11u\n",
                     static_cast<unsigned long long>(r.seed), r.optMs,
                     r.codeRatio, r.ramRatio, r.checksLeft);
            os << line;
            code.push_back(r.codeRatio);
            ram.push_back(r.ramRatio);
            optMs += r.optMs;
            checks += r.checksLeft;
        }
        snprintf(line, sizeof line, "  %-8s %9.1f  %10.4f  %9.4f  %11.0f\n",
                 "geomean", optMs, geomean(code), geomean(ram), checks);
        os << line << "  (opt ms and checks: totals)\n";
    }

  private:
    enum Mode { Unsafe, Safe, SafeOpt, UnsafeOpt };

    /** One seed's row of the traced report. */
    struct Row {
        uint64_t seed = 0;
        double optMs = 0, optMsMax = 0;
        double codeRatio = 1, ramRatio = 1;
        uint32_t checksLeft = 0;
    };

    /** One seed through the oracle's four modes; appends its row. */
    void
    seedOnce(Tracer *t, uint64_t seed, LayerReport &rep)
    {
        auto &c = rep.counts;
        const std::string where = "seed " + std::to_string(seed) + " ";
        Row row;
        row.seed = seed;
        std::string src;
        {
            Tracer::Scope s(t, "fuzz.gen");
            src = fuzz::generateProgram(seed);
        }
        FrontendProduct fe;
        {
            Tracer::Scope s(t, "frontend");
            fe = runFrontend("fuzz", src);
        }
        c["frontend.ir_instrs"] += irInstrs(fe.module);
        std::string refUart;
        BuildResult unsafe;
        static const char *kModes[] = {"unsafe", "safe", "safe+cxprop",
                                       "unsafe+cxprop"};
        for (Mode mode : {Unsafe, Safe, SafeOpt, UnsafeOpt}) {
            PipelineConfig cfg;
            cfg.safe = mode == Safe || mode == SafeOpt;
            cfg.runCxprop = mode == SafeOpt || mode == UnsafeOpt;
            cfg.cxprop.inlineFirst = true;
            cfg.platform = "Mica2";
            SafetyProduct sp;
            {
                Tracer::Scope s(t, "safety");
                sp = runSafetyStage(fe.module.clone(),
                                    fe.sourceManager.get(), cfg);
            }
            OptProduct op;
            {
                int64_t t0 = nowNs();
                Tracer::Scope s(t, "opt");
                op = runOptStage(std::move(sp), cfg);
                double ms = static_cast<double>(nowNs() - t0) / 1e6;
                row.optMs += ms;
                row.optMsMax = std::max(row.optMsMax, ms);
            }
            Run ir;
            {
                Tracer::Scope s(t, "interp");
                ir = runInterp(*op.module);
            }
            c["opt.ir_instrs"] += irInstrs(*op.module);
            BuildResult br;
            {
                Tracer::Scope s(t, "backend");
                br = runBackendStage(op, cfg);
            }
            if (mode == Unsafe)
                refUart = ir.uart;
            const std::string tag = where + kModes[mode];
            rep.tally.add(ir.ok && ir.uart == refUart, tag + "/interp");
            static const std::pair<sim::ExecMode, const char *> kCores[] = {
                {sim::ExecMode::Legacy, "sim.core.legacy"},
                {sim::ExecMode::Predecoded, "sim.core.predecoded"},
                {sim::ExecMode::Threaded, "sim.core.threaded"}};
            for (const auto &[em, span] : kCores) {
                Run m;
                {
                    Tracer::Scope s(t, span);
                    m = runMachine(br.image, em);
                }
                rep.tally.add(m.ok && m.uart == refUart,
                              tag + "/" + span);
                if (em == sim::ExecMode::Threaded) {
                    c["sim.instructions"] += static_cast<double>(m.instructions);
                    c["sim.cycles"] += static_cast<double>(m.cycles);
                }
            }
            c["opt.rounds"] += br.cxpropReport.rounds;
            c["opt.checks_removed"] += br.cxpropReport.checksRemoved;
            c["opt.instrs_folded"] += br.cxpropReport.instrsConstFolded;
            c["opt.dead_instrs_removed"] += br.cxpropReport.deadInstrsRemoved;
            c["safety.checks_inserted"] += br.safetyReport.checksInserted;
            c["safety.cfi_forward_checks"] +=
                br.safetyReport.cfiForwardChecks;
            c["backend.code_bytes"] += br.codeBytes + br.romDataBytes;
            if (mode == Unsafe) {
                unsafe = std::move(br);
            } else if (mode == SafeOpt) {
                row.codeRatio =
                    static_cast<double>(br.codeBytes + br.romDataBytes) /
                    (unsafe.codeBytes + unsafe.romDataBytes);
                if (unsafe.ramBytes)
                    row.ramRatio = static_cast<double>(br.ramBytes) /
                                   unsafe.ramBytes;
                row.checksLeft = br.image.survivingCheckBranches();
            }
        }
        rows_.push_back(row);
    }

    std::vector<uint64_t> seeds_;
    std::vector<std::string> sources_;
    Quality quality_;
    std::vector<Row> rows_;
};

} // namespace

std::unique_ptr<Workload>
makeFuzzSeeds(const Options &opts)
{
    return std::make_unique<FuzzSeeds>(opts);
}

} // namespace perfbench
