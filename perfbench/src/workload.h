/**
 * @file
 * The benchmark's workload interface. Each workload runs in its own
 * process: main.cpp sets it up several times (set-up time is a
 * metric), runs closed-loop timed passes (one pass starts after the
 * previous one ends), checks the last pass's outputs against a
 * reference outside the timing, and, for the traced run, executes a
 * replica of one pass that calls each layer's public function under
 * its own span.
 */
#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "trace.h"

namespace stos::core {
struct BuildReport;
}

namespace perfbench {

/** The fuzz_seeds window: seeds [base, base + kFuzzWindow). */
inline constexpr uint64_t kFuzzWindow = 4;
inline constexpr uint64_t kDefaultFuzzBase = 1;
/** Held out for checking claims: never used while tuning. */
inline constexpr uint64_t kHeldOutFuzzBase = 1001;

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    uint64_t fuzzBase = kDefaultFuzzBase;
    /** Working directory inside the checkout (stores, trace files). */
    std::string workDir;
};

/** Units of work attempted and failed (cells, seeds, or checks). */
struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string firstError;

    void
    add(bool ok, const std::string &why = std::string())
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (firstError.empty())
                firstError = why;
        }
    }
    void
    merge(const Tally &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        if (firstError.empty())
            firstError = o.firstError;
    }
};

/** Quality of the generated code over the workload's inputs. */
struct Quality {
    double codeRatio = 0;   ///< geomean of safe+opt / unsafe flash bytes
    double ramRatio = 0;    ///< the same for RAM bytes
    double checksLeft = 0;  ///< surviving checks under safe+opt
};

/** What one replica pass measured, layer by layer. */
struct LayerReport {
    /** Deterministic counts: identical on every replica pass. */
    std::map<std::string, double> counts;
    /** Timings and ratios the replica measured itself. */
    std::map<std::string, double> measured;
    /** Replica outputs compared with the real pass's outputs. */
    Tally tally;
};

class Workload {
  public:
    virtual ~Workload() = default;
    /** Prepare the inputs of the timed passes; may run repeatedly. */
    virtual void setup() = 0;
    /** One closed-loop pass: the operation a user waits for. */
    virtual Tally pass() = 0;
    /** Check the last pass's outputs against a reference (untimed). */
    virtual Tally check() = 0;
    virtual Quality quality() = 0;
    /**
     * Re-run one pass through the layers' public functions, one span
     * per call when `t` is non-null (a null tracer times nothing).
     */
    virtual LayerReport replica(Tracer *t) = 0;
    /** Per-input rows for the traced run's report. */
    virtual void printRows(std::ostream &) {}
};

std::unique_ptr<Workload> makeMatrixCold(const Options &opts);
std::unique_ptr<Workload> makeMatrixWarm(const Options &opts);
std::unique_ptr<Workload> makeSimLong(const Options &opts);
std::unique_ptr<Workload> makeFuzzSeeds(const Options &opts);

/**
 * Quality of a built matrix: SafeFlidInlineCxprop against Baseline
 * per app (flash and RAM ratios, geometric mean over apps) and the
 * total of SafeFlidInlineCxprop's surviving checks.
 */
Quality matrixQuality(const stos::core::BuildReport &b);

/** IR instructions in a module (its size after a stage). */
inline double
irInstrs(const stos::ir::Module &m)
{
    size_t n = 0;
    for (const auto &f : m.funcs())
        for (const auto &b : f.blocks)
            n += b.instrs.size();
    return static_cast<double>(n);
}

/** A permutation of [0, n) drawn from `seed`. */
std::vector<size_t> seededOrder(size_t n, uint64_t seed);

} // namespace perfbench

#endif
