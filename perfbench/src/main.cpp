/**
 * @file
 * perfbench: one workload per process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--fuzz-base B] [--work-dir DIR]
 *
 * --trace 0 sets the workload up several times, runs closed-loop
 * timed passes for S seconds (at least kMinPasses), checks the last
 * pass's outputs, and prints the end-to-end metrics (set-up time as a
 * median, pass wall and CPU time as the lower quartile). --trace 1 runs
 * one real pass, then alternates untraced and traced replica passes
 * for S seconds (at least two of each), requires every exact counter
 * to repeat on every replica, writes the last traced replica as
 * Chrome trace-event JSON under DIR, and prints the per-layer
 * metrics. The last line of stdout is the JSON result object.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>

#include "fuzz/fuzz.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

std::vector<size_t>
seededOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    stos::fuzz::Rng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.range(static_cast<uint32_t>(i))]);
    return order;
}

namespace {

/** Set-up repeats: at least kMinSetups, more while they total under
 *  kSetupBudgetS, so a short set-up still gets a steady median. */
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 101;
constexpr double kSetupBudgetS = 0.5;
constexpr size_t kMinPasses = 3;

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

void
printSummary(const char *name, const std::vector<double> &v,
             const char *unit)
{
    std::vector<double> q = quartiles(v);
    printf("  %-14s min %.6g, median %.6g %s  (q1 %.6g, q3 %.6g, n=%zu)\n",
           name, *std::min_element(v.begin(), v.end()), q[1], unit, q[0],
           q[2], v.size());
}

std::string
resultJson(bool correct, const Tally &t, const std::vector<Metric> &ms)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
       << ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < ms.size(); ++i) {
        snprintf(buf, sizeof buf, "%.17g", ms[i].value);
        os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": "
           << buf << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

void
reportFailures(const Tally &t)
{
    if (t.failed)
        fprintf(stderr, "perfbench: %llu of %llu failed; first: %s\n",
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.attempted),
                t.firstError.c_str());
}

//---------------------------------------------------------------------
// --trace 0: end-to-end metrics
//---------------------------------------------------------------------

int
runTimed(Workload &w, const Options &opts)
{
    std::vector<double> setups, walls, cpus;
    double setupTotal = 0;
    while (setups.size() < kMinSetups ||
           (setupTotal < kSetupBudgetS && setups.size() < kMaxSetups)) {
        int64_t t0 = nowNs();
        w.setup();
        setups.push_back(seconds(nowNs() - t0));
        setupTotal += setups.back();
    }

    const double rssSetup = peakRssMb();

    // Peak memory is that of the first pass, the one a figure run makes
    // in a fresh process; later passes start from a heap the earlier
    // ones left fragmented, which makes their peaks erratic.
    resetPeakRss();
    double rss = 0;
    Tally total;
    const int64_t start = nowNs();
    while (walls.size() < kMinPasses ||
           seconds(nowNs() - start) < opts.seconds) {
        double cpu0 = processCpuSeconds();
        int64_t t0 = nowNs();
        total.merge(w.pass());
        walls.push_back(seconds(nowNs() - t0));
        cpus.push_back(processCpuSeconds() - cpu0);
        if (walls.size() == 1)
            rss = peakRssMb();
    }
    total.merge(w.check());
    Quality q = w.quality();

    const double okFrac =
        1.0 - static_cast<double>(total.failed) /
                  static_cast<double>(total.attempted);
    // Passes are timed by their lower quartile: on a shared host they
    // flip between an undisturbed speed and contended phases up to
    // 1.7x slower, so the median moves with the neighbours' load. The
    // lower quartile holds while up to three quarters of a run is
    // contended, and unlike the minimum it does not hang on one lucky
    // pass.
    std::vector<Metric> ms = {
        {"setup_s", median(setups), "s"},
        {"pass_s", quartiles(walls)[0], "s"},
        {"cpu_s", quartiles(cpus)[0], "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"ok_frac", okFrac, "frac"},
        {"code_size_ratio", q.codeRatio, "ratio"},
        {"ram_size_ratio", q.ramRatio, "ratio"},
        {"checks_left", q.checksLeft, "count"},
    };
    printf("perfbench %s (seed %llu): %zu closed-loop passes\n",
           opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
           walls.size());
    printSummary("setup_s", setups, "s");
    printSummary("pass_s", walls, "s");
    printSummary("cpu_s", cpus, "s");
    printf("  peak RSS after set-up %.1f MiB\n", rssSetup);
    printf("  pass times (s):");
    for (double t : walls)
        printf(" %.4f", t);
    printf("\n");
    for (size_t i = 3; i < ms.size(); ++i)
        printf("  %-14s %.10g %s\n", ms[i].name.c_str(), ms[i].value,
               ms[i].unit);
    reportFailures(total);
    bool correct = total.failed == 0 && q.codeRatio > 0 && q.ramRatio > 0;
    printf("%s\n", resultJson(correct, total, ms).c_str());
    return 0;
}

//---------------------------------------------------------------------
// --trace 1: per-layer metrics
//---------------------------------------------------------------------

/** Per-layer self-time metrics and the span names they sum. */
struct SpanMetric {
    const char *metric;
    std::vector<const char *> spans;
};

const std::vector<SpanMetric> &
spanMetrics()
{
    static const std::vector<SpanMetric> k = {
        {"frontend.ms", {"frontend"}},
        {"safety.ms", {"safety"}},
        {"opt.ms", {"opt"}},
        {"backend.ms", {"backend"}},
        {"core.ms", {"core.memo", "core.companion"}},
        {"core.store.load_ms", {"core.store.load"}},
        {"core.store.deserialize_ms", {"core.store.deserialize"}},
        {"sim.decode_ms", {"sim.decode"}},
        {"sim.run_ms", {"sim.run"}},
        {"fuzz.gen_ms", {"fuzz.gen"}},
        {"interp.ms", {"interp"}},
        {"sim.core_ms.legacy", {"sim.core.legacy"}},
        {"sim.core_ms.predecoded", {"sim.core.predecoded"}},
        {"sim.core_ms.threaded", {"sim.core.threaded"}},
        {"bench.ms", {"cell", "seed"}},
    };
    return k;
}

/** Metrics the replica measures itself, with their units. */
const std::vector<std::pair<const char *, const char *>> &
measuredMetrics()
{
    static const std::vector<std::pair<const char *, const char *>> k = {
        {"opt.cell_ms_max", "ms"},
        {"core.pool_efficiency", "frac"},
        {"sim.ns_per_instr_single", "ns"},
        {"sim.ns_per_instr_multi", "ns"},
    };
    return k;
}

/** The exact counters, with their units. */
const std::vector<std::pair<const char *, const char *>> &
countMetrics()
{
    static const std::vector<std::pair<const char *, const char *>> k = {
        {"frontend.ir_instrs", "count"},
        {"safety.checks_inserted", "count"},
        {"safety.cfi_forward_checks", "count"},
        {"opt.rounds", "count"},
        {"opt.checks_removed", "count"},
        {"opt.instrs_folded", "count"},
        {"opt.dead_instrs_removed", "count"},
        {"opt.ir_instrs", "count"},
        {"backend.code_bytes", "bytes"},
        {"core.stage_runs.frontend", "count"},
        {"core.stage_runs.safety", "count"},
        {"core.stage_runs.opt", "count"},
        {"core.stage_runs.backend", "count"},
        {"core.stage_reuses", "count"},
        {"core.store.disk_hits", "count"},
        {"core.store.bytes_read", "bytes"},
        {"core.store.bytes_written", "bytes"},
        {"sim.fused_pairs", "count"},
        {"sim.instructions", "count"},
        {"sim.cycles", "count"},
        {"sim.duty_cycle_ratio", "ratio"},
    };
    return k;
}

int
runTraced(Workload &w, const Options &opts)
{
    w.setup();
    Tally total = w.pass();

    Tracer tracer;
    std::vector<double> plainWall, tracedWall;
    std::map<std::string, std::vector<double>> self, measured;
    std::map<std::string, double> counts;
    bool countsRepeat = true;
    std::string countDiff;
    auto replica = [&](bool traced) {
        if (traced)
            tracer.clear();  // keep only the latest traced replica
        int64_t t0 = nowNs();
        LayerReport rep = w.replica(traced ? &tracer : nullptr);
        double wall = seconds(nowNs() - t0);
        total.merge(rep.tally);
        if (counts.empty()) {
            counts = rep.counts;
        } else if (rep.counts != counts) {
            countsRepeat = false;
            for (const auto &[k, v] : rep.counts)
                if (counts[k] != v && countDiff.empty())
                    countDiff = k;
        }
        if (traced) {
            tracedWall.push_back(wall);
            for (const auto &[name, ms] : tracer.selfMillisByName())
                self[name].push_back(ms);
        } else {
            plainWall.push_back(wall);
            for (const auto &[name, v] : rep.measured)
                measured[name].push_back(v);
        }
    };
    const int64_t start = nowNs();
    for (int pair = 0;
         pair < 2 || seconds(nowNs() - start) < opts.seconds; ++pair) {
        // Alternate which side runs first.
        replica(pair % 2 == 1);
        replica(pair % 2 == 0);
    }
    total.add(countsRepeat, "exact counter did not repeat: " + countDiff);
    std::string tracePath =
        opts.workDir + "/trace-" + opts.workload + ".json";
    total.add(tracer.writeChromeJson(tracePath),
              "cannot write " + tracePath);

    std::vector<Metric> ms;
    printf("perfbench %s traced (seed %llu): %zu untraced + %zu traced "
           "replica passes\n",
           opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
           plainWall.size(), tracedWall.size());
    printf("layer self time (ms, median over traced replicas):\n");
    for (const SpanMetric &m : spanMetrics()) {
        size_t n = tracedWall.size();
        std::vector<double> perRun(n, 0.0);
        for (const char *span : m.spans) {
            auto it = self.find(span);
            if (it == self.end())
                continue;
            for (size_t i = 0; i < it->second.size() && i < n; ++i)
                perRun[i] += it->second[i];
        }
        double v = median(perRun);
        ms.push_back({m.metric, v, "ms"});
        if (v > 0)
            printf("  %-28s %12.3f\n", m.metric, v);
    }
    for (const auto &[name, unit] : measuredMetrics()) {
        auto it = measured.find(name);
        ms.push_back({name, it == measured.end() ? 0.0 : median(it->second),
                      unit});
    }
    double overhead = median(tracedWall) / median(plainWall) - 1.0;
    ms.push_back({"trace.overhead_frac", overhead, "frac"});
    printf("replica wall: untraced %.4f s, traced %.4f s "
           "(tracing overhead %+.2f%%)\n",
           median(plainWall), median(tracedWall), 100.0 * overhead);
    printf("exact counters (%s across %zu replicas):\n",
           countsRepeat ? "identical" : "NOT identical",
           plainWall.size() + tracedWall.size());
    for (const auto &[name, unit] : countMetrics()) {
        auto it = counts.find(name);
        double v = it == counts.end() ? 0.0 : it->second;
        ms.push_back({name, v, unit});
        if (it != counts.end())
            printf("  %-28s %.17g\n", name, v);
    }
    std::ostringstream rows;
    w.printRows(rows);
    fputs(rows.str().c_str(), stdout);
    printf("trace: %s\n", tracePath.c_str());
    reportFailures(total);
    printf("%s\n", resultJson(total.failed == 0, total, ms).c_str());
    return 0;
}

int
usage(const char *msg)
{
    fprintf(stderr,
            "perfbench: %s\nusage: perfbench --workload "
            "matrix_cold|matrix_warm|sim_long|fuzz_seeds --seed N "
            "--seconds S --trace 0|1 [--fuzz-base B (default %llu, "
            "held-out %llu)] [--work-dir DIR]\n",
            msg, static_cast<unsigned long long>(kDefaultFuzzBase),
            static_cast<unsigned long long>(kHeldOutFuzzBase));
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    opts.workDir = ".bench_build/perfbench-work";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::atof(v);
        else if (a == "--trace")
            opts.trace = std::atoi(v) != 0;
        else if (a == "--fuzz-base")
            opts.fuzzBase = std::strtoull(v, nullptr, 10);
        else if (a == "--work-dir")
            opts.workDir = v;
        else
            return usage(("unknown argument " + a).c_str());
    }
    std::map<std::string, std::function<std::unique_ptr<Workload>(
                              const Options &)>>
        factories = {{"matrix_cold", makeMatrixCold},
                     {"matrix_warm", makeMatrixWarm},
                     {"sim_long", makeSimLong},
                     {"fuzz_seeds", makeFuzzSeeds}};
    auto it = factories.find(opts.workload);
    if (it == factories.end())
        return usage(("unknown workload '" + opts.workload + "'").c_str());
    if (!(opts.seconds > 0))
        return usage("--seconds must be positive");
    std::filesystem::create_directories(opts.workDir);
    try {
        std::unique_ptr<Workload> w = it->second(opts);
        return opts.trace ? runTraced(*w, opts) : runTimed(*w, opts);
    } catch (const std::exception &e) {
        fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
