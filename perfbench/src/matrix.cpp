/**
 * @file
 * matrix_cold and matrix_warm: the Figure-3 + CFI build matrix (every
 * registry app x {Baseline, C1..C7, three CFI columns}) built through
 * the Experiment facade.
 *
 *  - matrix_cold builds every cell from source on 2 pool threads, over
 *    a fresh in-memory StageCache per pass and no disk store — the
 *    cold figure regeneration. Its check is cell-for-cell equality
 *    with Experiment::runSerialReference().
 *  - matrix_warm serves the same cells from an on-disk ArtifactStore
 *    that set-up warmed, on 1 thread with a fresh StageCache per pass.
 *    Its check is zero stage executions and byte-identical products.
 */
#include <algorithm>
#include <filesystem>
#include <optional>
#include <ostream>
#include <unistd.h>

#include "core/experiment.h"
#include "core/pool.h"
#include "stats.h"
#include "support/binio.h"
#include "workload.h"

namespace perfbench {

using namespace stos;
using namespace stos::core;

namespace {

std::vector<tinyos::AppInfo>
seededApps(const std::vector<tinyos::AppInfo> &src, uint64_t seed)
{
    std::vector<tinyos::AppInfo> out;
    for (size_t i : seededOrder(src.size(), seed))
        out.push_back(src[i]);
    return out;
}

/** The whole matrix: Baseline, the seven Figure-3 columns, and CFI. */
void
declareMatrix(Experiment &exp, const std::vector<tinyos::AppInfo> &apps)
{
    exp.addApps(apps);
    exp.addConfig(ConfigId::Baseline);
    exp.addConfigs(figure3Configs());
    exp.addConfigs(cfiConfigs());
}

size_t
columnOf(const BuildReport &b, ConfigId id)
{
    for (size_t c = 0; c < b.numConfigs; ++c)
        if (b.at(0, c).config == configName(id))
            return c;
    return b.numConfigs;
}

uint32_t
flashBytes(const BuildResult &r)
{
    // Figure 3(a)'s code size: flash code plus ROM-resident data.
    return r.codeBytes + r.romDataBytes;
}

/** Per-app rows: SafeFlidInlineCxprop against Baseline. */
struct AppRow {
    std::string app;
    double codeRatio = 1, ramRatio = 1;
    uint32_t checksLeft = 0;
};

std::vector<AppRow>
appRows(const BuildReport &b)
{
    std::vector<AppRow> rows;
    size_t base = columnOf(b, ConfigId::Baseline);
    size_t c6 = columnOf(b, ConfigId::SafeFlidInlineCxprop);
    if (base == b.numConfigs || c6 == b.numConfigs)
        return rows;
    for (size_t a = 0; a < b.numApps; ++a) {
        const BuildRecord &rb = b.at(a, base), &r6 = b.at(a, c6);
        if (!rb.ok || !r6.ok)
            continue;
        AppRow row;
        row.app = r6.app + "_" + r6.platform;
        row.codeRatio = static_cast<double>(flashBytes(*r6.result)) /
                        flashBytes(*rb.result);
        if (rb.result->ramBytes)
            row.ramRatio = static_cast<double>(r6.result->ramBytes) /
                           rb.result->ramBytes;
        row.checksLeft = r6.result->image.survivingCheckBranches();
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const AppRow &x, const AppRow &y) { return x.app < y.app; });
    return rows;
}

/** Counts every cell's final product carries. */
void
addResultCounts(const BuildResult &r, std::map<std::string, double> &c)
{
    c["opt.rounds"] += r.cxpropReport.rounds;
    c["opt.checks_removed"] += r.cxpropReport.checksRemoved;
    c["opt.instrs_folded"] += r.cxpropReport.instrsConstFolded;
    c["opt.dead_instrs_removed"] += r.cxpropReport.deadInstrsRemoved;
    c["safety.checks_inserted"] += r.safetyReport.checksInserted;
    c["safety.cfi_forward_checks"] += r.safetyReport.cfiForwardChecks;
    c["backend.code_bytes"] += flashBytes(r);
}

std::string
serialized(const BuildResult &r)
{
    support::BinWriter w;
    r.serialize(w);
    return std::string(w.data());
}

void
printAppRows(std::ostream &os, const BuildReport &b,
             const std::map<std::string, double> &optMsByApp)
{
    std::vector<AppRow> rows = appRows(b);
    os << "per-app (SafeFlidInlineCxprop vs Baseline; opt ms summed over"
          " the app's cells in the traced replica)\n";
    os << "  app                              opt_ms  code_ratio  "
          "ram_ratio  checks_left\n";
    std::vector<double> code, ram;
    double checks = 0, optMs = 0;
    char line[160];
    for (const AppRow &r : rows) {
        auto it = optMsByApp.find(r.app);
        double ms = it == optMsByApp.end() ? 0.0 : it->second;
        snprintf(line, sizeof line, "  %-30s %9.1f  %10.4f  %9.4f  %11u\n",
                 r.app.c_str(), ms, r.codeRatio, r.ramRatio, r.checksLeft);
        os << line;
        code.push_back(r.codeRatio);
        ram.push_back(r.ramRatio);
        checks += r.checksLeft;
        optMs += ms;
    }
    snprintf(line, sizeof line, "  %-30s %9.1f  %10.4f  %9.4f  %11.0f\n",
             "geomean (ms, checks: total)", optMs, geomean(code),
             geomean(ram), checks);
    os << line;
}

//---------------------------------------------------------------------
// matrix_cold
//---------------------------------------------------------------------

class MatrixCold : public Workload {
  public:
    explicit MatrixCold(const Options &opts)
    {
        ExperimentOptions eo;
        eo.jobs = kThreads;
        eo.memoize = true;
        eo.simulate = false;
        exp_ = Experiment(eo);
        declareMatrix(exp_, seededApps(tinyos::allApps(), opts.seed));
    }

    /**
     * Set-up: derive every cell's configuration and its content key,
     * the work a cached figure run does before it dispatches a cell.
     */
    void
    setup() override
    {
        keys_.clear();
        for (const auto &app : exp_.apps())
            for (const auto &spec : exp_.configs())
                keys_.push_back(
                    StageCache::buildKey(app, spec.make(app.platform)));
    }

    Tally
    pass() override
    {
        last_ = {};  // free the previous pass's products first
        last_ = exp_.run().builds;
        Tally t;
        for (const auto &r : last_.records)
            t.add(r.ok, r.app + "/" + r.config + ": " + r.error);
        return t;
    }

    Tally
    check() override
    {
        ExperimentReport ref = exp_.runSerialReference();
        Tally t;
        if (ref.builds.records.size() != last_.records.size()) {
            t.add(false, "serial reference has a different shape");
            return t;
        }
        for (size_t i = 0; i < last_.records.size(); ++i) {
            std::string why;
            bool ok = ref.builds.records[i].ok &&
                      BuildDriver::recordsEquivalent(
                          ref.builds.records[i], last_.records[i], &why);
            t.add(ok, "serial reference mismatch: " + why);
        }
        return t;
    }

    Quality quality() override { return matrixQuality(last_); }

    LayerReport
    replica(Tracer *t) override
    {
        // The pass's stage graph, one stage request at a time: each
        // span covers the StageCache call that executes (or reuses)
        // that stage, so a stage's time includes waiting for another
        // thread that is executing the same shared product.
        const auto &apps = exp_.apps();
        const auto &configs = exp_.configs();
        const size_t nApps = apps.size(), nJobs = nApps * configs.size();
        StageCache cache;
        struct Cell {
            std::shared_ptr<const BuildResult> result;
            double feInstrs = 0, optInstrs = 0, optMs = 0;
            int reuses = 0;
            std::string error;
        };
        std::vector<Cell> cells(nJobs);
        runOnPool(kThreads, nJobs, [&](size_t k) {
            size_t a = k % nApps, c = k / nApps;
            Cell &cell = cells[a * configs.size() + c];
            Tracer::Scope cellSpan(t, "cell");
            try {
                const tinyos::AppInfo &app = apps[a];
                PipelineConfig cfg;
                {
                    Tracer::Scope s(t, "core.memo");
                    cfg = configs[c].make(app.platform);
                }
                StageHits fe, sa, op, be;
                {
                    Tracer::Scope s(t, "frontend");
                    cell.feInstrs = irInstrs(cache.frontend(app, &fe)->module);
                }
                {
                    Tracer::Scope s(t, "safety");
                    cache.safety(app, cfg, &sa);
                }
                {
                    int64_t t0 = nowNs();
                    Tracer::Scope s(t, "opt");
                    cell.optInstrs = irInstrs(*cache.opt(app, cfg, &op)->module);
                    cell.optMs = static_cast<double>(nowNs() - t0) / 1e6;
                }
                {
                    Tracer::Scope s(t, "backend");
                    cell.result = cache.build(app, cfg, &be);
                }
                cell.reuses = sa.safety + op.opt + be.backend;
            } catch (const std::exception &e) {
                cell.error = e.what();
            }
        });

        LayerReport rep;
        auto &c = rep.counts;
        optMsByApp_.clear();
        double maxOpt = 0;
        for (size_t i = 0; i < nJobs; ++i) {
            const Cell &cell = cells[i];
            const BuildRecord &real = last_.records[i];
            std::string why = cell.error;
            bool ok = cell.result && real.ok &&
                      BuildDriver::resultsEquivalent(*cell.result,
                                                     *real.result, &why);
            rep.tally.add(ok, "replica " + real.app + "/" + real.config +
                                  ": " + why);
            if (!cell.result)
                continue;
            addResultCounts(*cell.result, c);
            c["frontend.ir_instrs"] += cell.feInstrs;
            c["opt.ir_instrs"] += cell.optInstrs;
            c["core.stage_reuses"] += cell.reuses;
            optMsByApp_[real.app + "_" + real.platform] += cell.optMs;
            maxOpt = std::max(maxOpt, cell.optMs);
        }
        StageCacheStats s = cache.stats();
        c["core.stage_runs.frontend"] = static_cast<double>(s.frontend.executed);
        c["core.stage_runs.safety"] = static_cast<double>(s.safety.executed);
        c["core.stage_runs.opt"] = static_cast<double>(s.opt.executed);
        c["core.stage_runs.backend"] = static_cast<double>(s.backend.executed);
        // The real pass must have executed the same stage graph.
        rep.tally.add(last_.frontendParses == s.frontend.executed &&
                          last_.safetyRuns == s.safety.executed &&
                          last_.optRuns == s.opt.executed &&
                          last_.backendRuns == s.backend.executed &&
                          last_.stageReuses() ==
                              static_cast<size_t>(c["core.stage_reuses"]),
                      "replica stage counts differ from the pass");

        double cellMs = 0;
        for (const auto &r : last_.records)
            cellMs += r.millis;
        rep.measured["opt.cell_ms_max"] = maxOpt;
        rep.measured["core.pool_efficiency"] =
            cellMs / (last_.wallMillis * last_.jobsUsed);
        return rep;
    }

    void
    printRows(std::ostream &os) override
    {
        printAppRows(os, last_, optMsByApp_);
    }

  private:
    static constexpr unsigned kThreads = 2;
    Experiment exp_;
    BuildReport last_;
    std::vector<std::string> keys_;
    std::map<std::string, double> optMsByApp_;
};

//---------------------------------------------------------------------
// matrix_warm
//---------------------------------------------------------------------

class MatrixWarm : public Workload {
  public:
    explicit MatrixWarm(const Options &opts)
        : storeDir_(opts.workDir + "/store-" + std::to_string(getpid()))
    {
        ExperimentOptions eo;
        eo.jobs = 1;
        eo.memoize = true;
        eo.simulate = false;
        eo.cache.dir = storeDir_;
        exp_ = Experiment(eo);
        declareMatrix(exp_, seededApps(tinyos::allApps(), opts.seed));
    }

    ~MatrixWarm() override
    {
        std::error_code ec;
        std::filesystem::remove_all(storeDir_, ec);
    }

    /**
     * Set-up: warm an empty store with a cold build of the matrix.
     * Only the products' serialized bytes are kept (for the check),
     * so the cold build's memory is gone before the first pass.
     */
    void
    setup() override
    {
        std::filesystem::remove_all(storeDir_);
        Experiment warm = exp_;
        warm.options().jobs = kSetupThreads;
        BuildReport cold = warm.run().builds;
        bytesWritten_ = static_cast<double>(cold.cacheBytesWritten);
        coldBytes_.clear();
        for (const auto &r : cold.records)
            coldBytes_.push_back(r.ok ? serialized(*r.result) : "");
    }

    Tally
    pass() override
    {
        last_ = {};  // free the previous pass's products first
        last_ = exp_.run().builds;
        Tally t;
        for (const auto &r : last_.records)
            t.add(r.ok, r.app + "/" + r.config + ": " + r.error);
        return t;
    }

    Tally
    check() override
    {
        Tally t;
        t.add(last_.frontendParses + last_.safetyRuns + last_.optRuns +
                      last_.backendRuns ==
                  0,
              "warm pass executed a stage");
        for (size_t i = 0; i < last_.records.size(); ++i) {
            const BuildRecord &w = last_.records[i];
            t.add(w.ok && i < coldBytes_.size() && !coldBytes_[i].empty() &&
                      serialized(*w.result) == coldBytes_[i],
                  "warm product differs from the cold build: " + w.app +
                      "/" + w.config);
        }
        return t;
    }

    Quality quality() override { return matrixQuality(last_); }

    LayerReport
    replica(Tracer *t) override
    {
        // The warm path of StageCache::build: derive the content key,
        // read the backend artifact, deserialize the whole build.
        ArtifactStore store(CacheOptions{storeDir_, true, 0});
        LayerReport rep;
        auto &c = rep.counts;
        const auto &apps = exp_.apps();
        const auto &configs = exp_.configs();
        for (size_t a = 0; a < apps.size(); ++a) {
            for (size_t k = 0; k < configs.size(); ++k) {
                const BuildRecord &real = last_.at(a, k);
                std::string blob, why;
                bool hit = false;
                std::optional<BuildResult> r;
                {
                    Tracer::Scope cellSpan(t, "cell");
                    std::string key;
                    {
                        Tracer::Scope s(t, "core.memo");
                        key = StageCache::buildKey(
                            apps[a], configs[k].make(apps[a].platform));
                    }
                    {
                        Tracer::Scope s(t, "core.store.load");
                        hit = store.load(Stage::Backend, key, &blob);
                    }
                    if (hit) {
                        Tracer::Scope s(t, "core.store.deserialize");
                        try {
                            support::BinReader rd(blob);
                            r = BuildResult::deserialize(rd);
                        } catch (const std::exception &e) {
                            why = e.what();
                        }
                    }
                }
                c["core.store.disk_hits"] += hit;
                c["core.store.bytes_read"] += static_cast<double>(blob.size());
                rep.tally.add(r && real.ok &&
                                  serialized(*r) == serialized(*real.result),
                              "replica load differs: " + real.app + "/" +
                                  real.config + " " + why);
                if (r)
                    addResultCounts(*r, c);
            }
        }
        c["core.store.bytes_written"] = bytesWritten_;
        c["core.stage_runs.frontend"] = static_cast<double>(last_.frontendParses);
        c["core.stage_runs.safety"] = static_cast<double>(last_.safetyRuns);
        c["core.stage_runs.opt"] = static_cast<double>(last_.optRuns);
        c["core.stage_runs.backend"] = static_cast<double>(last_.backendRuns);
        c["core.stage_reuses"] = static_cast<double>(last_.stageReuses());
        // The real pass read exactly what the replica read.
        rep.tally.add(last_.backendDiskHits == c["core.store.disk_hits"] &&
                          static_cast<double>(last_.cacheBytesRead) ==
                              c["core.store.bytes_read"],
                      "replica store reads differ from the pass");
        return rep;
    }

    void
    printRows(std::ostream &os) override
    {
        printAppRows(os, last_, {});
    }

  private:
    static constexpr unsigned kSetupThreads = 2;
    std::string storeDir_;
    Experiment exp_;
    BuildReport last_;
    std::vector<std::string> coldBytes_;  ///< per cell, request order
    double bytesWritten_ = 0;
};

} // namespace

Quality
matrixQuality(const BuildReport &b)
{
    std::vector<double> code, ram;
    Quality q;
    for (const AppRow &row : appRows(b)) {
        code.push_back(row.codeRatio);
        ram.push_back(row.ramRatio);
        q.checksLeft += row.checksLeft;
    }
    q.codeRatio = geomean(code);
    q.ramRatio = geomean(ram);
    return q;
}

std::unique_ptr<Workload>
makeMatrixCold(const Options &opts)
{
    return std::make_unique<MatrixCold>(opts);
}

std::unique_ptr<Workload>
makeMatrixWarm(const Options &opts)
{
    return std::make_unique<MatrixWarm>(opts);
}

} // namespace perfbench
