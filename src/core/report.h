/**
 * @file
 * The report vocabulary of an Experiment run: one record per (app,
 * configuration) cell of the build matrix (BuildRecord/BuildReport)
 * and of the simulated matrix (SimRecord/SimReport), the combined
 * ExperimentReport, and the equivalence helpers the serial/parallel,
 * cold/warm and legacy/threaded gates are phrased in.
 *
 * Every CSV and JSON emission — build, sim and the joined
 * static+dynamic table, report metadata included — is driven by one
 * column table in core/report.cpp: a column names itself once, says
 * which emissions carry it and whether its cell must have built or
 * simulated, and reads its value from the records. Adding a column is
 * adding one table row; SimDriver::recordsEquivalent compares every
 * integer outcome column of the same table.
 */
#ifndef STOS_CORE_REPORT_H
#define STOS_CORE_REPORT_H

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace stos::core {

/** One cell of the built matrix. */
struct BuildRecord {
    std::string app;
    std::string platform;
    std::string config;       ///< column label
    /** The app's sensor-network companions (from its AppInfo), so the
     *  simulation phase needs no registry lookup. */
    std::vector<std::string> companions;
    uint32_t appIndex = 0;    ///< row in the requested matrix
    uint32_t configIndex = 0; ///< column in the requested matrix
    bool frontendReused = false; ///< frontend served from the cache
    bool safetyReused = false;   ///< safety stage served from the cache
    bool optReused = false;      ///< opt stage served from the cache
    bool backendReused = false;  ///< whole build served from the cache
    bool ok = false;
    std::string error;        ///< populated when the build failed
    /**
     * The cell's build product, shared immutably with the StageCache
     * (and any other cell of the same content key) — null unless ok.
     */
    std::shared_ptr<const BuildResult> result;
    double millis = 0.0;      ///< wall time of this cell's build
};

/** The whole matrix, app-major then config-minor (request order). */
struct BuildReport {
    size_t numApps = 0;
    size_t numConfigs = 0;
    std::vector<BuildRecord> records;
    size_t frontendParses = 0;  ///< frontend runs actually executed
    size_t frontendReuses = 0;  ///< cells served from the memo
    size_t safetyRuns = 0;      ///< safety stage executions
    size_t safetyReuses = 0;    ///< cells whose safety stage was shared
    size_t optRuns = 0;         ///< opt stage executions
    size_t optReuses = 0;       ///< cells whose opt stage was shared
    size_t backendRuns = 0;     ///< backend stage executions
    size_t backendReuses = 0;   ///< cells served whole from the cache
    size_t frontendDiskHits = 0; ///< frontends loaded from the store
    size_t safetyDiskHits = 0;   ///< safety products loaded from disk
    size_t optDiskHits = 0;      ///< opt products loaded from disk
    size_t backendDiskHits = 0;  ///< whole builds loaded from disk
    uint64_t cacheBytesRead = 0;    ///< artifact payload bytes read
    uint64_t cacheBytesWritten = 0; ///< artifact payload bytes written
    double wallMillis = 0.0;
    unsigned jobsUsed = 1;

    BuildRecord &at(size_t app, size_t cfg);
    const BuildRecord &at(size_t app, size_t cfg) const;
    /** Lookup by app name + column label; null if absent. */
    const BuildRecord *find(const std::string &app,
                            const std::string &config) const;
    bool allOk() const;
    /** Total post-frontend stage reuse (the stage-cache win). */
    size_t stageReuses() const
    {
        return safetyReuses + optReuses + backendReuses;
    }
    /** Stage products this run materialized from the artifact store. */
    size_t diskHits() const
    {
        return frontendDiskHits + safetyDiskHits + optDiskHits +
               backendDiskHits;
    }
    /** One-line stats string for benchmark headers. */
    std::string summary() const;

    /** One row per cell (RFC-4180 quoting), header line included. */
    void emitCsv(std::ostream &os) const;
    /** Matrix metadata + one object per cell. */
    void emitJson(std::ostream &os) const;
};

/** One simulated cell of the matrix. */
struct SimRecord {
    std::string app;
    std::string platform;
    std::string config;       ///< column label
    uint32_t appIndex = 0;
    uint32_t configIndex = 0;
    bool ok = false;
    std::string error;        ///< build or simulation failure
    SimOutcome outcome;       ///< valid only when ok
    double millis = 0.0;      ///< wall time of this cell's simulation
};

/** The simulated matrix, app-major then config-minor. */
struct SimReport {
    size_t numApps = 0;
    size_t numConfigs = 0;
    std::vector<SimRecord> records;
    double seconds = 0.0;        ///< simulated duration per cell
    size_t companionBuilds = 0;  ///< companion compiles executed
    size_t companionReuses = 0;  ///< companion requests served by memo
    double wallMillis = 0.0;
    unsigned jobsUsed = 1;

    SimRecord &at(size_t app, size_t cfg);
    const SimRecord &at(size_t app, size_t cfg) const;
    const SimRecord *find(const std::string &app,
                          const std::string &config) const;
    bool allOk() const;
    /** One-line stats string for benchmark headers. */
    std::string summary() const;

    /** One row per cell (RFC-4180 quoting), header line included. */
    void emitCsv(std::ostream &os) const;
    /** Matrix metadata + one object per cell. */
    void emitJson(std::ostream &os) const;
};

/**
 * The combined result of one Experiment::run(): the static build
 * matrix and (when simulated) the dynamic simulation matrix over the
 * same cells.
 */
struct ExperimentReport {
    BuildReport builds;
    SimReport sims;        ///< valid only when `simulated`
    bool simulated = false;

    bool allOk() const;
    /** One-line stats (build phase; plus sim phase when simulated). */
    std::string summary() const;

    /**
     * Primary emission: the sim table when simulated, the build table
     * otherwise.
     */
    void emitCsv(std::ostream &os) const;
    void emitJson(std::ostream &os) const;

    /**
     * The joined static+dynamic table: one row per cell with code /
     * RAM / ROM sizes and surviving checks next to duty cycle and
     * execution counters, so Figure-3 style tables plot from a single
     * file; the JSON flavour also carries the build phase's stage
     * counters. Throws FatalError unless simulated, or if the two
     * matrices do not describe the same cells.
     */
    void emitJoinedCsv(std::ostream &os) const;
    void emitJoinedJson(std::ostream &os) const;
};

/** Build-matrix equivalence helpers. */
class BuildDriver {
  public:
    /**
     * Byte equivalence of two build results: their
     * BuildResult::serialize encodings (final IR, linked image, both
     * reports, sizes) must be identical. `why` gets the first
     * differing part when non-null.
     */
    static bool resultsEquivalent(const BuildResult &a,
                                  const BuildResult &b,
                                  std::string *why = nullptr);
    /** Record-level equivalence: identity fields + resultsEquivalent. */
    static bool recordsEquivalent(const BuildRecord &a,
                                  const BuildRecord &b,
                                  std::string *why = nullptr);
};

/** Simulation-matrix equivalence helpers. */
class SimDriver {
  public:
    /**
     * Field-for-field equivalence of two sim records, timing aside:
     * every integer outcome column of the report table, plus the
     * exact duty cycle, UART log and trap log.
     */
    static bool recordsEquivalent(const SimRecord &a, const SimRecord &b,
                                  std::string *why = nullptr);
    /** Cell-for-cell equivalence of two reports. */
    static bool reportsEquivalent(const SimReport &a, const SimReport &b,
                                  std::string *why = nullptr);
};

} // namespace stos::core

#endif
