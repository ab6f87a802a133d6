/**
 * @file
 * Report vocabulary: record lookup, the one column table every CSV
 * and JSON emission is driven by, and the BuildDriver/SimDriver
 * equivalence helpers. The engine that fills these reports lives in
 * core/experiment.cpp.
 */
#include "core/report.h"

#include <ostream>
#include <string_view>
#include <variant>

#include "backend/serialize.h"
#include "ir/serialize.h"
#include "support/binio.h"
#include "support/util.h"

namespace stos::core {

namespace {

//---------------------------------------------------------------------
// The column table
//---------------------------------------------------------------------

/**
 * What one table row reads from. The build emissions set builds and
 * build, the sim emissions sims and sim, the joined emissions all
 * four; the report-metadata lines leave the records null.
 */
struct View {
    const BuildReport *builds = nullptr;
    const SimReport *sims = nullptr;
    const BuildRecord *build = nullptr;
    const SimRecord *sim = nullptr;
};

using Value = std::variant<uint64_t, double, std::string_view,
                           const std::vector<sim::TrapEntry> *>;

/** How a value is written. */
enum Kind : uint8_t {
    kCount,   ///< unsigned decimal
    kFlag,    ///< CSV 1/0, JSON true/false
    kMillis,  ///< %.3f
    kRatio,   ///< %.9f
    kSeconds, ///< %g
    kText,    ///< CSV RFC-4180 field, JSON escaped string
    kTrapLog, ///< JSON array of trap entries (JSON only)
};

/** The emissions a column appears in. */
enum : unsigned {
    kBuildCsv = 1u << 0,
    kBuildJson = 1u << 1,
    kSimCsv = 1u << 2,
    kSimJson = 1u << 3,
    kJoinCsv = 1u << 4,
    kJoinJson = 1u << 5,
    // The metadata lines heading each JSON emission.
    kBuildHead = 1u << 6,
    kSimHead = 1u << 7,
    kJoinHead = 1u << 8,

    kBuild = kBuildCsv | kBuildJson,
    kSim = kSimCsv | kSimJson,
    kJoin = kJoinCsv | kJoinJson,
    kCells = kBuild | kSim | kJoin,
    kHeads = kBuildHead | kSimHead | kJoinHead,
    kStages = kBuildHead | kJoinHead,
    kOutcome = kSim | kJoin,
};

/** Which cells carry a column: the others get an empty CSV field and
 *  no JSON key. */
enum When : uint8_t { kAlways, kBuildOk, kSimOk, kSimFailed };

struct Column {
    const char *name;
    Kind kind;
    unsigned in;
    When when;
    Value (*get)(const View &);
};

// Getters. Single-phase emissions read the sim side when there is
// one, else the build side (CELL, META); the joined table reads each
// phase's columns from its own record.
#define GET(expr) [](const View &v) -> Value { return expr; }
#define CELL(f) GET(v.sim ? v.sim->f : v.build->f)
#define META(f) GET(v.sims ? v.sims->f : v.builds->f)
#define STAGE(f) GET(v.builds->f)
#define RESULT(f) GET(v.build->result->f)
#define OUT(f) GET(v.sim->outcome.f)

/** Every emitted column, in emission order. */
const Column kColumns[] = {
    // Report metadata.
    {"num_apps", kCount, kHeads, kAlways, META(numApps)},
    {"num_configs", kCount, kHeads, kAlways, META(numConfigs)},
    {"seconds", kSeconds, kSimHead | kJoinHead, kAlways, GET(v.sims->seconds)},
    {"jobs_used", kCount, kBuildHead | kSimHead, kAlways, META(jobsUsed)},
    {"companion_builds", kCount, kSimHead, kAlways,
     GET(v.sims->companionBuilds)},
    {"companion_reuses", kCount, kSimHead, kAlways,
     GET(v.sims->companionReuses)},
    // Stage-cache counters of the build phase: runs vs reuses per
    // stage, then artifact-store disk hits (a warm store shows every
    // *_runs as 0 with the work accounted for here instead).
    {"frontend_parses", kCount, kStages, kAlways, STAGE(frontendParses)},
    {"frontend_reuses", kCount, kStages, kAlways, STAGE(frontendReuses)},
    {"safety_runs", kCount, kStages, kAlways, STAGE(safetyRuns)},
    {"safety_reuses", kCount, kStages, kAlways, STAGE(safetyReuses)},
    {"opt_runs", kCount, kStages, kAlways, STAGE(optRuns)},
    {"opt_reuses", kCount, kStages, kAlways, STAGE(optReuses)},
    {"backend_runs", kCount, kStages, kAlways, STAGE(backendRuns)},
    {"backend_reuses", kCount, kStages, kAlways, STAGE(backendReuses)},
    {"stage_reuses", kCount, kStages, kAlways, STAGE(stageReuses())},
    {"frontend_disk_hits", kCount, kStages, kAlways,
     STAGE(frontendDiskHits)},
    {"safety_disk_hits", kCount, kStages, kAlways, STAGE(safetyDiskHits)},
    {"opt_disk_hits", kCount, kStages, kAlways, STAGE(optDiskHits)},
    {"backend_disk_hits", kCount, kStages, kAlways,
     STAGE(backendDiskHits)},
    {"disk_hits", kCount, kStages, kAlways, STAGE(diskHits())},
    {"cache_bytes_read", kCount, kStages, kAlways, STAGE(cacheBytesRead)},
    {"cache_bytes_written", kCount, kStages, kAlways,
     STAGE(cacheBytesWritten)},
    {"wall_millis", kMillis, kBuildHead | kSimHead, kAlways,
     META(wallMillis)},

    // Cell identity and status.
    {"app", kText, kCells, kAlways, CELL(app)},
    {"platform", kText, kCells, kAlways, CELL(platform)},
    {"config", kText, kCells, kAlways, CELL(config)},
    {"app_index", kCount, kCells, kAlways, CELL(appIndex)},
    {"config_index", kCount, kCells, kAlways, CELL(configIndex)},
    {"ok", kFlag, kBuild | kSim, kAlways, CELL(ok)},
    {"build_ok", kFlag, kJoin, kAlways, GET(v.build->ok)},
    {"sim_ok", kFlag, kJoin, kAlways, GET(v.sim->ok)},
    // A simulated cell's error is empty when it ran (a failed build
    // fails its sim cell too), so the joined CSV reads it as is.
    {"error", kText, kBuild | kSim | kJoinCsv, kAlways, CELL(error)},

    // Build cell.
    {"frontend_reused", kFlag, kBuild, kAlways, GET(v.build->frontendReused)},
    {"safety_reused", kFlag, kBuild, kAlways, GET(v.build->safetyReused)},
    {"opt_reused", kFlag, kBuild, kAlways, GET(v.build->optReused)},
    {"backend_reused", kFlag, kBuild, kAlways, GET(v.build->backendReused)},
    {"code_bytes", kCount, kBuild | kJoin, kBuildOk, RESULT(codeBytes)},
    {"ram_bytes", kCount, kBuild | kJoin, kBuildOk, RESULT(ramBytes)},
    {"rom_data_bytes", kCount, kBuild | kJoin, kBuildOk,
     RESULT(romDataBytes)},
    {"surviving_checks", kCount, kBuild | kJoin, kBuildOk,
     RESULT(survivingChecks)},
    {"checks_inserted", kCount, kBuild, kBuildOk,
     RESULT(safetyReport.checksInserted)},
    {"cxprop_checks_removed", kCount, kBuild, kBuildOk,
     RESULT(cxpropReport.checksRemoved)},
    // cXprop work counters (CxpropReport): exact, so two runs of one
    // build agree and a fixpoint regression shows without a clock.
    {"cxprop_engine_builds", kCount, kBuild, kBuildOk,
     RESULT(cxpropReport.engineBuilds)},
    {"cxprop_ip_rounds", kCount, kBuild, kBuildOk,
     RESULT(cxpropReport.ipRounds)},
    {"cxprop_func_analyses", kCount, kBuild, kBuildOk,
     RESULT(cxpropReport.funcAnalyses)},
    {"cxprop_block_visits", kCount, kBuild, kBuildOk,
     RESULT(cxpropReport.blockVisits)},
    {"cxprop_edges", kCount, kBuild, kBuildOk, RESULT(cxpropReport.edges)},
    {"cxprop_slots_joined", kCount, kBuild, kBuildOk,
     RESULT(cxpropReport.slotsJoined)},
    {"cxprop_slots_widened", kCount, kBuild, kBuildOk,
     RESULT(cxpropReport.slotsWidened)},

    // Sim outcome. SimDriver::recordsEquivalent compares every
    // kCount/kFlag row here.
    {"duty_cycle", kRatio, kOutcome, kSimOk, OUT(dutyCycle)},
    {"awake_cycles", kCount, kOutcome, kSimOk, OUT(awakeCycles)},
    {"total_cycles", kCount, kOutcome, kSimOk, OUT(totalCycles)},
    {"instructions", kCount, kOutcome, kSimOk, OUT(instructions)},
    {"halted", kFlag, kOutcome, kSimOk, OUT(halted)},
    {"wedged", kFlag, kOutcome, kSimOk, OUT(wedged)},
    {"failed_flid", kCount, kOutcome, kSimOk, OUT(failedFlid)},
    // Fault injection and recovery (sim/fault.h).
    {"traps", kCount, kOutcome, kSimOk, OUT(traps)},
    {"cfi_traps", kCount, kOutcome, kSimOk, OUT(cfiTraps)},
    {"reboots", kCount, kOutcome, kSimOk, OUT(reboots)},
    {"crashes", kCount, kOutcome, kSimOk, OUT(crashes)},
    {"down_cycles", kCount, kOutcome, kSimOk, OUT(downCycles)},
    {"wedged_cycles", kCount, kOutcome, kSimOk, OUT(wedgedCycles)},
    {"availability", kRatio, kOutcome, kSimOk, OUT(availability)},
    {"packets_dropped", kCount, kOutcome, kSimOk, OUT(packetsDropped)},
    {"packets_corrupted", kCount, kOutcome, kSimOk, OUT(packetsCorrupted)},
    {"packets_duplicated", kCount, kOutcome, kSimOk,
     OUT(packetsDuplicated)},
    {"trap_log", kTrapLog, kSimJson | kJoinJson, kSimOk,
     GET(&v.sim->outcome.trapLog)},
    {"uart_bytes", kCount, kOutcome, kSimOk, OUT(uartLog.size())},

    // The joined JSON names a failed cell's error in place of its
    // outcome.
    {"error", kText, kJoinJson, kSimFailed, GET(v.sim->error)},
    {"millis", kMillis, kBuild | kSim, kAlways, CELL(millis)},
    {"build_millis", kMillis, kJoin, kAlways, GET(v.build->millis)},
    {"sim_millis", kMillis, kJoin, kAlways, GET(v.sim->millis)},
};

#undef GET
#undef CELL
#undef META
#undef STAGE
#undef RESULT
#undef OUT

bool
carried(const Column &c, const View &v)
{
    switch (c.when) {
      case kAlways:
        return true;
      case kBuildOk:
        return v.build->ok;
      case kSimOk:
        return v.sim->ok;
      case kSimFailed:
        return !v.sim->ok;
    }
    return true;
}

std::string
format(const Column &c, const View &v, bool json)
{
    Value val = c.get(v);
    switch (c.kind) {
      case kCount:
        return std::to_string(std::get<uint64_t>(val));
      case kFlag:
        if (json)
            return std::get<uint64_t>(val) ? "true" : "false";
        return std::get<uint64_t>(val) ? "1" : "0";
      case kMillis:
        return strfmt("%.3f", std::get<double>(val));
      case kRatio:
        return strfmt("%.9f", std::get<double>(val));
      case kSeconds:
        return strfmt("%g", std::get<double>(val));
      case kText: {
        std::string s(std::get<std::string_view>(val));
        return json ? "\"" + jsonEscape(s) + "\"" : csvField(s);
      }
      case kTrapLog: {
        const auto &log = *std::get<const std::vector<sim::TrapEntry> *>(val);
        std::string s = "[";
        for (size_t i = 0; i < log.size(); ++i) {
            const sim::TrapEntry &t = log[i];
            s += strfmt("%s{\"flid\": %u, \"cycle\": %llu, \"pc\": %u"
                        ", \"kind\": %u}",
                        i ? ", " : "", t.flid,
                        static_cast<unsigned long long>(t.cycle), t.pc,
                        static_cast<unsigned>(t.kind));
        }
        return s + "]";
      }
    }
    return {};
}

/** One View per record; `builds` or `sims` may be null. */
std::vector<View>
cellsOf(const BuildReport *builds, const SimReport *sims)
{
    size_t n = sims ? sims->records.size() : builds->records.size();
    std::vector<View> cells(n, View{builds, sims});
    for (size_t i = 0; i < n; ++i) {
        if (builds)
            cells[i].build = &builds->records[i];
        if (sims)
            cells[i].sim = &sims->records[i];
    }
    return cells;
}

/** Header line plus one row per cell, columns tagged `in`. */
void
writeCsv(std::ostream &os, unsigned in, const std::vector<View> &cells)
{
    const char *sep = "";
    for (const Column &c : kColumns) {
        if (c.in & in) {
            os << sep << c.name;
            sep = ",";
        }
    }
    os << '\n';
    for (const View &v : cells) {
        sep = "";
        for (const Column &c : kColumns) {
            if (!(c.in & in))
                continue;
            os << sep;
            if (carried(c, v))
                os << format(c, v, false);
            sep = ",";
        }
        os << '\n';
    }
}

/** Metadata lines tagged `head`, then one object per cell with the
 *  columns tagged `in`. */
void
writeJson(std::ostream &os, const char *kind, unsigned head, unsigned in,
          const View &meta, const std::vector<View> &cells)
{
    os << "{\n  \"kind\": \"" << kind << "\",\n";
    for (const Column &c : kColumns) {
        if (c.in & head)
            os << "  \"" << c.name << "\": " << format(c, meta, true)
               << ",\n";
    }
    os << "  \"records\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        os << "    {";
        const char *sep = "";
        for (const Column &c : kColumns) {
            if (!(c.in & in) || !carried(c, cells[i]))
                continue;
            os << sep << '"' << c.name
               << "\": " << format(c, cells[i], true);
            sep = ", ";
        }
        os << '}' << (i + 1 < cells.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
}

/** Verify `builds` and `sims` describe the same matrix cells. */
void
checkJoinable(const BuildReport &builds, const SimReport &sims)
{
    if (builds.numApps != sims.numApps ||
        builds.numConfigs != sims.numConfigs ||
        builds.records.size() != sims.records.size())
        throw FatalError("joined reports have different shapes");
    for (size_t i = 0; i < sims.records.size(); ++i) {
        const BuildRecord &b = builds.records[i];
        const SimRecord &s = sims.records[i];
        if (b.app != s.app || b.platform != s.platform ||
            b.config != s.config)
            throw FatalError("joined reports describe different cells: " +
                             b.app + "/" + b.config + " vs " + s.app +
                             "/" + s.config);
    }
}

template <typename Record>
const Record *
findRecord(const std::vector<Record> &records, const std::string &app,
           const std::string &config)
{
    for (const auto &r : records) {
        if (r.app == app && r.config == config)
            return &r;
    }
    return nullptr;
}

template <typename Record>
bool
allRecordsOk(const std::vector<Record> &records)
{
    for (const auto &r : records) {
        if (!r.ok)
            return false;
    }
    return true;
}

} // namespace

//---------------------------------------------------------------------
// BuildReport
//---------------------------------------------------------------------

BuildRecord &
BuildReport::at(size_t app, size_t cfg)
{
    return records.at(app * numConfigs + cfg);
}

const BuildRecord &
BuildReport::at(size_t app, size_t cfg) const
{
    return records.at(app * numConfigs + cfg);
}

const BuildRecord *
BuildReport::find(const std::string &app, const std::string &config) const
{
    return findRecord(records, app, config);
}

bool
BuildReport::allOk() const
{
    return allRecordsOk(records);
}

std::string
BuildReport::summary() const
{
    std::string s =
        strfmt("%zu apps x %zu configs = %zu builds in %.0f ms "
               "(%u jobs; stage runs/reuses: frontend %zu/%zu, "
               "safety %zu/%zu, opt %zu/%zu, backend %zu/%zu)",
               numApps, numConfigs, records.size(), wallMillis,
               jobsUsed, frontendParses, frontendReuses, safetyRuns,
               safetyReuses, optRuns, optReuses, backendRuns,
               backendReuses);
    if (diskHits() > 0 || cacheBytesWritten > 0)
        s += strfmt(" (disk hits: frontend %zu, safety %zu, opt %zu, "
                    "backend %zu; %llu KiB read, %llu KiB written)",
                    frontendDiskHits, safetyDiskHits, optDiskHits,
                    backendDiskHits,
                    static_cast<unsigned long long>(cacheBytesRead /
                                                    1024),
                    static_cast<unsigned long long>(cacheBytesWritten /
                                                    1024));
    return s;
}

void
BuildReport::emitCsv(std::ostream &os) const
{
    writeCsv(os, kBuildCsv, cellsOf(this, nullptr));
}

void
BuildReport::emitJson(std::ostream &os) const
{
    writeJson(os, "build_report", kBuildHead, kBuildJson, View{this},
              cellsOf(this, nullptr));
}

//---------------------------------------------------------------------
// SimReport
//---------------------------------------------------------------------

SimRecord &
SimReport::at(size_t app, size_t cfg)
{
    return records.at(app * numConfigs + cfg);
}

const SimRecord &
SimReport::at(size_t app, size_t cfg) const
{
    return records.at(app * numConfigs + cfg);
}

const SimRecord *
SimReport::find(const std::string &app, const std::string &config) const
{
    return findRecord(records, app, config);
}

bool
SimReport::allOk() const
{
    return allRecordsOk(records);
}

std::string
SimReport::summary() const
{
    return strfmt("%zu apps x %zu configs = %zu simulations of %gs "
                  "in %.0f ms (%u jobs, %zu companion builds, "
                  "%zu companion reuses)",
                  numApps, numConfigs, records.size(), seconds,
                  wallMillis, jobsUsed, companionBuilds,
                  companionReuses);
}

void
SimReport::emitCsv(std::ostream &os) const
{
    writeCsv(os, kSimCsv, cellsOf(nullptr, this));
}

void
SimReport::emitJson(std::ostream &os) const
{
    writeJson(os, "sim_report", kSimHead, kSimJson, View{nullptr, this},
              cellsOf(nullptr, this));
}

//---------------------------------------------------------------------
// ExperimentReport
//---------------------------------------------------------------------

bool
ExperimentReport::allOk() const
{
    return builds.allOk() && (!simulated || sims.allOk());
}

std::string
ExperimentReport::summary() const
{
    std::string s = "build: " + builds.summary();
    if (simulated)
        s += "\nsim:   " + sims.summary();
    return s;
}

void
ExperimentReport::emitCsv(std::ostream &os) const
{
    if (simulated)
        sims.emitCsv(os);
    else
        builds.emitCsv(os);
}

void
ExperimentReport::emitJson(std::ostream &os) const
{
    if (simulated)
        sims.emitJson(os);
    else
        builds.emitJson(os);
}

void
ExperimentReport::emitJoinedCsv(std::ostream &os) const
{
    if (!simulated)
        throw FatalError("joined report requires a simulated matrix");
    checkJoinable(builds, sims);
    writeCsv(os, kJoinCsv, cellsOf(&builds, &sims));
}

void
ExperimentReport::emitJoinedJson(std::ostream &os) const
{
    if (!simulated)
        throw FatalError("joined report requires a simulated matrix");
    checkJoinable(builds, sims);
    writeJson(os, "joined_report", kJoinHead, kJoinJson,
              View{&builds, &sims}, cellsOf(&builds, &sims));
}

//---------------------------------------------------------------------
// Equivalence
//---------------------------------------------------------------------

namespace {

/** The artifact-store encoding: every field of a build, as bytes. */
std::string
encodingOf(const BuildResult &r)
{
    support::BinWriter w;
    r.serialize(w);
    return w.take();
}

/** One part's encoding, through its artifact-store writer. */
template <typename T>
std::string
bytesOf(void (*write)(support::BinWriter &, const T &), const T &part)
{
    support::BinWriter w;
    write(w, part);
    return w.take();
}

} // namespace

bool
BuildDriver::resultsEquivalent(const BuildResult &a, const BuildResult &b,
                               std::string *why)
{
    // Same build means same bytes: BuildResult::serialize covers the
    // final IR, the linked image, both reports and the sizes.
    std::string ea = encodingOf(a), eb = encodingOf(b);
    if (ea == eb)
        return true;
    if (!why)
        return false;
    // Name the first differing part, in encoding order.
    if (bytesOf(ir::writeModule, a.module) !=
        bytesOf(ir::writeModule, b.module))
        *why = "final IR differs";
    else if (bytesOf(backend::writeProgram, a.image) !=
             bytesOf(backend::writeProgram, b.image))
        *why = "linked image differs";
    // The encoding ends with the four u32 sizes, so equal encodings
    // short of those bytes mean only the sizes differ.
    else if (ea.size() != eb.size() ||
             ea.compare(0, ea.size() - 16, eb, 0, eb.size() - 16) != 0)
        *why = "safety/cXprop reports differ";
    else
        *why = strfmt("sizes differ: code %u/%u, ram %u/%u, rom data "
                      "%u/%u, surviving checks %u/%u",
                      a.codeBytes, b.codeBytes, a.ramBytes, b.ramBytes,
                      a.romDataBytes, b.romDataBytes, a.survivingChecks,
                      b.survivingChecks);
    return false;
}

bool
BuildDriver::recordsEquivalent(const BuildRecord &a, const BuildRecord &b,
                               std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (a.app != b.app || a.config != b.config)
        return fail("record identity differs: " + a.app + "/" +
                    a.config + " vs " + b.app + "/" + b.config);
    if (a.appIndex != b.appIndex || a.configIndex != b.configIndex)
        return fail("record matrix position differs");
    if (a.ok != b.ok)
        return fail("one record failed: " + a.error + b.error);
    if (!a.ok)
        return a.error == b.error ? true : fail("error text differs");
    std::string innerWhy;
    if (!resultsEquivalent(*a.result, *b.result, &innerWhy))
        return fail(a.app + "/" + a.config + ": " + innerWhy);
    return true;
}

bool
SimDriver::recordsEquivalent(const SimRecord &a, const SimRecord &b,
                             std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (a.app != b.app || a.config != b.config)
        return fail("record identity differs: " + a.app + "/" +
                    a.config + " vs " + b.app + "/" + b.config);
    if (a.appIndex != b.appIndex || a.configIndex != b.configIndex)
        return fail("record matrix position differs");
    if (a.ok != b.ok)
        return fail(a.app + "/" + a.config + ": one record failed (" +
                    (a.ok ? "second" : "first") + "): " +
                    (a.ok ? b.error : a.error));
    if (!a.ok)
        return a.error == b.error ? true : fail("error text differs");
    // Every integer outcome column, as emitted.
    const View va{nullptr, nullptr, nullptr, &a};
    const View vb{nullptr, nullptr, nullptr, &b};
    for (const Column &c : kColumns) {
        if (!(c.in & kSim) || c.when != kSimOk ||
            (c.kind != kCount && c.kind != kFlag))
            continue;
        uint64_t x = std::get<uint64_t>(c.get(va));
        uint64_t y = std::get<uint64_t>(c.get(vb));
        if (x != y)
            return fail(strfmt("%s/%s: %s %llu != %llu", a.app.c_str(),
                               a.config.c_str(), c.name,
                               static_cast<unsigned long long>(x),
                               static_cast<unsigned long long>(y)));
    }
    if (a.outcome.dutyCycle != b.outcome.dutyCycle)
        return fail(a.app + "/" + a.config + ": dutyCycle differs");
    if (a.outcome.uartLog != b.outcome.uartLog)
        return fail(a.app + "/" + a.config + ": uartLog differs");
    if (a.outcome.trapLog != b.outcome.trapLog)
        return fail(a.app + "/" + a.config + ": trapLog differs");
    // availability derives from the integer counters compared above.
    return true;
}

bool
SimDriver::reportsEquivalent(const SimReport &a, const SimReport &b,
                             std::string *why)
{
    if (a.records.size() != b.records.size() ||
        a.numApps != b.numApps || a.numConfigs != b.numConfigs) {
        if (why)
            *why = "report shapes differ";
        return false;
    }
    for (size_t i = 0; i < a.records.size(); ++i) {
        if (!recordsEquivalent(a.records[i], b.records[i], why))
            return false;
    }
    return true;
}

} // namespace stos::core
