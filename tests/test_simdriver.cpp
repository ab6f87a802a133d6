/**
 * @file
 * Simulation-matrix tests over the Experiment facade: StageCache
 * companion-entry memoization (each companion built exactly once per
 * platform, concurrent lookups race-free, persistent across runs),
 * parallel-vs-serial SimReport equivalence across every Figure-3
 * configuration, matrix shape/ordering, failure isolation, and the
 * CSV/JSON report emitters, all through Experiment::simulateBuilds;
 * SimDriver (core/report.h) is the equivalence-helper vocabulary, and
 * its field-by-field comparison is checked one field at a time.
 * Repeated parallel runs must emit the same sim and joined bytes,
 * timing columns aside.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "support/util.h"

namespace stos {
namespace {

using namespace stos::core;
using namespace stos::tinyos;

constexpr double kSimSeconds = 0.1;

/** Knobs of the simulation phase a test wants to vary. */
struct SimParams {
    unsigned jobs = 0;
    bool memoizeCompanions = true;
    double seconds = kSimSeconds;
    sim::ExecMode mode = sim::ExecMode::Predecoded;
    unsigned netThreads = 1;
};

/** Simulate an already-built matrix over a fresh companion cache. */
SimReport
runSim(const BuildReport &builds, const SimParams &p = {})
{
    Experiment e;
    e.options().jobs = p.jobs;
    e.options().memoize = p.memoizeCompanions;
    e.options().seconds = p.seconds;
    e.options().mode = p.mode;
    e.options().netThreads = p.netThreads;
    StageCache cache;
    return e.simulateBuilds(builds, cache);
}

/** Rows with and without companions, columns that change the image. */
BuildReport
smallBuilds(unsigned jobs = 0)
{
    Experiment e;
    e.options().jobs = jobs;
    e.options().simulate = false;
    e.addApp(appByName("BlinkTask"));     // no companions
    e.addApp(appByName("Ident"));         // companion: CntToLedsAndRfm
    e.addApp(appByName("Surge"));         // companions: Surge, GenericBase
    e.addConfig(ConfigId::Baseline);
    e.addConfig(ConfigId::SafeFlid);
    return e.run().builds;
}

TEST(StageCacheCompanions, BuildsEachKeyExactlyOnceUnderContention)
{
    StageCache cache;
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const sim::DecodedProgram>> images(
        kThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&cache, &images, t] {
            images[t] =
                cache.companionDecode("CntToLedsAndRfm", "Mica2");
        });
    }
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(cache.companionBuilds(), 1u);
    EXPECT_EQ(cache.companionHits(), kThreads - 1);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(images[t].get(), images[0].get())
            << "all callers must share one immutable decode";
}

TEST(StageCacheCompanions, DistinctPlatformsAreDistinctEntries)
{
    StageCache cache;
    auto mica = cache.companionDecode("BlinkTask", "Mica2");
    auto telos = cache.companionDecode("BlinkTask", "TelosB");
    EXPECT_EQ(cache.companionBuilds(), 2u);
    EXPECT_NE(mica.get(), telos.get());
    // Second lookups hit the memo.
    cache.companionDecode("BlinkTask", "Mica2");
    cache.companionDecode("BlinkTask", "TelosB");
    EXPECT_EQ(cache.companionBuilds(), 2u);
    EXPECT_EQ(cache.companionHits(), 2u);
}

TEST(StageCacheCompanions, FailuresAreCachedAndRethrown)
{
    StageCache cache;
    EXPECT_THROW(cache.companionDecode("NoSuchApp", "Mica2"),
                 std::exception);
    EXPECT_THROW(cache.companionDecode("NoSuchApp", "Mica2"),
                 std::exception);
    EXPECT_EQ(cache.companionBuilds(), 1u)
        << "the failed build must be memoized";
}

TEST(SimMatrix, MatrixShapeOrderingAndCompanionAccounting)
{
    BuildReport builds = smallBuilds();
    SimParams p;
    p.jobs = 4;
    SimReport rep = runSim(builds, p);

    ASSERT_EQ(rep.numApps, 3u);
    ASSERT_EQ(rep.numConfigs, 2u);
    ASSERT_EQ(rep.records.size(), 6u);
    EXPECT_TRUE(rep.allOk());
    const char *apps[] = {"BlinkTask", "Ident", "Surge"};
    for (size_t a = 0; a < 3; ++a) {
        for (size_t c = 0; c < 2; ++c) {
            const SimRecord &r = rep.at(a, c);
            EXPECT_EQ(r.app, apps[a]);
            EXPECT_EQ(r.appIndex, a);
            EXPECT_EQ(r.configIndex, c);
            EXPECT_GT(r.outcome.totalCycles, 0u);
        }
    }
    // Three distinct companion images (CntToLedsAndRfm, Surge,
    // GenericBase — all Mica2), each compiled exactly once even
    // though Ident and Surge each simulate in two configurations.
    EXPECT_EQ(rep.companionBuilds, 3u);
    // Ident contributes 2 companion requests, Surge 4; 6 total minus
    // the 3 builds leaves 3 memo hits.
    EXPECT_EQ(rep.companionReuses, 3u);
    EXPECT_NE(rep.find("Surge", configName(ConfigId::SafeFlid)), nullptr);
    EXPECT_EQ(rep.find("Surge", "nonsense"), nullptr);
}

TEST(SimMatrix, ParallelMatchesSerialAcrossEveryFigure3Config)
{
    // One companion-free and one companion-heavy app across the full
    // Figure-3 column set (baseline + C1..C7).
    Experiment b;
    b.options().simulate = false;
    b.addApp(appByName("Oscilloscope"));
    b.addApp(appByName("Surge"));
    b.addConfig(ConfigId::Baseline);
    b.addConfigs(figure3Configs());
    BuildReport builds = b.run().builds;
    ASSERT_TRUE(builds.allOk());

    SimParams serialP;
    serialP.jobs = 1;
    serialP.memoizeCompanions = false;  // true per-cell rebuild
    SimReport serial = runSim(builds, serialP);
    EXPECT_EQ(serial.companionBuilds, 0u);
    EXPECT_EQ(serial.companionReuses, 0u);

    SimParams parP;
    parP.jobs = 4;
    SimReport parallel = runSim(builds, parP);
    EXPECT_EQ(parallel.companionBuilds, 2u);  // Surge + GenericBase

    ASSERT_EQ(serial.records.size(), parallel.records.size());
    for (size_t i = 0; i < serial.records.size(); ++i) {
        std::string why;
        EXPECT_TRUE(SimDriver::recordsEquivalent(
            serial.records[i], parallel.records[i], &why))
            << why;
    }
    std::string why;
    EXPECT_TRUE(SimDriver::reportsEquivalent(serial, parallel, &why))
        << why;
}

TEST(SimMatrix, DeterministicUnderAnyJobCount)
{
    BuildReport builds = smallBuilds();
    SimParams ref;
    ref.jobs = 1;
    SimReport baseline = runSim(builds, ref);
    for (unsigned jobs : {2u, 3u, 8u}) {
        SimParams p;
        p.jobs = jobs;
        SimReport rep = runSim(builds, p);
        std::string why;
        EXPECT_TRUE(SimDriver::reportsEquivalent(baseline, rep, &why))
            << "jobs=" << jobs << ": " << why;
    }
}

/**
 * The sim and joined emissions of `rep` with every *millis* field
 * zeroed: wall time is the one value two runs may differ in.
 */
std::vector<std::string>
untimedEmissions(ExperimentReport rep)
{
    rep.builds.wallMillis = rep.sims.wallMillis = 0;
    for (auto &r : rep.builds.records)
        r.millis = 0;
    for (auto &r : rep.sims.records)
        r.millis = 0;
    std::ostringstream simCsv, simJson, joinedCsv, joinedJson;
    rep.sims.emitCsv(simCsv);
    rep.sims.emitJson(simJson);
    rep.emitJoinedCsv(joinedCsv);
    rep.emitJoinedJson(joinedJson);
    return {simCsv.str(), simJson.str(), joinedCsv.str(),
            joinedJson.str()};
}

TEST(SimMatrix, RepeatedParallelRunsEmitIdenticalBytes)
{
    // Four Mica2 apps whose one companion is CntToLedsAndRfm: with
    // config-major order the first four pool jobs all race for that
    // companion entry, so anything derived from which cell won the
    // race would show up as differing bytes between runs.
    Experiment e;
    e.options().jobs = 4;
    e.options().seconds = 0.05;
    for (const char *name :
         {"GenericBase", "RfmToLeds", "TestTimeStamping", "Ident"})
        e.addApp(appByName(name));
    e.addConfig(ConfigId::Baseline);
    e.addConfig(ConfigId::SafeFlid);
    e.addConfig(ConfigId::SafeFlidCxprop);

    const ExperimentReport first = e.run();
    ASSERT_TRUE(first.allOk());
    EXPECT_EQ(first.sims.companionBuilds, 1u);
    const std::vector<std::string> ref = untimedEmissions(first);
    const char *names[] = {"sim CSV", "sim JSON", "joined CSV",
                           "joined JSON"};
    for (int run = 0; run < 2; ++run) {
        std::vector<std::string> again = untimedEmissions(e.run());
        for (size_t i = 0; i < ref.size(); ++i)
            EXPECT_EQ(again[i], ref[i])
                << names[i] << " differs on repeat " << run + 1;
    }
}

TEST(SimMatrix, CustomRowsOutsideTheRegistrySimulate)
{
    // Benches add rows not present in tinyos::allApps() (e.g.
    // runtime_overhead's "minimal" app). The companion list rides on
    // the BuildRecord, so such rows must simulate — alone or with
    // registry companions.
    const char *kIdle =
        "interrupt(TIMER0) void t() { }"
        "void main() { stos_timer0_start(4096); stos_run_scheduler(); }";
    Experiment b;
    b.options().simulate = false;
    b.addApp({"custom_alone", "Mica2", kIdle, {}, "test", {}});
    b.addApp({"custom_ctx", "Mica2", kIdle, {"CntToLedsAndRfm"}, "test", {}});
    b.addConfig(ConfigId::Baseline);
    BuildReport builds = b.run().builds;
    ASSERT_TRUE(builds.allOk());

    SimReport rep = runSim(builds);
    ASSERT_TRUE(rep.allOk())
        << rep.at(0, 0).error << rep.at(1, 0).error;
    EXPECT_EQ(rep.companionBuilds, 1u);
    EXPECT_LT(rep.at(0, 0).outcome.dutyCycle, 0.05);
}

TEST(SimMatrix, FailedBuildCellsBecomeFailedSimRecords)
{
    Experiment b;
    b.options().jobs = 2;
    b.options().simulate = false;
    b.addApp(appByName("BlinkTask"));
    b.addApp({"Broken", "Mica2", "void main( {", {}, "test", {}});
    b.addConfig(ConfigId::Baseline);
    BuildReport builds = b.run().builds;
    ASSERT_FALSE(builds.allOk());

    SimReport rep = runSim(builds);
    ASSERT_EQ(rep.records.size(), 2u);
    EXPECT_TRUE(rep.at(0, 0).ok);
    EXPECT_FALSE(rep.at(1, 0).ok);
    EXPECT_NE(rep.at(1, 0).error.find("build failed"),
              std::string::npos);
    EXPECT_FALSE(rep.allOk());
}

TEST(SimMatrix, EmptyBuildReportIsEmptySimReport)
{
    BuildReport builds;
    SimReport rep = runSim(builds);
    EXPECT_EQ(rep.records.size(), 0u);
    EXPECT_TRUE(rep.allOk());
}

TEST(SimMatrix, OutcomeFieldsAreConsistent)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);
    for (const auto &r : rep.records) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_LE(r.outcome.awakeCycles, r.outcome.totalCycles);
        EXPECT_GT(r.outcome.instructions, 0u);
        EXPECT_NEAR(r.outcome.dutyCycle,
                    static_cast<double>(r.outcome.awakeCycles) /
                        static_cast<double>(r.outcome.totalCycles),
                    1e-12);
        EXPECT_FALSE(r.outcome.wedged) << r.app << "/" << r.config;
    }
}

TEST(StageCacheCompanions, PersistAcrossSimulationRuns)
{
    // The serial equivalence gates re-run the same matrix; with a
    // caller-owned cache the second run must not rebuild a single
    // companion (ROADMAP follow-on).
    BuildReport builds = smallBuilds();
    StageCache cache;
    Experiment e;
    e.options().seconds = kSimSeconds;

    SimReport first = e.simulateBuilds(builds, cache);
    EXPECT_EQ(first.companionBuilds, 3u);
    SimReport second = e.simulateBuilds(builds, cache);
    EXPECT_EQ(second.companionBuilds, 0u)
        << "persistent cache must serve every companion";
    EXPECT_EQ(second.companionReuses, 6u);

    std::string why;
    EXPECT_TRUE(SimDriver::reportsEquivalent(first, second, &why))
        << why;
}

TEST(StageCacheCompanions, DecodedImageSharesTheCompiledFirmware)
{
    StageCache cache;
    auto cell = cache.build(appByName("CntToLedsAndRfm"),
                            configFor(ConfigId::Baseline, "Mica2"));
    auto decoded = cache.companionDecode("CntToLedsAndRfm", "Mica2");
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(&decoded->program(), &cell->image)
        << "the decode must wrap the cached image, not a copy";
    EXPECT_EQ(cache.companionBuilds(), 1u);
    // Decode requests hit the same memo entry.
    EXPECT_EQ(cache.companionDecode("CntToLedsAndRfm", "Mica2").get(),
              decoded.get());
}

TEST(SimMatrix, LegacyModeMatchesPredecodedCellForCell)
{
    // The driver-level gate of the decoded loop's unfused stream:
    // the legacy reference interpreter and the decoded event-horizon
    // loop must agree on every cell, uart log included.
    BuildReport builds = smallBuilds();

    SimParams legacyP;
    legacyP.jobs = 1;
    legacyP.mode = sim::ExecMode::Legacy;
    SimReport legacy = runSim(builds, legacyP);

    SimParams preP;
    preP.jobs = 2;
    SimReport pre = runSim(builds, preP);

    std::string why;
    EXPECT_TRUE(SimDriver::reportsEquivalent(legacy, pre, &why)) << why;
}

TEST(SimMatrix, LookaheadParallelNetworksMatchSerial)
{
    // Multi-mote networks stepped in parallel inside each lookahead
    // window must be indistinguishable from serial stepping.
    BuildReport builds = smallBuilds();

    SimReport serial = runSim(builds);

    SimParams parP;
    parP.netThreads = 3;
    SimReport parallel = runSim(builds, parP);

    std::string why;
    EXPECT_TRUE(SimDriver::reportsEquivalent(serial, parallel, &why))
        << why;
}

TEST(SimDriver, RecordsEquivalentNamesEveryDifferingField)
{
    // Flip one outcome field at a time: the integer counters are
    // compared through the report's column table and named by their
    // column; duty cycle, UART log and trap log compare exactly.
    SimRecord base;
    base.app = "App";
    base.config = "cfg";
    base.ok = true;
    base.outcome.dutyCycle = 0.25;
    base.outcome.awakeCycles = 100;
    base.outcome.totalCycles = 400;
    base.outcome.instructions = 50;
    base.outcome.uartLog = "hello";
    base.outcome.trapLog.push_back(sim::TrapEntry{7, 90, 3, 0});
    std::string why;
    ASSERT_TRUE(SimDriver::recordsEquivalent(base, base, &why)) << why;

    struct Flip {
        const char *field;
        void (*apply)(SimOutcome &);
    };
    const Flip flips[] = {
        {"awake_cycles", [](SimOutcome &o) { ++o.awakeCycles; }},
        {"total_cycles", [](SimOutcome &o) { ++o.totalCycles; }},
        {"instructions", [](SimOutcome &o) { ++o.instructions; }},
        {"halted", [](SimOutcome &o) { o.halted = !o.halted; }},
        {"wedged", [](SimOutcome &o) { o.wedged = !o.wedged; }},
        {"failed_flid", [](SimOutcome &o) { ++o.failedFlid; }},
        {"traps", [](SimOutcome &o) { ++o.traps; }},
        {"cfi_traps", [](SimOutcome &o) { ++o.cfiTraps; }},
        {"reboots", [](SimOutcome &o) { ++o.reboots; }},
        {"crashes", [](SimOutcome &o) { ++o.crashes; }},
        {"down_cycles", [](SimOutcome &o) { ++o.downCycles; }},
        {"wedged_cycles", [](SimOutcome &o) { ++o.wedgedCycles; }},
        {"packets_dropped", [](SimOutcome &o) { ++o.packetsDropped; }},
        {"packets_corrupted",
         [](SimOutcome &o) { ++o.packetsCorrupted; }},
        {"packets_duplicated",
         [](SimOutcome &o) { ++o.packetsDuplicated; }},
        {"uart_bytes", [](SimOutcome &o) { o.uartLog += '!'; }},
        {"dutyCycle", [](SimOutcome &o) { o.dutyCycle += 1e-12; }},
        {"uartLog", [](SimOutcome &o) { o.uartLog[0] = 'j'; }},
        {"trapLog", [](SimOutcome &o) { ++o.trapLog[0].pc; }},
    };
    for (const Flip &f : flips) {
        SimRecord other = base;
        f.apply(other.outcome);
        why.clear();
        EXPECT_FALSE(SimDriver::recordsEquivalent(base, other, &why))
            << f.field;
        EXPECT_NE(why.find(std::string("App/cfg: ") + f.field),
                  std::string::npos)
            << f.field << ": " << why;
    }
}

/** A simulated ExperimentReport over `builds`, for the joined table. */
ExperimentReport
joined(const BuildReport &builds, const SimReport &sims)
{
    ExperimentReport rep;
    rep.builds = builds;
    rep.sims = sims;
    rep.simulated = true;
    return rep;
}

TEST(SimReport, JoinedCsvMergesStaticAndDynamicColumns)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    std::ostringstream os;
    joined(builds, rep).emitJoinedCsv(os);
    std::istringstream in(os.str());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_NE(header.find("code_bytes"), std::string::npos);
    EXPECT_NE(header.find("duty_cycle"), std::string::npos);
    EXPECT_NE(header.find("surviving_checks"), std::string::npos);
    size_t rows = 0;
    std::string line;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, rep.records.size());
    EXPECT_NE(os.str().find("\"safe, FLIDs\""), std::string::npos);
}

TEST(SimReport, JoinedJsonRoundTripsStructure)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    std::ostringstream os;
    joined(builds, rep).emitJoinedJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"kind\": \"joined_report\""),
              std::string::npos);
    EXPECT_NE(json.find("\"code_bytes\":"), std::string::npos);
    EXPECT_NE(json.find("\"duty_cycle\":"), std::string::npos);
    size_t open = 0, close = 0;
    for (char c : json) {
        open += c == '{';
        close += c == '}';
    }
    EXPECT_EQ(open, close);
}

TEST(SimReport, JoinRejectsAMismatchedBuildReport)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    Experiment b;
    b.options().simulate = false;
    b.addApp(appByName("BlinkTask"));
    b.addConfig(ConfigId::Baseline);
    BuildReport other = b.run().builds;

    std::ostringstream os;
    EXPECT_THROW(joined(other, rep).emitJoinedCsv(os), FatalError);
    EXPECT_THROW(joined(other, rep).emitJoinedJson(os), FatalError);
}

TEST(SimReport, CsvHasHeaderOneRowPerCellAndQuotedLabels)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    std::ostringstream os;
    rep.emitCsv(os);
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.substr(0, 4), "app,");
    EXPECT_NE(line.find("duty_cycle"), std::string::npos);
    size_t rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, rep.records.size());
    // Config labels contain commas and must be quoted.
    EXPECT_NE(os.str().find("\"safe, FLIDs\""), std::string::npos);
}

TEST(SimReport, JsonRoundTripsStructure)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    std::ostringstream os;
    rep.emitJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"kind\": \"sim_report\""), std::string::npos);
    EXPECT_NE(json.find("\"num_apps\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"duty_cycle\":"), std::string::npos);
    size_t open = 0, close = 0, records = 0;
    for (char c : json) {
        open += c == '{';
        close += c == '}';
    }
    EXPECT_EQ(open, close);
    size_t pos = 0;
    while ((pos = json.find("\"app\":", pos)) != std::string::npos) {
        ++records;
        pos += 6;
    }
    EXPECT_EQ(records, rep.records.size());
}

} // namespace
} // namespace stos
