/**
 * @file
 * Golden-file tests for the IR printer and the report emitters. Two
 * small example apps are compiled by the frontend and their printed
 * module text must match the checked-in fixtures under tests/golden/;
 * a small fixed build+sim matrix (one failed build cell, one faulted
 * cell with a non-empty trap log) must emit the checked-in build, sim
 * and joined CSV/JSON bytes, wall-time values aside. Any intentional
 * change to the frontend lowering, the printer format or a report
 * column is re-blessed by rerunning with STOS_UPDATE_GOLDEN=1 and
 * reviewing the fixture diff.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>

#include "core/experiment.h"
#include "frontend/frontend.h"
#include "ir/printer.h"

#ifndef STOS_GOLDEN_DIR
#define STOS_GOLDEN_DIR "tests/golden"
#endif

namespace stos {
namespace {

using namespace stos::ir;

/**
 * Example app 1: an interrupt-driven counter — interrupt handlers,
 * atomic sections, globals, and arithmetic lowering.
 */
const char *kCounterApp = R"TC(
u16 count;
u8 overflowed;

void bump() {
    atomic {
        count = (u16)(count + 1);
        if (count == 0) { overflowed = 1; }
    }
}

interrupt(TIMER0) void on_tick() {
    bump();
}

u16 main() {
    count = 0;
    overflowed = 0;
    u8 i = 0;
    while (i < 10) {
        bump();
        i = (u8)(i + 1);
    }
    return count;
}
)TC";

/**
 * Example app 2: pointers, arrays, structs and function pointers —
 * the lowering paths the safety stage instruments.
 */
const char *kFilterApp = R"TC(
struct Sample { u16 value; u8 flags; };
struct Sample window[4];
u8 head;
fnptr handler;

void record(u16 v) {
    struct Sample s;
    s.value = v;
    s.flags = 1;
    window[(u8)(head & 3)] = s;
    head = (u8)(head + 1);
}

u16 smooth() {
    u16 acc = 0;
    u8 i = 0;
    while (i < 4) {
        acc = (u16)(acc + window[i].value);
        i = (u8)(i + 1);
    }
    return (u16)(acc >> 2);
}

void on_ready() { record(smooth()); }

u16 main() {
    handler = on_ready;
    record(100);
    record(300);
    if (handler != null) { handler(); }
    return smooth();
}
)TC";

std::string
printApp(const std::string &name, const char *src)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC({{name + ".tc", src}}, diags, sm,
                                      name);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    return moduleToString(m);
}

std::string
goldenPath(const std::string &name)
{
    return std::string(STOS_GOLDEN_DIR) + "/" + name + ".golden";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Compare `printed` with tests/golden/<name>.golden (or bless it). */
void
checkGoldenText(const std::string &name, const std::string &printed)
{
    ASSERT_FALSE(printed.empty());
    std::string path = goldenPath(name);

    if (std::getenv("STOS_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << printed;
        GTEST_SKIP() << "fixture " << path << " regenerated";
    }

    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing fixture " << path
        << " (regenerate with STOS_UPDATE_GOLDEN=1)";
    if (printed != expected) {
        // Locate the first differing line for a readable failure.
        std::istringstream got(printed), want(expected);
        std::string gline, wline;
        size_t lineNo = 0;
        while (true) {
            ++lineNo;
            bool g = static_cast<bool>(std::getline(got, gline));
            bool w = static_cast<bool>(std::getline(want, wline));
            if (!g && !w)
                break;
            if (gline != wline || g != w) {
                FAIL() << name << ".golden line " << lineNo
                       << ":\n  expected: "
                       << (w ? wline : std::string("<eof>"))
                       << "\n  got:      "
                       << (g ? gline : std::string("<eof>"))
                       << "\n(bless with STOS_UPDATE_GOLDEN=1 after "
                          "review)";
            }
        }
        FAIL() << "printed text differs from " << path;
    }
}

void
checkGolden(const std::string &name, const char *src)
{
    checkGoldenText(name, printApp(name, src));
}

TEST(GoldenPrinter, CounterApp)
{
    checkGolden("counter", kCounterApp);
}

TEST(GoldenPrinter, FilterApp)
{
    checkGolden("sample_filter", kFilterApp);
}

/** The printer must be a pure function of the module. */
TEST(GoldenPrinter, PrintingIsDeterministic)
{
    EXPECT_EQ(printApp("counter", kCounterApp),
              printApp("counter", kCounterApp));
    EXPECT_EQ(printApp("sample_filter", kFilterApp),
              printApp("sample_filter", kFilterApp));
}

//---------------------------------------------------------------------
// Report emitters
//---------------------------------------------------------------------

/** Wall-time columns: the only nondeterministic report values. */
bool
isTimingColumn(const std::string &name)
{
    return name == "millis" || name == "wall_millis" ||
           name == "build_millis" || name == "sim_millis";
}

/**
 * Replace every timing column's value of an RFC-4180 CSV with "T".
 * Quoted fields may hold commas and newlines (config labels, error
 * text), so records are split quote-aware.
 */
std::string
normalizeCsvTimings(const std::string &csv)
{
    std::vector<std::vector<std::string>> rows(1);
    std::string field;
    bool quoted = false;
    for (char c : csv) {
        if (c == '"')
            quoted = !quoted;
        if (!quoted && c == ',') {
            rows.back().push_back(field);
            field.clear();
        } else if (!quoted && c == '\n') {
            rows.back().push_back(field);
            field.clear();
            rows.emplace_back();
        } else {
            field += c;
        }
    }
    EXPECT_TRUE(field.empty() && rows.back().empty())
        << "CSV must end with a newline";
    rows.pop_back();
    if (rows.empty())
        return csv;
    const std::vector<std::string> &header = rows.front();
    std::string out;
    for (size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != header.size()) {
            ADD_FAILURE() << "ragged CSV row " << r;
            return csv;
        }
        for (size_t i = 0; i < header.size(); ++i) {
            out += i ? "," : "";
            out += r > 0 && isTimingColumn(header[i]) ? "T" : rows[r][i];
        }
        out += '\n';
    }
    return out;
}

std::string
normalizeJsonTimings(const std::string &json)
{
    static const std::regex kTiming(
        "\"(millis|wall_millis|build_millis|sim_millis)\": [0-9.]+");
    return std::regex_replace(json, kTiming, "\"$1\": T");
}

/**
 * Three rows x two columns, simulated under an attack campaign:
 * AttackFnptrDispatch traps on its corrupted function pointer under
 * the CFI column (non-empty trap log, reboot), Ident simulates with a
 * companion over a lossy radio, and Broken fails to build (a failed
 * build cell and its failed sim cell). One job: under more, which
 * cell of an app reaches its frontend entry first (and so reports
 * frontend_reused=false) depends on scheduling.
 */
core::ExperimentReport
goldenReport()
{
    core::Experiment exp;
    exp.options().jobs = 1;
    exp.options().seconds = 0.25;
    exp.options().faults.ptrOverwrites = 1;
    exp.options().faults.attackGlobal = "handler";
    exp.options().faults.attackValue = 0xEE;
    exp.options().faults.radioLoss = 0.2;
    exp.options().faults.radioCorrupt = 0.1;
    exp.options().faults.radioDup = 0.1;
    exp.options().faults.recovery = sim::RecoveryPolicy::RebootOnTrap;
    exp.addApp(tinyos::attackAppByName("AttackFnptrDispatch"));
    exp.addApp(tinyos::appByName("Ident"));
    exp.addApp({"Broken", "Mica2", "void main( {\n\"quote\"", {}, "test",
                {}});
    exp.addConfig(core::ConfigId::Baseline);
    exp.addConfig(core::ConfigId::SafeFlidCfi);
    return exp.run();
}

template <typename Emit>
std::string
emitted(Emit emit)
{
    std::ostringstream os;
    emit(os);
    return os.str();
}

TEST(GoldenReport, EveryEmissionMatchesItsFixture)
{
    const core::ExperimentReport rep = goldenReport();
    ASSERT_TRUE(rep.simulated);
    // The fixture must cover what it claims to.
    ASSERT_FALSE(rep.builds.at(2, 0).ok);
    ASSERT_FALSE(rep.sims.at(2, 0).ok);
    ASSERT_TRUE(rep.sims.at(0, 1).ok) << rep.sims.at(0, 1).error;
    ASSERT_FALSE(rep.sims.at(0, 1).outcome.trapLog.empty());

    checkGoldenText("report_build_csv",
                    normalizeCsvTimings(emitted(
                        [&](std::ostream &os) { rep.builds.emitCsv(os); })));
    checkGoldenText("report_build_json",
                    normalizeJsonTimings(emitted(
                        [&](std::ostream &os) { rep.builds.emitJson(os); })));
    checkGoldenText("report_sim_csv",
                    normalizeCsvTimings(emitted(
                        [&](std::ostream &os) { rep.sims.emitCsv(os); })));
    checkGoldenText("report_sim_json",
                    normalizeJsonTimings(emitted(
                        [&](std::ostream &os) { rep.sims.emitJson(os); })));
    checkGoldenText("report_joined_csv",
                    normalizeCsvTimings(emitted(
                        [&](std::ostream &os) { rep.emitJoinedCsv(os); })));
    checkGoldenText("report_joined_json",
                    normalizeJsonTimings(emitted([&](std::ostream &os) {
                        rep.emitJoinedJson(os);
                    })));
}

} // namespace
} // namespace stos
