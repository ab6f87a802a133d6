/**
 * @file
 * Unit tests for the cXprop stage: abstract domains, constant and
 * branch folding, check elimination, copy propagation, DCE, the
 * inliner (with differential execution), and atomic optimization.
 */
#include <gtest/gtest.h>

#include "analysis/callgraph.h"
#include "analysis/concurrency.h"
#include "analysis/liveness.h"
#include "analysis/pointsto.h"
#include "core/experiment.h"
#include "core/pipeline.h"
#include "frontend/frontend.h"
#include "ir/interp.h"
#include "ir/verifier.h"
#include "opt/absval.h"
#include "opt/cxprop.h"
#include "opt/inliner.h"
#include "opt/passes.h"
#include "safety/ccured.h"

namespace stos {
namespace {

using namespace stos::ir;
using namespace stos::opt;

Module
compile(const std::string &src)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC({{"t.tc", src}}, diags, sm);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    return m;
}

uint64_t
runMain(Module &m)
{
    Interp in(m);
    auto r = in.run("main");
    EXPECT_EQ(r.reason, StopReason::Returned) << r.detail;
    return r.retVal.i;
}

size_t
countInstrs(const Module &m)
{
    size_t n = 0;
    for (const auto &f : m.funcs()) {
        if (f.dead)
            continue;
        for (const auto &bb : f.blocks)
            n += bb.instrs.size();
    }
    return n;
}

//---------------------------------------------------------------------
// Abstract domain unit tests
//---------------------------------------------------------------------

TEST(AbsVal, JoinOfConstantsIsRange)
{
    DomainConfig cfg;
    AbsVal a = AbsVal::constant(3);
    AbsVal b = AbsVal::constant(7);
    AbsVal j = join(a, b, cfg);
    EXPECT_EQ(j.lo, 3);
    EXPECT_EQ(j.hi, 7);
    EXPECT_FALSE(j.isConst());
}

TEST(AbsVal, ConstantsOnlyDomainLosesRanges)
{
    DomainConfig cfg;
    cfg.intervals = false;
    AbsVal j = join(AbsVal::constant(3), AbsVal::constant(7), cfg);
    EXPECT_TRUE(j.isTop());
}

TEST(AbsVal, BottomIsJoinIdentity)
{
    DomainConfig cfg;
    AbsVal c = AbsVal::constant(5);
    EXPECT_EQ(join(AbsVal::bottom(), c, cfg), c);
    EXPECT_EQ(join(c, AbsVal::bottom(), cfg), c);
}

TEST(AbsVal, RefineByCompareNarrows)
{
    DomainConfig cfg;
    AbsVal v = AbsVal::range(0, 255);
    AbsVal bound = AbsVal::constant(10);
    AbsVal lt = refineByCompare(v, BinOp::LtU, bound, true, cfg);
    EXPECT_EQ(lt.hi, 9);
    AbsVal ge = refineByCompare(v, BinOp::LtU, bound, false, cfg);
    EXPECT_EQ(ge.lo, 10);
    AbsVal impossible = refineByCompare(AbsVal::constant(3), BinOp::GtU,
                                        AbsVal::constant(9), true, cfg);
    EXPECT_TRUE(impossible.isBottom());
}

/**
 * Property sweep: interval transfer functions must over-approximate
 * concrete arithmetic. For each operator and a grid of sample ranges,
 * every concrete result of (a op b) must fall inside evalBin's range.
 */
class IntervalSoundness
    : public ::testing::TestWithParam<ir::BinOp> {};

TEST_P(IntervalSoundness, OverApproximatesConcreteResults)
{
    BinOp op = GetParam();
    Module m;  // for a TypeTable
    TypeTable &tt = m.types();
    DomainConfig cfg;
    const int64_t samples[][2] = {
        {0, 5},   {3, 3},   {1, 16},  {0, 255}, {10, 20},
        {2, 9},   {7, 31},  {1, 2},   {100, 200},
    };
    for (const auto &ra : samples) {
        for (const auto &rb : samples) {
            AbsVal a = AbsVal::range(ra[0], ra[1]);
            AbsVal b = AbsVal::range(rb[0], rb[1]);
            AbsVal r = evalBin(op, a, b, tt, tt.u16(), tt.u16(), cfg);
            if (r.isTop() || r.kind != AbsVal::Int)
                continue;  // Top is trivially sound
            for (int64_t x = ra[0]; x <= ra[1]; x += 3) {
                for (int64_t y = rb[0]; y <= rb[1]; y += 3) {
                    int64_t c;
                    switch (op) {
                      case BinOp::Add: c = x + y; break;
                      case BinOp::Sub: c = x - y; break;
                      case BinOp::Mul: c = x * y; break;
                      case BinOp::And: c = x & y; break;
                      case BinOp::Or: c = x | y; break;
                      case BinOp::Xor: c = x ^ y; break;
                      case BinOp::DivU: c = y ? x / y : 0; break;
                      case BinOp::RemU: c = y ? x % y : 0; break;
                      case BinOp::LtU: c = x < y; break;
                      case BinOp::GeU: c = x >= y; break;
                      default: c = 0; break;
                    }
                    if ((op == BinOp::DivU || op == BinOp::RemU) && !y)
                        continue;
                    // Values stay within u16 here, so no wraparound.
                    if (c >= 0 && c <= 0xFFFF) {
                        EXPECT_LE(r.lo, c)
                            << binOpName(op) << " [" << ra[0] << ","
                            << ra[1] << "] [" << rb[0] << "," << rb[1]
                            << "] concrete " << c;
                        EXPECT_GE(r.hi, c)
                            << binOpName(op) << " concrete " << c;
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, IntervalSoundness,
    ::testing::Values(BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And,
                      BinOp::Or, BinOp::Xor, BinOp::DivU, BinOp::RemU,
                      BinOp::LtU, BinOp::GeU));

//---------------------------------------------------------------------
// Transformations
//---------------------------------------------------------------------

TEST(Cxprop, FoldsConstantsAcrossFunctions)
{
    Module m = compile(
        "u16 base() { return 40; }"
        "u16 main() { return base() + 2; }");
    CxpropReport rep = runCxprop(m);
    EXPECT_GT(rep.instrsConstFolded, 0u);
    EXPECT_EQ(runMain(m), 42u);
}

TEST(Cxprop, FoldsBranchesAndRemovesDeadCode)
{
    Module m = compile(
        "u16 mode;"   // never written: stays 0
        "u16 main() {"
        "  if (mode == 0) { return 1; }"
        "  return 2;"
        "}");
    CxpropReport rep = runCxprop(m);
    EXPECT_GT(rep.branchesFolded, 0u);
    EXPECT_EQ(runMain(m), 1u);
}

TEST(Cxprop, PreservesSemanticsOnLoops)
{
    const char *src =
        "u16 main() {"
        "  u16 s = 0;"
        "  for (u16 i = 0; i < 37; i++) { s += i * 3; }"
        "  return s;"
        "}";
    Module ref = compile(src);
    uint64_t expected = runMain(ref);
    Module m = compile(src);
    runCxprop(m);
    verifyOrDie(m, "cxprop");
    EXPECT_EQ(runMain(m), expected);
}

TEST(Cxprop, RemovesProvableChecks)
{
    Module m = compile(
        "u8 buf[16];"
        "u16 main() {"
        "  u8 i = 0;"
        "  while (i < 16) { buf[i] = i; i = (u8)(i + 1); }"
        "  return buf[3];"
        "}");
    safety::SafetyConfig scfg;
    safety::applySafety(m, scfg);
    CxpropOptions opts;
    CxpropReport rep = runCxprop(m, opts);
    EXPECT_GT(rep.checksRemoved, 0u);
    EXPECT_EQ(runMain(m), 3u);
}

TEST(Cxprop, KeepsUnprovableChecks)
{
    // Index comes from hardware: no bound exists, the check must stay.
    Module m = compile(
        "hwreg u8 SRC @ 0x40;"
        "u8 buf[16];"
        "void main() { u8 i = SRC; buf[i] = 1; }");
    safety::SafetyConfig scfg;
    safety::applySafety(m, scfg);
    runCxprop(m);
    uint32_t checks = 0;
    for (const auto &f : m.funcs()) {
        if (f.dead)
            continue;
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.isCheck())
                    ++checks;
            }
        }
    }
    EXPECT_GE(checks, 1u);
}

TEST(Cxprop, DomainAblationMatters)
{
    const char *src =
        "u8 buf[16];"
        "u16 main() {"
        "  u8 i = 0;"
        "  while (i < 16) { buf[i] = i; i = (u8)(i + 1); }"
        "  return buf[3];"
        "}";
    Module withIv = compile(src);
    safety::SafetyConfig scfg;
    safety::applySafety(withIv, scfg);
    CxpropOptions rich;
    CxpropReport r1 = runCxprop(withIv, rich);

    Module constOnly = compile(src);
    safety::applySafety(constOnly, scfg);
    CxpropOptions poor;
    poor.domains.intervals = false;
    poor.domains.knownBits = false;
    CxpropReport r2 = runCxprop(constOnly, poor);
    EXPECT_GT(r1.checksRemoved, r2.checksRemoved)
        << "intervals are needed to prove loop bounds";
}

TEST(Cxprop, DeadGlobalEliminated)
{
    Module m = compile(
        "u16 unused = 99;"
        "u16 written;"       // stored but never read
        "u16 main() { written = 5; return 1; }");
    CxpropReport rep = runCxprop(m);
    EXPECT_GE(rep.deadStoresRemoved, 1u);
    EXPECT_GE(rep.deadGlobalsRemoved, 2u);
    EXPECT_EQ(m.findGlobal("unused"), nullptr);
    EXPECT_EQ(m.findGlobal("written"), nullptr);
    EXPECT_EQ(runMain(m), 1u);
}

TEST(Cxprop, DeadFunctionEliminated)
{
    Module m = compile(
        "void never() { }"
        "u16 main() { return 3; }");
    CxpropReport rep = runCxprop(m);
    EXPECT_GE(rep.deadFuncsRemoved, 1u);
    EXPECT_EQ(m.findFunc("never"), nullptr);
}

TEST(Cxprop, RacyGlobalsAreNotFolded)
{
    // `shared` is written by the handler, so main's read must not be
    // constant-folded to its initial value.
    Module m = compile(
        "u16 shared;"
        "interrupt(TIMER0) void tick() { shared = 1234; }"
        "u16 main() { return shared; }");
    runCxprop(m);
    Interp in(m);
    in.scheduleInterrupt(1, 0);
    // Let the handler run first by sleeping via a crafted schedule:
    // simply run main after the interrupt fires at step 1.
    auto r = in.run("main");
    // Whether or not the interrupt preempted in time, the load must
    // still be a real load: check the IR kept a Load of `shared`.
    bool hasLoad = false;
    for (const auto &bb : m.findFunc("main")->blocks) {
        for (const auto &in2 : bb.instrs) {
            if (in2.op == Opcode::Load)
                hasLoad = true;
        }
    }
    EXPECT_TRUE(hasLoad);
    (void)r;
}

TEST(Cxprop, WideningFollowsVisitCountsNotSummaryRounds)
{
    // g4++ climbs one widening threshold per interprocedural round, so
    // the analysis runs past the round where summaries widen to
    // infinity. The ternary joins blocks inside the nested loop while
    // the address of a5[q3 & 3] (offset [0, 4]) is live across that
    // join. If block widening followed the summary switch, that join
    // would widen the offset to infinity and keep the bounds check.
    // Cut down from fuzz seed 12 (`fuzz_differential --dump 12`).
    const char *src =
        "u16 g4;"
        "i8 g1;"
        "i32 a5[4];"
        "i32 h0() { return 0; }"
        "u16 main() {"
        "  g4++;"
        "  for (u8 q3 = 0; q3 < 2; q3++) {"
        "    for (u8 q4 = 0; q4 < 3; q4++) {"
        "      if (h0() == 0) { a5[q3 & 3] = true ? 5 : g1; }"
        "    }"
        "  }"
        "  return 0;"
        "}";
    core::BuildResult br = core::buildSource(
        "widen", src,
        core::configFor(core::ConfigId::SafeFlidInlineCxprop, "Mica2"));
    EXPECT_GT(br.cxpropReport.checksRemoved, 0u);
    for (const auto &f : br.module.funcs()) {
        if (f.dead)
            continue;
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs)
                EXPECT_NE(in.op, Opcode::ChkUBound) << "flid " << in.flid;
        }
    }
}

//---------------------------------------------------------------------
// cXprop work counters
//---------------------------------------------------------------------

TEST(CxpropWork, SlotsJoinedAreLiveInSlotsPerEdge)
{
    // Loop-free functions: every fixpoint visits each reachable block
    // once, so each analysis walks each reachable edge once and joins
    // exactly the successor's live-in vregs.
    Module m = compile(
        "u16 g;"
        "u16 pick(u16 x) { if (x > 3) { return x - 1; } return x + 1; }"
        "u16 main() {"
        "  u16 a = g;"
        "  u16 b = g + 1;"
        "  u16 c = a * 3;"
        "  u16 r = 0;"
        "  if (a < 5) { r = a + b; } else { r = b; }"
        "  if (r > 3) { r = r + c; }"
        "  return pick(r);"
        "}");
    uint64_t edges = 0, slots = 0, funcs = 0, dense = 0;
    for (const auto &f : m.funcs()) {
        if (f.dead)
            continue;
        ++funcs;
        analysis::Liveness lv(m, f);
        std::vector<bool> seen(f.blocks.size(), false);
        std::vector<uint32_t> stack{0};
        seen[0] = true;
        while (!stack.empty()) {
            uint32_t b = stack.back();
            stack.pop_back();
            const Instr &t = f.blocks[b].instrs.back();
            for (uint32_t s : {t.b0, t.b1}) {
                if (t.op == Opcode::Ret || s == kNoBlock)
                    continue;
                ++edges;
                dense += f.vregs.size();
                for (bool live : lv.liveIn(s))
                    slots += live;
                if (!seen[s]) {
                    seen[s] = true;
                    stack.push_back(s);
                }
            }
        }
    }
    ASSERT_GT(edges, 0u);

    CxpropOptions opts;
    opts.maxRounds = 1;  // one Engine over the unmodified module
    CxpropReport rep = runCxprop(m, opts);
    EXPECT_EQ(rep.engineBuilds, 1u);
    // Every interprocedural round analyzes each function, and so does
    // the transform pass.
    uint64_t analyses = rep.ipRounds + 1;
    EXPECT_EQ(rep.funcAnalyses, analyses * funcs);
    EXPECT_EQ(rep.edges, analyses * edges);
    EXPECT_EQ(rep.slotsJoined, analyses * slots);
    EXPECT_EQ(rep.slotsWidened, 0u);
    EXPECT_LT(rep.slotsJoined, analyses * dense);
}

TEST(CxpropWork, Figure3MatrixSlotsJoinedStayBounded)
{
    // A deterministic gate on fixpoint work: the slots joined by every
    // cXprop column of the Figure-3 matrix (C5, C6, C7) plus the one
    // CFI column that runs cXprop, summed over the 25 apps. The sparse
    // fixpoint joins 4,238,715 slots here; the bound leaves ~11%
    // headroom. A dense fixpoint, joining every vreg on every edge,
    // joined 275,904,287.
    core::ExperimentOptions opts;
    opts.simulate = false;
    core::Experiment exp(opts);
    exp.addAllApps();
    exp.addConfigs({core::ConfigId::SafeFlidCxprop,
                    core::ConfigId::SafeFlidInlineCxprop,
                    core::ConfigId::UnsafeInlineCxprop,
                    core::ConfigId::SafeFlidInlineCxpropCfi});
    core::BuildReport rep = exp.run().builds;
    uint64_t slots = 0;
    for (const auto &r : rep.records) {
        ASSERT_TRUE(r.ok) << r.app << "/" << r.config << ": " << r.error;
        slots += r.result->cxpropReport.slotsJoined;
    }
    EXPECT_EQ(rep.records.size(), 100u);
    EXPECT_GT(slots, 0u);
    EXPECT_LE(slots, 4'700'000u) << "cXprop joined " << slots
                                 << " slots";
}

//---------------------------------------------------------------------
// Inliner
//---------------------------------------------------------------------

TEST(Inliner, InlinesAndPreservesSemantics)
{
    const char *src =
        "u16 sq(u16 x) { return x * x; }"
        "u16 main() { u16 a = sq(5); u16 b = sq(6); return a + b; }";
    Module ref = compile(src);
    uint64_t expected = runMain(ref);
    Module m = compile(src);
    uint32_t n = inlineFunctions(m);
    EXPECT_GE(n, 2u);
    verifyOrDie(m, "inline");
    EXPECT_EQ(runMain(m), expected);
    EXPECT_EQ(m.findFunc("sq"), nullptr) << "fully inlined helper dies";
}

TEST(Inliner, RespectsNoInline)
{
    Module m = compile(
        "noinline u16 keep(u16 x) { return x + 1; }"
        "u16 main() { return keep(4); }");
    EXPECT_EQ(inlineFunctions(m), 0u);
    EXPECT_NE(m.findFunc("keep"), nullptr);
}

TEST(Inliner, SkipsRecursion)
{
    Module m = compile(
        "u16 f(u16 n) { if (n == 0) { return 1; } return n * f(n - 1); }"
        "u16 main() { return f(4); }");
    inlineFunctions(m);
    EXPECT_NE(m.findFunc("f"), nullptr);
    EXPECT_EQ(runMain(m), 24u);
}

TEST(Inliner, HandlesControlFlowInCallee)
{
    const char *src =
        "u16 clamp(u16 v) { if (v > 10) { return 10; } return v; }"
        "u16 main() { return clamp(3) + clamp(99); }";
    Module ref = compile(src);
    uint64_t expected = runMain(ref);
    Module m = compile(src);
    inlineFunctions(m);
    verifyOrDie(m, "inline");
    EXPECT_EQ(runMain(m), expected);
}

//---------------------------------------------------------------------
// Standalone passes
//---------------------------------------------------------------------

TEST(Passes, CopyPropRemovesMovChains)
{
    Module m = compile(
        "u16 main() { u16 a = 5; u16 b = a; u16 c = b; return c; }");
    Function &f = *m.findFunc("main");
    uint32_t n = localCopyProp(m, f);
    EXPECT_GT(n, 0u);
    removeDeadInstrs(m, f);
    EXPECT_EQ(runMain(m), 5u);
}

TEST(Passes, SimplifyCfgRemovesUnreachable)
{
    Module m = compile(
        "u16 main() { return 1; return 2; }");
    Function &f = *m.findFunc("main");
    size_t before = f.blocks.size();
    simplifyCfg(f);
    EXPECT_LE(f.blocks.size(), before);
    EXPECT_EQ(runMain(m), 1u);
}

TEST(Passes, AtomicOptimizationRemovesNested)
{
    Module m = compile(
        "u16 x;"
        "interrupt(TIMER0) void tick() { x++; }"
        "void main() { atomic { atomic { x = 2; } } }");
    analysis::CallGraph cg(m);
    analysis::PointsTo pts(m);
    analysis::ConcurrencyAnalysis conc(m, cg, pts, {});
    AtomicOptReport rep = optimizeAtomics(m, conc);
    EXPECT_GE(rep.nestedRemoved, 1u);
    // Still balanced: run it.
    Interp in(m);
    EXPECT_EQ(in.run("main").reason, StopReason::Returned);
}

TEST(Passes, AtomicsInsideHandlersRemoved)
{
    Module m = compile(
        "u16 x;"
        "interrupt(TIMER0) void tick() { atomic { x++; } }"
        "void main() { x = 0; }");
    analysis::CallGraph cg(m);
    analysis::PointsTo pts(m);
    analysis::ConcurrencyAnalysis conc(m, cg, pts, {});
    AtomicOptReport rep = optimizeAtomics(m, conc);
    EXPECT_GE(rep.handlerAtomicsRemoved, 1u);
    int atomicOps = 0;
    for (const auto &bb : m.findFunc("tick")->blocks) {
        for (const auto &in : bb.instrs) {
            if (in.op == Opcode::AtomicBegin ||
                in.op == Opcode::AtomicEnd)
                ++atomicOps;
        }
    }
    EXPECT_EQ(atomicOps, 0);
}

} // namespace
} // namespace stos
