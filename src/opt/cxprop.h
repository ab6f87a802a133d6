/**
 * @file
 * cXprop: whole-program dataflow analysis and transformation driver
 * ("run cXprop" in Figure 1). Interprocedural, context-insensitive
 * abstract interpretation over the pluggable domains in absval.h,
 * concurrency-aware (racy variables are never propagated), followed
 * by constant/branch folding, safety-check elimination, copy
 * propagation, strong DCE (instructions, stores, globals, functions),
 * and atomic-section optimization.
 */
#ifndef STOS_OPT_CXPROP_H
#define STOS_OPT_CXPROP_H

#include "analysis/concurrency.h"
#include "ir/module.h"
#include "opt/absval.h"
#include "opt/inliner.h"

namespace stos::opt {

struct CxpropOptions {
    DomainConfig domains;
    /** Run the custom inliner first (configuration 4 of Figure 2). */
    bool inlineFirst = false;
    InlineOptions inlineOpts;
    int maxRounds = 6;
    bool optimizeAtomics = true;
    bool removeChecks = true;
    bool copyProp = true;
    bool strongDce = true;
    analysis::ConcurrencyOptions concurrency;
};

struct CxpropReport {
    uint32_t funcsInlined = 0;
    uint32_t instrsConstFolded = 0;
    uint32_t branchesFolded = 0;
    uint32_t checksRemoved = 0;
    uint32_t copiesPropagated = 0;
    uint32_t deadInstrsRemoved = 0;
    uint32_t deadStoresRemoved = 0;
    uint32_t deadGlobalsRemoved = 0;
    uint32_t deadFuncsRemoved = 0;
    uint32_t atomicsRemoved = 0;
    uint32_t atomicSavesDowngraded = 0;
    int rounds = 0;

    // Work counters: how much fixpoint work the run did, counted
    // exactly, so a regression shows without a wall clock.
    uint32_t engineBuilds = 0;    ///< analysis engines (one per round)
    uint32_t ipRounds = 0;        ///< interprocedural rounds, all engines
    uint64_t funcAnalyses = 0;    ///< per-function fixpoints solved
    uint64_t blockVisits = 0;     ///< worklist block visits
    uint64_t edges = 0;           ///< CFG edges propagated
    /** Vreg slots merged into a successor's entry state, joined or
     *  widened: |live-in(s)| per edge into s. */
    uint64_t slotsJoined = 0;
    uint64_t slotsWidened = 0;    ///< of slotsJoined, those widened
};

/** Run the full cXprop pipeline over the module. */
CxpropReport runCxprop(ir::Module &m, const CxpropOptions &opts = {});

} // namespace stos::opt

#endif
