/**
 * @file
 * StageCache implementation. Every product goes through one memo
 * path. `resolve` finds the entry under the map mutex and runs its
 * maker at most once via the entry's once_flag: concurrent requesters
 * block on the first run and share the product, and a failure is
 * captured and rethrown to every requester. `memo` is the stage layer
 * on top of it. Its maker first consults the backing store (a disk
 * hit materializes the product without running the stage body),
 * else runs the body and writes the fresh product back. It then
 * counts the request (executed, diskHits or reused) and marks
 * StageHits: a memo or disk hit at stage s marks s and every upstream
 * stage, and an execution marks s false, leaving upstream to the
 * nested request the body made. Companion decodes use `resolve`
 * alone: no store, no stage counters, no StageHits.
 *
 * A stage body requests its upstream product through the cache, so
 * chains nest strictly downstream -> upstream and can never
 * deadlock, and a fully warmed store serves a build from the single
 * backend artifact — the upstream stages are never even requested.
 * Counters are relaxed atomics — they are statistics, not
 * synchronization. Failures are never persisted, so a failing stage
 * re-runs (and rethrows) per process.
 */
#include "core/stagecache.h"

#include "support/binio.h"

namespace stos::core {

//---------------------------------------------------------------------
// Keys
//---------------------------------------------------------------------

std::string
StageCache::appKey(const tinyos::AppInfo &app)
{
    return appKey(app, tinyos::libSource());
}

std::string
StageCache::appKey(const tinyos::AppInfo &app,
                   const std::string &librarySource)
{
    // Content-keyed: two rows with the same name but different source
    // (a tweaked custom app) must not collide. The frontend parses
    // library + app together, so the library source is part of the
    // fingerprint — an edit to the shared TinyOS library must miss,
    // not silently serve stale products. The frontend is
    // platform-independent, so the platform is deliberately absent —
    // it enters the chain in the backend fingerprint. FNV-1a rather
    // than std::hash: keys name on-disk artifacts shared across
    // processes, so the hash must be stable across runs and builds.
    char hex[4 * sizeof(uint64_t) + 2];
    snprintf(hex, sizeof hex, "%llx.%llx",
             static_cast<unsigned long long>(support::fnv1a64(app.source)),
             static_cast<unsigned long long>(
                 support::fnv1a64(librarySource)));
    return app.name + "#" + hex;
}

std::string
StageCache::safetyKey(const tinyos::AppInfo &app,
                      const PipelineConfig &cfg)
{
    return appKey(app) + "|" + safetyFingerprint(cfg);
}

std::string
StageCache::optKey(const tinyos::AppInfo &app, const PipelineConfig &cfg)
{
    return safetyKey(app, cfg) + "|" + optFingerprint(cfg);
}

std::string
StageCache::buildKey(const tinyos::AppInfo &app,
                     const PipelineConfig &cfg)
{
    return optKey(app, cfg) + "|" + backendFingerprint(cfg);
}

//---------------------------------------------------------------------
// Store plumbing
//---------------------------------------------------------------------

template <typename T>
std::shared_ptr<const T>
StageCache::tryLoad(Stage stage, const std::string &key)
{
    if (!store_)
        return nullptr;
    std::string blob;
    if (!store_->load(stage, key, &blob))
        return nullptr;
    try {
        support::BinReader r(blob);
        auto product = std::make_shared<const T>(T::deserialize(r));
        return product;
    } catch (const support::TruncatedData &) {
        // Hash-valid artifact that fails to decode: a serializer
        // changed shape without a kStoreFormatVersion bump. Degrade
        // to a miss — the stage re-runs and its write-back replaces
        // the stale artifact.
        return nullptr;
    }
}

template <typename T>
void
StageCache::writeBack(Stage stage, const std::string &key,
                      const T &product)
{
    if (!store_)
        return;
    support::BinWriter w;
    product.serialize(w);
    store_->store(stage, key, w.data());
}

//---------------------------------------------------------------------
// The memo path
//---------------------------------------------------------------------

namespace {

/** The field of a StageHits or StageCacheStats for stage index `s`. */
template <typename Rec>
auto &
atStage(Rec &rec, size_t s)
{
    decltype(&rec.frontend) fields[] = {&rec.frontend, &rec.safety,
                                        &rec.opt, &rec.backend};
    return *fields[s];
}

} // namespace

template <typename T, typename K, typename Make>
std::shared_ptr<StageCache::Entry<T>>
StageCache::resolve(EntryMap<T, K> &map, const K &key, bool *ran,
                    Make &&make)
{
    std::shared_ptr<Entry<T>> entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &slot = map[key];
        if (!slot)
            slot = std::make_shared<Entry<T>>();
        entry = slot;
    }
    std::call_once(entry->once, [&] {
        *ran = true;
        try {
            entry->value = make();
        } catch (...) {
            entry->error = std::current_exception();
        }
    });
    return entry;
}

template <typename T, typename Body>
std::shared_ptr<const T>
StageCache::memo(Stage stage, EntryMap<T> &map, const std::string &key,
                 StageHits *hits, Body &&body)
{
    bool ran = false, disk = false;
    auto entry = resolve(map, key, &ran, [&] {
        std::shared_ptr<const T> product = tryLoad<T>(stage, key);
        if (product) {
            disk = true;
        } else {
            product = std::make_shared<const T>(body());
            writeBack(stage, key, *product);
        }
        return product;
    });
    const size_t at = static_cast<size_t>(stage);
    StageCounters &n = counters_[at];
    (disk ? n.diskHits : ran ? n.executed : n.reused)
        .fetch_add(1, std::memory_order_relaxed);
    // A hit marks this stage and everything upstream of it; an
    // execution marks this stage alone (its body's nested request
    // already marked upstream).
    const bool hit = !ran || disk;
    for (size_t s = hit ? 0 : at; hits && s <= at; ++s)
        atStage(*hits, s) = hit;
    return entry->get();
}

//---------------------------------------------------------------------
// Stages
//---------------------------------------------------------------------

std::shared_ptr<const FrontendProduct>
StageCache::frontend(const tinyos::AppInfo &app, StageHits *hits)
{
    return memo(Stage::Frontend, frontends_, appKey(app), hits, [&] {
        return runFrontend(app.name, app.source);
    });
}

std::shared_ptr<const SafetyProduct>
StageCache::safety(const tinyos::AppInfo &app, const PipelineConfig &cfg,
                   StageHits *hits)
{
    return memo(Stage::Safety, safeties_, safetyKey(app, cfg), hits, [&] {
        auto fe = frontend(app, hits);
        if (cfg.safe)
            return runSafetyStage(fe->module.clone(),
                                  fe->sourceManager.get(), cfg);
        // Unsafe pass-through: alias the frontend's module rather
        // than storing a clone — the product pins the FrontendProduct
        // alive but adds no module bytes.
        SafetyProduct sp;
        sp.module = std::shared_ptr<const ir::Module>(fe, &fe->module);
        return sp;
    });
}

std::shared_ptr<const OptProduct>
StageCache::opt(const tinyos::AppInfo &app, const PipelineConfig &cfg,
                StageHits *hits)
{
    return memo(Stage::Opt, opts_, optKey(app, cfg), hits, [&] {
        auto sp = safety(app, cfg, hits);
        // Pass config to the stage with the upstream product; the
        // no-cxprop pass-through shares sp's module pointer inside
        // runOptStage (no clone, no copy of the module).
        return runOptStage({sp->module, sp->report}, cfg);
    });
}

std::shared_ptr<const BuildResult>
StageCache::build(const tinyos::AppInfo &app, const PipelineConfig &cfg,
                  StageHits *hits)
{
    return memo(Stage::Backend, builds_, buildKey(app, cfg), hits, [&] {
        auto op = opt(app, cfg, hits);
        return runBackendStage({op->module, op->safetyReport, op->report},
                               cfg);
    });
}

//---------------------------------------------------------------------
// Companions
//---------------------------------------------------------------------

std::shared_ptr<const sim::DecodedProgram>
StageCache::companionDecode(const std::string &name,
                            const std::string &platform)
{
    bool ran = false;
    auto entry = resolve(companions_, std::make_pair(name, platform), &ran,
                         [&] {
        // The firmware itself is the ordinary backend entry of
        // (app, Baseline, platform) — shared with any matrix that
        // builds the same cell; this entry just aliases it and
        // memoizes the decode every simulating mote shares.
        auto br = build(tinyos::appByName(name),
                        configFor(ConfigId::Baseline, platform));
        return std::make_shared<const sim::DecodedProgram>(
            std::shared_ptr<const backend::MProgram>(br, &br->image));
    });
    (ran ? coBuilds_ : coHits_).fetch_add(1, std::memory_order_relaxed);
    return entry->get();
}

//---------------------------------------------------------------------
// Memory release & stats
//---------------------------------------------------------------------

void
StageCache::releaseIntermediateProducts()
{
    // Entries still referenced by in-flight requesters stay alive via
    // their shared_ptrs; dropping the maps only releases the cache's
    // own pins. builds_ and companions_ are kept — they are the final
    // products drivers keep consuming.
    std::lock_guard<std::mutex> lock(mu_);
    frontends_.clear();
    safeties_.clear();
    opts_.clear();
}

StageCacheStats
StageCache::stats() const
{
    StageCacheStats s;
    for (size_t i = 0; i < counters_.size(); ++i) {
        const StageCounters &n = counters_[i];
        atStage(s, i) = {n.executed.load(), n.reused.load(),
                         n.diskHits.load()};
    }
    return s;
}

} // namespace stos::core
