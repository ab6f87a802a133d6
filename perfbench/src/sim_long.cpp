/**
 * @file
 * sim_long: the Figure-3(c) cells (Mica2 apps x {Baseline, C1..C7})
 * simulated for a long stretch of mote time, so simulation is nearly
 * all of a pass. Set-up builds the images and the companion decodes;
 * each timed pass is Experiment::simulateBuilds on the threaded core
 * with the serial network scheduler, as the figures run it, on one
 * thread. The check re-simulates every cell on the legacy core (the
 * cycle reference) and requires identical outcomes.
 */
#include "core/experiment.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

using namespace stos;
using namespace stos::core;

namespace {

class SimLong : public Workload {
  public:
    explicit SimLong(const Options &opts)
    {
        std::vector<tinyos::AppInfo> mica2;
        for (const auto &app : tinyos::allApps())
            if (app.platform == "Mica2")
                mica2.push_back(app);
        ExperimentOptions eo;
        eo.jobs = 1;
        eo.seconds = kMoteSeconds;
        eo.mode = sim::ExecMode::Threaded;
        eo.netThreads = 1;
        exp_ = Experiment(eo);
        for (size_t i : seededOrder(mica2.size(), opts.seed))
            exp_.addApp(mica2[i]);
        exp_.addConfig(ConfigId::Baseline);
        exp_.addConfigs(figure3Configs());
    }

    /** Set-up: build every image and decode every companion. */
    void
    setup() override
    {
        cache_ = std::make_unique<StageCache>();
        Experiment build = exp_;
        build.options().jobs = kSetupThreads;
        builds_ = build.buildMatrix(*cache_);
        for (const auto &r : builds_.records)
            for (const auto &name : r.companions)
                cache_->companionDecode(name, r.platform);
    }

    Tally
    pass() override
    {
        last_ = {};
        last_ = exp_.simulateBuilds(builds_, *cache_);
        Tally t;
        for (const auto &r : last_.records)
            t.add(r.ok, r.app + "/" + r.config + ": " + r.error);
        return t;
    }

    Tally
    check() override
    {
        Tally t;
        for (const auto &r : builds_.records)
            t.add(r.ok, "build failed: " + r.app + "/" + r.config);
        Experiment legacy = exp_;
        legacy.options().mode = sim::ExecMode::Legacy;
        legacy.options().jobs = kCheckThreads;
        SimReport ref = legacy.simulateBuilds(builds_, *cache_);
        for (size_t i = 0; i < last_.records.size(); ++i) {
            std::string why;
            t.add(i < ref.records.size() && ref.records[i].ok &&
                      SimDriver::recordsEquivalent(ref.records[i],
                                                   last_.records[i], &why),
                  "legacy core disagrees: " + why);
        }
        return t;
    }

    Quality quality() override { return matrixQuality(builds_); }

    LayerReport
    replica(Tracer *t) override
    {
        // Experiment::simulateBuilds cell by cell: decode the cell's
        // own image, fetch the shared companion decodes, run.
        sim::NetworkOptions net;
        net.mode = sim::ExecMode::Threaded;
        net.lookahead = true;
        net.threads = 1;
        LayerReport rep;
        auto &c = rep.counts;
        double ns[2] = {0, 0}, instrs[2] = {0, 0};
        for (size_t i = 0; i < builds_.records.size(); ++i) {
            const BuildRecord &b = builds_.records[i];
            SimRecord rec = last_.records[i];
            try {
                Tracer::Scope cellSpan(t, "cell");
                std::shared_ptr<const sim::DecodedProgram> image;
                {
                    Tracer::Scope s(t, "sim.decode");
                    image = std::make_shared<const sim::DecodedProgram>(
                        b.result->image);
                }
                std::vector<std::shared_ptr<const sim::DecodedProgram>>
                    companions;
                {
                    Tracer::Scope s(t, "core.companion");
                    for (const auto &name : b.companions)
                        companions.push_back(
                            cache_->companionDecode(name, b.platform));
                }
                int64_t t0 = nowNs();
                {
                    Tracer::Scope s(t, "sim.run");
                    rec.outcome =
                        simulateDecoded(image, companions, kMoteSeconds, net);
                }
                int multi = companions.empty() ? 0 : 1;
                ns[multi] += static_cast<double>(nowNs() - t0);
                instrs[multi] += static_cast<double>(rec.outcome.instructions);
                c["sim.fused_pairs"] += static_cast<double>(image->fusedPairs());
                c["sim.instructions"] +=
                    static_cast<double>(rec.outcome.instructions);
                c["sim.cycles"] += static_cast<double>(rec.outcome.totalCycles);
                rec.ok = true;
            } catch (const std::exception &e) {
                rec.ok = false;
                rec.error = e.what();
            }
            std::string why;
            rep.tally.add(SimDriver::recordsEquivalent(rec, last_.records[i],
                                                       &why),
                          "replica differs: " + why);
        }
        rep.measured["sim.ns_per_instr_single"] =
            instrs[0] ? ns[0] / instrs[0] : 0.0;
        rep.measured["sim.ns_per_instr_multi"] =
            instrs[1] ? ns[1] / instrs[1] : 0.0;
        c["sim.duty_cycle_ratio"] = dutyRatio();
        return rep;
    }

  private:
    /** Geomean over apps of SafeFlidInlineCxprop / Baseline duty. */
    double
    dutyRatio() const
    {
        std::vector<double> ratios;
        const SimRecord *base = nullptr;
        for (const auto &r : last_.records) {
            if (r.config == configName(ConfigId::Baseline))
                base = &r;
            else if (r.config == configName(ConfigId::SafeFlidInlineCxprop) &&
                     base && base->app == r.app && r.ok && base->ok &&
                     base->outcome.dutyCycle > 0)
                ratios.push_back(r.outcome.dutyCycle /
                                 base->outcome.dutyCycle);
        }
        return geomean(ratios);
    }

    static constexpr double kMoteSeconds = 60.0;
    /** One thread: a pooled build scatters the images over several
     *  malloc arenas, and the first pass's peak memory then varies
     *  with which pool workers joined. */
    static constexpr unsigned kSetupThreads = 1;
    static constexpr unsigned kCheckThreads = 4;
    Experiment exp_;
    std::unique_ptr<StageCache> cache_;
    BuildReport builds_;
    SimReport last_;
};

} // namespace

std::unique_ptr<Workload>
makeSimLong(const Options &opts)
{
    return std::make_unique<SimLong>(opts);
}

} // namespace perfbench
