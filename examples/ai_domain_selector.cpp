/**
 * @file
 * The paper's §VI scenario: a designer is building a domain-specific
 * architecture for statistical inference (AI) and must pick an LLC
 * memory technology.
 *
 * This example runs the workload-characterization framework (Fig 3)
 * over the cpu2017 AI trio, reports which architecture-agnostic
 * features actually predict energy and speedup (Fig 4), and then acts
 * on the paper's conclusion — if working-set structure dominates and
 * totals do not, pick the density-targeted NVM.
 *
 *   ./build/examples/ai_domain_selector
 */

#include <algorithm>
#include <cstdio>

#include "core/study.hh"
#include "util/units.hh"

using namespace nvmcache;

int
main()
{
    ExperimentRunner runner;
    CorrelationConfig cfg;
    cfg.aiOnly = true;
    cfg.techs = {"Jan", "Xue", "Hayakawa"};
    cfg.modes = {CapacityMode::FixedArea};

    std::printf("characterizing the AI workloads "
                "(deepsjeng, leela, exchange2)...\n");
    CorrelationStudy study = runCorrelationStudy(cfg, runner);

    for (std::size_t i = 0; i < study.workloads.size(); ++i) {
        const WorkloadFeatures &f = study.features[i];
        std::printf("  %-10s H_wg=%5.2f  w_uniq=%8llu  90%%ft_w=%8llu"
                    "  w_total=%9llu\n",
                    study.workloads[i].c_str(),
                    f.writes.globalEntropy,
                    (unsigned long long)f.writes.unique,
                    (unsigned long long)f.writes.footprint90,
                    (unsigned long long)f.writes.total);
    }

    std::printf("\nfeature correlation with LLC energy "
                "(fixed-area):\n");
    for (const TechCorrelation &tc : study.perTech) {
        auto rank = tc.result.rankByEnergy();
        std::printf("  %-9s top predictors: ", tc.tech.c_str());
        for (std::size_t i = 0; i < 3; ++i)
            std::printf("%s(%+.2f) ",
                        tc.result.featureNames[rank[i]].c_str(),
                        tc.result.energyCorr[rank[i]]);
        // Where do the raw totals land?
        double total_r = 0.0;
        for (std::size_t f = 0; f < tc.result.featureNames.size();
             ++f)
            if (tc.result.featureNames[f] == "r_total" ||
                tc.result.featureNames[f] == "w_total")
                total_r = std::max(total_r,
                                   std::abs(tc.result.energyCorr[f]));
        std::printf(" | totals max |r| = %.2f\n", total_r);
    }

    // Act on the paper's conclusion: pick for density.
    std::printf("\npaper conclusion: for AI use cases, energy/speedup "
                "track working-set structure,\nnot access totals -> "
                "pick the density-targeted NVM.\n\n");
    const LlcModel *densest = nullptr;
    for (const std::string &t : cfg.techs) {
        const LlcModel &m =
            publishedLlcModel(t, CapacityMode::FixedArea);
        std::printf("  %-12s %4.0f MB in the area budget\n",
                    m.citationName().c_str(), toMB(m.capacityBytes));
        if (!densest || m.capacityBytes > densest->capacityBytes)
            densest = &m;
    }
    std::printf("\nselected LLC technology: %s (%.0f MB at "
                "6.55 mm^2)\n",
                densest->citationName().c_str(),
                toMB(densest->capacityBytes));
    return 0;
}
