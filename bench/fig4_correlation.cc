/**
 * @file
 * Regenerates paper Figure 4 and the §VI analysis.
 *
 * Part 1 (general-purpose system): the Fig 3 framework over all 16
 * characterized workloads — the paper's finding is that LLC energy
 * and execution time correlate most strongly with total reads/writes.
 *
 * Part 2 (specialized/AI system, Fig 4a-f): the same framework over
 * only the three cpu2017 AI workloads, for Jan_S, Xue_S and
 * Hayakawa_R in fixed-capacity and fixed-area modes — the paper's
 * finding is that entropy and unique/90% footprints dominate while
 * total reads/writes correlate negligibly.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "core/study.hh"

using namespace nvmcache;

namespace {

void
printStudy(const CorrelationStudy &study, const char *what, bool color)
{
    for (const TechCorrelation &tc : study.perTech) {
        std::string title = std::string(what) + ": " + tc.tech + "_" +
                            classSubscript(publishedLlcModel(
                                               tc.tech,
                                               CapacityMode::
                                                   FixedCapacity)
                                               .klass) +
                            ", " + toString(tc.mode);
        if (tc.outcomes == OutcomeKind::Absolute)
            title += "  [outcome columns: absolute LLC energy (J) "
                     "and execution time (s)]";
        std::cout << renderHeatmap(tc.result, title, color) << "\n";

        auto rank = tc.result.rankByEnergy();
        std::printf("  strongest energy predictors: ");
        for (std::size_t i = 0; i < 3 && i < rank.size(); ++i)
            std::printf("%s(|r|=%.2f) ",
                        tc.result.featureNames[rank[i]].c_str(),
                        std::abs(tc.result.energyCorr[rank[i]]));
        std::printf("\n\n");
    }
}

double
meanAbs(const std::vector<double> &v, std::size_t i)
{
    return std::abs(v[i]);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::HarnessOptions::parse(argc, argv);
    ExperimentRunner runner;
    runner.setJobs(opts.jobs);
    CorrelationConfig cfg;
    cfg.techs = {"Jan", "Xue", "Hayakawa"};
    cfg.modes = {CapacityMode::FixedCapacity, CapacityMode::FixedArea};

    bench::banner("SVI part 1: general-purpose system "
                  "(all 16 characterized workloads)");
    cfg.aiOnly = false;
    CorrelationStudy general = runCorrelationStudy(cfg, runner);
    printStudy(general, "general", opts.color);

    // The paper's general-purpose claim: totals dominate.
    {
        double total_r = 0.0, other_r = 0.0;
        std::size_t nt = 0, no = 0;
        for (const TechCorrelation &tc : general.perTech) {
            for (std::size_t f = 0; f < tc.result.featureNames.size();
                 ++f) {
                bool is_total =
                    tc.result.featureNames[f] == "r_total" ||
                    tc.result.featureNames[f] == "w_total";
                (is_total ? total_r : other_r) +=
                    meanAbs(tc.result.energyCorr, f);
                ++(is_total ? nt : no);
            }
        }
        std::printf("mean |r| vs energy: totals %.2f, "
                    "all other features %.2f\n\n",
                    total_r / double(nt), other_r / double(no));
    }

    bench::banner("Fig 4a-f: AI-specialized system "
                  "(deepsjeng, leela, exchange2)");
    cfg.aiOnly = true;
    CorrelationStudy ai = runCorrelationStudy(cfg, runner);
    printStudy(ai, "AI", opts.color);

    // The paper's AI claim: entropy + unique/90% footprints dominate,
    // totals are negligible.
    {
        double total_r = 0.0, feature_r = 0.0;
        std::size_t nt = 0, nf = 0;
        for (const TechCorrelation &tc : ai.perTech) {
            for (std::size_t f = 0; f < tc.result.featureNames.size();
                 ++f) {
                const std::string &name = tc.result.featureNames[f];
                bool is_total =
                    name == "r_total" || name == "w_total";
                bool is_structure =
                    name == "H_wg" || name == "H_wl" ||
                    name == "w_uniq" || name == "90%ft_w";
                if (is_total) {
                    total_r += meanAbs(tc.result.energyCorr, f);
                    ++nt;
                } else if (is_structure) {
                    feature_r += meanAbs(tc.result.energyCorr, f);
                    ++nf;
                }
            }
        }
        std::printf("AI workloads, mean |r| vs energy: write-structure "
                    "features %.2f, totals %.2f\n",
                    feature_r / double(nf), total_r / double(nt));
        std::printf("(paper: ~0.99 for write entropy / footprints, "
                    "negligible for totals)\n");
    }
    // Correlation datasets carry no raw SimStats, so the report is
    // the engine-side view: memo rates, solver work, phase timings.
    opts.writeStats();
    return 0;
}
