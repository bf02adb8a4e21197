/**
 * @file
 * Regenerates paper Figure 2: speedup, LLC energy, and ED^2P of every
 * NVM-based LLC versus the SRAM baseline under the *fixed-area*
 * strategy — every technology fills the SRAM baseline's 6.55 mm^2
 * budget, so the dense NVMs field 8-128 MB of capacity (Table III,
 * bottom block).
 */

#include <cstdio>

#include "bench/fig_common.hh"
#include "util/units.hh"

using namespace nvmcache;
using namespace nvmcache::bench;

int
main(int argc, char **argv)
{
    const auto opts = HarnessOptions::parse(argc, argv);
    ExperimentRunner runner;
    runner.setJobs(opts.jobs);

    banner("Figure 2: Gainestown with fixed-area LLC");
    std::printf("Capacities at the 6.55 mm^2 budget:\n  ");
    for (const LlcModel &m :
         publishedLlcModels(CapacityMode::FixedArea))
        std::printf("%s=%.0fMB ", m.citationName().c_str(),
                    toMB(m.capacityBytes));
    std::printf("\n");

    FigureStudy study = runFigureStudy(
        FigureConfig{CapacityMode::FixedArea, opts.quick ? 0.25 : 1.0},
        runner);
    printFigure(study, "Fig 2", opts);
    opts.writeStats(aggregateSimStats(study));
    return 0;
}
