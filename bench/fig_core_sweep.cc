/**
 * @file
 * Regenerates the paper's §V-C sensitivity study: multi-core systems
 * (1 -> 32 cores) with fixed-area NVM LLCs, compared against a
 * single-core SRAM baseline doing the same total work. Prints one
 * speedup series and one normalized-energy series per workload.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "core/study.hh"
#include "util/table.hh"

using namespace nvmcache;

int
main(int argc, char **argv)
{
    const auto opts = bench::HarnessOptions::parse(argc, argv);
    bench::banner("SV-C core sweep: fixed-area LLCs, baseline = "
                  "1-core SRAM");

    // The technologies the paper's SV-C discussion revolves around.
    const std::vector<std::string> techs{"Umeki", "Jan",      "Xue",
                                         "Hayakawa", "Zhang", "SRAM"};
    const std::vector<std::string> workloads{"ft", "cg", "mg", "sp",
                                             "lu"};
    std::vector<std::uint32_t> cores{1, 2, 4, 8, 16, 32};
    if (opts.quick)
        cores = {1, 4};

    ExperimentRunner runner;
    runner.setJobs(opts.jobs);
    CoreSweepStudy study =
        runCoreSweep(CoreSweepConfig{workloads, techs, cores}, runner);

    for (const std::string &w : workloads) {
        Table speedup("speedup vs 1-core SRAM: " + w);
        Table energy("LLC energy vs 1-core SRAM: " + w);
        std::vector<std::string> header{"tech"};
        for (auto c : cores)
            header.push_back(std::to_string(c) + "c");
        speedup.setHeader(header);
        energy.setHeader(header);
        speedup.setHeatmap(Table::Heatmap::PerColumn);
        energy.setHeatmap(Table::Heatmap::PerColumn);
        speedup.setColor(opts.color);
        energy.setColor(opts.color);

        for (const std::string &t : techs) {
            speedup.startRow(t);
            energy.startRow(t);
            for (auto c : cores) {
                const CoreSweepPoint &p = study.at(w, t, c);
                speedup.addCell(p.speedupVsBaseline, 2);
                energy.addCell(p.normEnergy, 2);
            }
        }
        if (opts.csv) {
            std::cout << speedup.toCsv() << energy.toCsv();
        } else {
            speedup.print(std::cout);
            std::cout << "\n";
            energy.print(std::cout);
            std::cout << "\n";
        }
    }

    std::printf("Expected shapes (paper SV-C): dense Hayakawa_R/Xue_S "
                "lead performance as cores grow;\nJan_S wins energy "
                "only where its 1 MB capacity does not throttle "
                "runtime;\nUmeki_S trails on energy because its "
                "slower runs accumulate leakage.\n");
    opts.writeStats(aggregateSimStats(study));
    return 0;
}
