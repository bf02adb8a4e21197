/**
 * @file
 * Regenerates paper Figure 1: speedup, LLC energy, and ED^2P of every
 * NVM-based LLC versus the SRAM baseline under the *fixed-capacity*
 * strategy (all LLCs 2 MB), for the single-threaded (1a) and
 * multi-threaded (1b) workloads. Also prints the simulated
 * architecture (Table IV) as a header.
 */

#include <cstdio>

#include "bench/fig_common.hh"

using namespace nvmcache;
using namespace nvmcache::bench;

namespace {

void
printArchitecture(const SystemConfig &cfg)
{
    std::printf("Simulated architecture (Table IV):\n");
    std::printf("  uProcessor : Xeon x5550 'Gainestown' %.2f GHz OoO, "
                "quad-core, 1 thread/core\n",
                cfg.frequency / 1e9);
    std::printf("  L1I        : private, %llu KB, %u-way, write-back\n",
                (unsigned long long)cfg.core.l1i.capacityBytes / 1024,
                cfg.core.l1i.associativity);
    std::printf("  L1D        : private, %llu KB, %u-way, write-back\n",
                (unsigned long long)cfg.core.l1d.capacityBytes / 1024,
                cfg.core.l1d.associativity);
    std::printf("  L2         : private, %llu KB, %u-way, write-back\n",
                (unsigned long long)cfg.core.l2.capacityBytes / 1024,
                cfg.core.l2.associativity);
    std::printf("  L3 (LLC)   : shared, 2 MB, 64 B blocks, %u-way, "
                "%u banks\n",
                cfg.llc.associativity, cfg.llc.numBanks);
    std::printf("  DRAM       : %u controllers, %.1f GB/s each\n\n",
                cfg.dram.numControllers,
                cfg.dram.bandwidthPerController / 1e9);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = HarnessOptions::parse(argc, argv);
    ExperimentRunner runner;
    runner.setJobs(opts.jobs);

    banner("Figure 1: Gainestown with fixed-capacity LLC");
    printArchitecture(runner.baseConfig());

    FigureStudy study = runFigureStudy(
        FigureConfig{CapacityMode::FixedCapacity, opts.quick ? 0.25 : 1.0},
        runner);
    printFigure(study, "Fig 1", opts);
    opts.writeStats(aggregateSimStats(study));
    return 0;
}
