/**
 * @file
 * Shared helpers for the bench harness binaries: every binary
 * regenerates one of the paper's tables or figures and prints it in a
 * comparable layout. "--csv" switches any harness to CSV output.
 */

#ifndef NVMCACHE_BENCH_BENCH_UTIL_HH
#define NVMCACHE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "store/result_store.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/trace_events.hh"

namespace nvmcache::bench {

/**
 * Parse common harness flags (via the shared util/args.hh parser).
 * Unknown flags are left alone — several harnesses parse their own on
 * top of these.
 */
struct HarnessOptions
{
    bool csv = false;
    bool color = true;
    bool quick = false; ///< trims sweeps for smoke runs
    unsigned jobs = 0;  ///< 0 = engine default (NVMCACHE_JOBS / cores)
    std::string statsOut;      ///< "" = no structured report
    StatsFormat statsFormat = StatsFormat::Json;
    std::string traceOut;      ///< "" = tracing off
    std::string storeDir;      ///< "" = persistent store off

    static HarnessOptions
    parse(int argc, char **argv)
    {
        HarnessOptions o;
        try {
            ArgParser parser(argc, argv);
            if (parser.flag("--csv")) {
                o.csv = true;
                o.color = false;
            }
            if (parser.flag("--no-color"))
                o.color = false;
            o.quick = parser.flag("--quick");
            o.jobs = parser.u32("--jobs", 0);
            o.statsOut = parser.str("--stats-out", "");
            o.statsFormat =
                parseStatsFormat(parser.str("--stats-format", "json"));
            o.traceOut = parser.str("--trace-out", "");
            if (!o.traceOut.empty())
                setTracingEnabled(true);
            o.storeDir = parser.str("--store-dir", "");
            if (o.storeDir.empty()) {
                const char *env = std::getenv("NVMCACHE_STORE");
                if (env)
                    o.storeDir = env;
            }
            if (!o.storeDir.empty())
                ResultStore::setGlobal(o.storeDir);
            if (parser.flag("--progress"))
                setProgressEnabled(true);
        } catch (const std::exception &e) {
            fatal(e.what());
        }
        return o;
    }

    /**
     * Write the harness's structured run report if --stats-out was
     * given: the process-wide engine metrics (runner.*, estimator.*,
     * phase.*) plus, optionally, the study's aggregated per-run
     * simulation detail under "study.".
     */
    void
    writeStats(const StatsSnapshot &studyAggregate = {}) const
    {
        writeTrace(); // every harness ends here; piggyback the dump
        if (statsOut.empty())
            return;
        StatsSnapshot report = MetricsRegistry::global().snapshot();
        report.mergeSum(studyAggregate.withPrefix("study"));
        writeStatsFile(statsOut, report, statsFormat);
        std::fprintf(stderr, "stats written to %s\n",
                     statsOut.c_str());
    }

    /** Dump the collected span/counter trace if --trace-out was given. */
    void
    writeTrace() const
    {
        if (traceOut.empty())
            return;
        writeTraceFile(traceOut);
        std::fprintf(stderr, "trace written to %s\n",
                     traceOut.c_str());
    }
};

inline void
banner(const std::string &what)
{
    std::printf("\n==============================================="
                "=================\n");
    std::printf("  %s\n", what.c_str());
    std::printf("================================================"
                "================\n\n");
}

} // namespace nvmcache::bench

#endif // NVMCACHE_BENCH_BENCH_UTIL_HH
