#include "nvsim/area_solver.hh"

#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/trace_events.hh"

namespace nvmcache {

AreaSolver::AreaSolver(Estimator estimator)
    : AreaSolver(std::move(estimator), Options())
{
}

AreaSolver::AreaSolver(Estimator estimator, Options opts)
    : estimator_(std::move(estimator)), opts_(opts)
{
    if (opts_.minCapacity == 0 ||
        opts_.maxCapacity < opts_.minCapacity)
        fatal("AreaSolver: bad capacity range");
}

AreaSolveResult
AreaSolver::solve(const CellSpec &cell, double areaBudget,
                  CacheOrgConfig org) const
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.counter("estimator.areaSolver.solves").inc();
    Phase phase("estimator.areaSolver.solve", "nvsim",
                "areaSolver/" + cell.name);

    AreaSolveResult best;
    bool found = false;

    for (std::uint64_t cap = opts_.minCapacity;
         cap <= opts_.maxCapacity; cap <<= 1) {
        org.capacityBytes = cap;
        metrics.counter("estimator.areaSolver.candidates").inc();
        LlcModel m = estimator_.estimate(cell, org);
        if (m.area <= areaBudget * (1.0 + opts_.slack)) {
            best.capacityBytes = cap;
            best.model = m;
            found = true;
        }
        // Area grows monotonically with capacity; once over budget we
        // can stop.
        if (m.area > areaBudget * (1.0 + opts_.slack) && found)
            break;
    }

    if (!found) {
        // Even the minimum capacity busts the budget: report the
        // minimum anyway (mirrors the paper keeping Oh_P at 2 MB).
        org.capacityBytes = opts_.minCapacity;
        best.capacityBytes = opts_.minCapacity;
        best.model = estimator_.estimate(cell, org);
        warn("AreaSolver: ", cell.name,
             " cannot fit the area budget even at minimum capacity; "
             "reporting minimum");
    }
    return best;
}

} // namespace nvmcache
