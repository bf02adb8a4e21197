/**
 * @file
 * The paper's published Table III LLC models.
 *
 * These are the exact NVSim outputs the authors report for the
 * Gainestown LLC, for both simulation strategies:
 *
 *  - FixedCapacity: every technology builds a 2 MB LLC (the
 *    cost-limited assumption);
 *  - FixedArea: every technology fills the SRAM LLC's 6.55 mm^2
 *    area budget with as much capacity as fits (the capacity-limited
 *    assumption the paper argues matches industry practice).
 *
 * The system-level experiments (Figs 1-2, the core sweep, Fig 4) run
 * on these values so that estimator error cannot contaminate the
 * headline reproductions; the from-scratch estimator (estimator.hh)
 * is validated against them separately.
 */

#ifndef NVMCACHE_NVSIM_PUBLISHED_HH
#define NVMCACHE_NVSIM_PUBLISHED_HH

#include <string>
#include <vector>

#include "nvsim/llc_model.hh"

namespace nvmcache {

/** Which Table III block to use. */
enum class CapacityMode
{
    FixedCapacity, ///< all LLCs are 2 MB
    FixedArea      ///< all LLCs fit the 6.55 mm^2 SRAM budget
};

std::string toString(CapacityMode mode);

/**
 * The eleven published LLC models (ten NVMs + the SRAM baseline) for
 * @p mode, in Table III column order. The SRAM baseline is last.
 */
const std::vector<LlcModel> &publishedLlcModels(CapacityMode mode);

/**
 * Look up one published model by citation name ("Oh", ..., "SRAM");
 * nullptr when @p mode has no model of that name.
 */
const LlcModel *findPublishedLlcModel(const std::string &name,
                                      CapacityMode mode);

/** findPublishedLlcModel for a name known to exist (fatal if not). */
const LlcModel &publishedLlcModel(const std::string &name,
                                  CapacityMode mode);

/** The SRAM baseline row (identical in both modes). */
const LlcModel &sramBaselineLlc();

} // namespace nvmcache

#endif // NVMCACHE_NVSIM_PUBLISHED_HH
