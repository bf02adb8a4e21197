/**
 * @file
 * Bit-exact binary codecs for the result store's SimStats and PRISM
 * feature payloads.
 *
 * Every field of SimStats — including the full hierarchical detail
 * snapshot — and of a WorkloadFeatures row round-trips exactly
 * (doubles travel as raw IEEE-754 bit patterns), so a report assembled
 * from warm-loaded records is byte identical to one assembled from
 * fresh simulations and characterizations.
 */

#ifndef NVMCACHE_STORE_CODEC_HH
#define NVMCACHE_STORE_CODEC_HH

#include <string>

#include "prism/metrics.hh"
#include "sim/system.hh"

namespace nvmcache {

std::string encodeSimStats(const SimStats &stats);

/**
 * Decode a payload produced by encodeSimStats. Throws
 * std::runtime_error on any structural defect (truncation, bad
 * version, trailing bytes) — callers treat that as a store miss.
 */
SimStats decodeSimStats(const std::string &payload);

std::string encodeFeatures(const WorkloadFeatures &features);

/** Decode a payload produced by encodeFeatures; throws as above. */
WorkloadFeatures decodeFeatures(const std::string &payload);

} // namespace nvmcache

#endif // NVMCACHE_STORE_CODEC_HH
