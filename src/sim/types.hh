/**
 * @file
 * Fundamental types shared by the system simulator and the modules
 * that feed it (workload generation) or observe it (characterization).
 */

#ifndef NVMCACHE_SIM_TYPES_HH
#define NVMCACHE_SIM_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <span>

namespace nvmcache {

/** Kind of one memory reference. */
enum class AccessKind : std::uint8_t
{
    IFetch, ///< instruction fetch
    Load,   ///< data read
    Store   ///< data write
};

/**
 * One memory reference in a per-thread trace.
 *
 * `nonMemInstrs` is the number of non-memory instructions the thread
 * executed since its previous reference; the core model charges them
 * at the base CPI. Total instruction count therefore equals
 * sum(nonMemInstrs) + number of references.
 */
struct MemAccess
{
    std::uint64_t addr = 0;
    AccessKind kind = AccessKind::Load;
    std::uint32_t nonMemInstrs = 0;
};

/**
 * Pull-based per-thread trace source. Generators are deterministic:
 * after reset(), the same sequence is produced again.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next reference; false at end of trace. */
    virtual bool next(MemAccess &out) = 0;

    /** Rewind to the beginning (same deterministic sequence). */
    virtual void reset() = 0;
};

/**
 * Batched per-thread trace source: fills a caller-provided span
 * instead of paying a virtual call per access. Consumers
 * (PrivateTrace::record, the PRISM characterizer) drain local
 * batches, so the virtual dispatch is amortized over a whole batch;
 * producers with a non-virtual fill (TraceCursor) decode straight
 * into the span.
 */
class BatchSource
{
  public:
    virtual ~BatchSource() = default;

    /**
     * Produce up to out.size() references; returns the count
     * produced. 0 means end of trace (sources never return a short
     * non-empty batch followed by more data for a non-empty request).
     */
    virtual std::size_t fill(std::span<MemAccess> out) = 0;
};

} // namespace nvmcache

#endif // NVMCACHE_SIM_TYPES_HH
