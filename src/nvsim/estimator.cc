#include "nvsim/estimator.hh"

#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "nvsim/array.hh"
#include "nvsim/htree.hh"
#include "nvsim/tech.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/trace_events.hh"

namespace nvmcache {

namespace {

template <typename T>
void
appendBytes(std::string &key, const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const char *p = reinterpret_cast<const char *>(&value);
    key.append(p, sizeof(T));
}

void
appendParam(std::string &key, const CellParam &param)
{
    const bool known = param.known();
    appendBytes(key, known);
    if (known)
        appendBytes(key, param.value.value());
}

/**
 * Exact identity of one estimation: every cell parameter and every
 * organization knob. Calibration is per-Estimator (so is the memo).
 */
std::string
estimateKey(const CellSpec &cell, const CacheOrgConfig &org)
{
    static const CellField kFields[] = {
        CellField::ProcessNode,  CellField::CellSizeF2,
        CellField::CellLevels,   CellField::ReadCurrent,
        CellField::ReadVoltage,  CellField::ReadPower,
        CellField::ReadEnergy,   CellField::ResetCurrent,
        CellField::ResetVoltage, CellField::ResetPulse,
        CellField::ResetEnergy,  CellField::SetCurrent,
        CellField::SetVoltage,   CellField::SetPulse,
        CellField::SetEnergy,
    };

    std::string key;
    key.reserve(256);
    key += cell.name;
    key += '\0';
    appendBytes(key, cell.klass);
    for (CellField f : kFields)
        appendParam(key, cell.field(f));
    appendBytes(key, cell.cellLength.has_value());
    appendBytes(key, cell.cellLength.value_or(0.0));
    appendBytes(key, cell.cellWidth.has_value());
    appendBytes(key, cell.cellWidth.value_or(0.0));

    appendBytes(key, org.capacityBytes);
    appendBytes(key, org.associativity);
    appendBytes(key, org.blockBytes);
    appendBytes(key, org.matRows);
    appendBytes(key, org.matCols);
    appendBytes(key, org.activeMats);
    appendBytes(key, org.tagBitsPerLine);
    return key;
}

} // namespace

/**
 * Per-estimator counters stay exact views of one instance (and its
 * copies); the process-wide mirrors under "estimator.memo.*" feed
 * structured run reports.
 */
struct Estimator::Memo
{
    std::mutex mu;
    std::unordered_map<std::string, LlcModel> models;
    std::atomic<std::uint64_t> computed{0};
    std::atomic<std::uint64_t> hits{0};

    Counter &gComputed =
        MetricsRegistry::global().counter("estimator.memo.computed");
    Counter &gHits =
        MetricsRegistry::global().counter("estimator.memo.hits");
};

Estimator::Estimator(Calibration cal)
    : cal_(cal), memo_(std::make_shared<Memo>())
{
}

std::uint64_t
Estimator::estimatesComputed() const
{
    return memo_->computed.load();
}

std::uint64_t
Estimator::estimateCacheHits() const
{
    return memo_->hits.load();
}

LlcModel
Estimator::estimate(const CellSpec &cell, const CacheOrgConfig &org) const
{
    const std::string key = estimateKey(cell, org);
    {
        std::lock_guard<std::mutex> lock(memo_->mu);
        auto it = memo_->models.find(key);
        if (it != memo_->models.end()) {
            memo_->hits.fetch_add(1, std::memory_order_relaxed);
            memo_->gHits.inc();
            return it->second;
        }
    }
    // Compute outside the lock; concurrent first requests for the
    // same point may both compute, but the result is identical and
    // only one copy is kept.
    LlcModel model;
    {
        Phase phase("estimator.estimate", "nvsim",
                    "estimate/" + traceHashId(key));
        model = estimateUncached(cell, org);
    }
    std::lock_guard<std::mutex> lock(memo_->mu);
    if (memo_->models.try_emplace(key, model).second) {
        memo_->computed.fetch_add(1, std::memory_order_relaxed);
        memo_->gComputed.inc();
    }
    return model;
}

LlcModel
Estimator::estimateUncached(const CellSpec &cell,
                            const CacheOrgConfig &org) const
{
    auto missing = missingFields(cell);
    if (!missing.empty())
        fatal("estimate(", cell.name, "): spec incomplete (",
              missing.size(), " fields); run HeuristicEngine first");

    const TechNode tech = techAt(cell.processNode.get());
    const MatModel mat = buildMat(cell, tech, org, cal_);

    const int bits_per_cell = cell.bitsPerCell();
    const double data_bits = double(org.capacityBytes) * 8.0;
    const double data_cells = data_bits / double(bits_per_cell);
    const double cells_per_mat =
        double(org.matRows) * double(org.matCols);
    const std::uint64_t num_mats = std::uint64_t(
        std::max(1.0, std::ceil(data_cells / cells_per_mat)));

    const HtreeModel htree = buildHtree(num_mats, mat.area, tech);

    // --- tag array (same memory technology as the data array) -----
    const double tag_bits =
        double(org.numLines()) * double(org.tagBitsPerLine);
    const double tag_cells = tag_bits / double(bits_per_cell);
    const std::uint64_t tag_mats = std::uint64_t(
        std::max(1.0, std::ceil(tag_cells / cells_per_mat)));
    const HtreeModel tag_htree = buildHtree(tag_mats, mat.area, tech);

    LlcModel llc;
    llc.name = cell.name;
    llc.klass = cell.klass;
    llc.capacityBytes = org.capacityBytes;

    // --- area -------------------------------------------------------
    llc.area = double(num_mats) * mat.area + htree.wireArea +
               double(tag_mats) * mat.area;

    // --- latency (eqs 4-5) -------------------------------------------
    llc.tagLatency =
        mat.decodeDelay + mat.senseDelay + tag_htree.latency;
    llc.readLatency = 2.0 * htree.latency + mat.readLatency;
    llc.writeLatencySet = htree.latency + mat.writeSetLatency;
    llc.writeLatencyReset = htree.latency + mat.writeResetLatency;

    // --- energy (eqs 6-8) ---------------------------------------------
    // Tag lookup probes all ways' tags; tags use lightweight
    // voltage-mode sensing, so only the array-access overhead (bitline
    // + sense amp), not the full cell read mechanism, is charged.
    const double tag_read_bits =
        double(org.associativity) * double(org.tagBitsPerLine);
    const double e_tag = tag_read_bits * mat.bitlineEnergyPerBit *
                         cal_.peripheralEnergyFactor;

    const double line_bits = double(org.dataBitsPerLine());
    const double e_array_overhead = line_bits *
                                    mat.bitlineEnergyPerBit *
                                    cal_.peripheralEnergyFactor;
    const double e_htree =
        line_bits * htree.energyPerBit; // one data traversal

    const double e_data_read = line_bits * mat.readEnergyPerBit +
                               e_array_overhead + e_htree;
    // A line write flips half the bits on average between SET and
    // RESET states; NVSim conservatively charges the dearer
    // transition for every bit, which we mirror (it also matches the
    // published write energies).
    const double e_write_bit = std::max(mat.writeSetEnergyPerBit,
                                        mat.writeResetEnergyPerBit);
    const double e_data_write =
        line_bits * e_write_bit + e_array_overhead + e_htree;

    llc.eMiss = e_tag;                 // eq (7)
    llc.eHit = e_tag + e_data_read;    // eq (6)
    llc.eWrite = e_tag + e_data_write; // eq (8)

    // --- leakage ------------------------------------------------------
    const double sa_per_mat = double(org.matCols) / 8.0;
    double leak = double(num_mats + tag_mats) *
                  (mat.leakage + sa_per_mat * tech.senseAmpLeak);
    leak += htree.bufferLeakage + tag_htree.bufferLeakage;
    llc.leakage = leak;

    return llc;
}

} // namespace nvmcache
