#include "nvsim/published.hh"

#include "nvm/model_library.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace nvmcache {

std::string
LlcModel::citationName() const
{
    if (klass == NvmClass::SRAM)
        return name;
    return name + "_" + classSubscript(klass);
}

std::string
toString(CapacityMode mode)
{
    return mode == CapacityMode::FixedCapacity ? "fixed-capacity"
                                               : "fixed-area";
}

namespace {

/**
 * Build one Table III row. All arguments in the table's display units
 * (mm^2, ns, nJ, W, MB); stored canonically.
 */
LlcModel
row(const std::string &name, NvmClass klass, double capacity_mb,
    double area_mm2, double tag_ns, double read_ns, double wset_ns,
    double wreset_ns, double ehit_nj, double emiss_nj, double ewrite_nj,
    double leak_w)
{
    LlcModel m;
    m.name = name;
    m.klass = klass;
    m.capacityBytes = std::uint64_t(capacity_mb * 1024.0 * 1024.0);
    m.area = area_mm2 * 1e-6;
    m.tagLatency = tag_ns * kNano;
    m.readLatency = read_ns * kNano;
    m.writeLatencySet = wset_ns * kNano;
    m.writeLatencyReset = wreset_ns * kNano;
    m.eHit = ehit_nj * kNano;
    m.eMiss = emiss_nj * kNano;
    m.eWrite = ewrite_nj * kNano;
    m.leakage = leak_w;
    return m;
}

std::vector<LlcModel>
buildFixedCapacity()
{
    using C = NvmClass;
    std::vector<LlcModel> v;
    // name      class      MB  area   tag    read   wSet     wReset   eHit   eMiss  eWrite   leak
    v.push_back(row("Oh", C::PCRAM, 2, 6.847, 0.740, 1.907, 181.206,
                    11.206, 0.840, 0.042, 225.413, 0.062));
    v.push_back(row("Chen", C::PCRAM, 2, 4.104, 0.604, 0.607, 80.491,
                    60.491, 0.421, 0.025, 34.108, 0.071));
    v.push_back(row("Kang", C::PCRAM, 2, 4.591, 0.656, 1.497, 301.018,
                    51.018, 0.678, 0.033, 375.073, 0.061));
    v.push_back(row("Close", C::PCRAM, 2, 2.855, 0.582, 0.820, 20.681,
                    20.681, 0.437, 0.023, 51.116, 0.039));
    v.push_back(row("Chung", C::STTRAM, 2, 1.452, 1.240, 1.763, 11.751,
                    11.751, 0.209, 0.082, 1.332, 0.166));
    v.push_back(row("Jan", C::STTRAM, 2, 9.171, 1.423, 3.072, 7.878,
                    7.878, 0.188, 0.077, 2.305, 0.048));
    v.push_back(row("Umeki", C::STTRAM, 2, 4.348, 1.208, 2.715, 11.916,
                    11.916, 0.173, 0.058, 1.644, 0.295));
    v.push_back(row("Xue", C::STTRAM, 2, 1.585, 1.156, 2.878, 4.038,
                    4.038, 0.251, 0.121, 0.597, 0.115));
    v.push_back(row("Hayakawa", C::RRAM, 2, 0.915, 1.396, 1.722, 20.716,
                    20.716, 0.263, 0.078, 0.952, 0.194));
    v.push_back(row("Zhang", C::RRAM, 2, 0.307, 1.722, 2.160, 300.834,
                    300.834, 0.217, 0.086, 0.523, 0.151));
    v.push_back(row("SRAM", C::SRAM, 2, 6.548, 0.439, 1.234, 0.515,
                    0.515, 0.565, 0.011, 0.537, 3.438));
    return v;
}

std::vector<LlcModel>
buildFixedArea()
{
    using C = NvmClass;
    std::vector<LlcModel> v;
    // Area is the 6.55 mm^2 budget for all rows (the table's bottom
    // block reports capacity instead; we carry the budget as area).
    const double kBudget = 6.548;
    // name      class       MB   area    tag    read   wSet     wReset   eHit   eMiss  eWrite   leak
    v.push_back(row("Oh", C::PCRAM, 2, kBudget, 0.740, 1.909, 181.206,
                    11.206, 0.840, 0.042, 225.413, 0.062));
    // Chen's fixed-area set latency is garbled in the source scan;
    // reconstructed as reset + the same 20 ns set/reset gap the
    // fixed-capacity row shows.
    v.push_back(row("Chen", C::PCRAM, 4, kBudget, 0.607, 1.428, 81.170,
                    61.170, 0.496, 0.030, 33.599, 0.100));
    v.push_back(row("Kang", C::PCRAM, 2, kBudget, 0.656, 1.497, 301.018,
                    51.018, 0.678, 0.033, 375.073, 0.061));
    v.push_back(row("Close", C::PCRAM, 4, kBudget, 0.581, 0.789, 20.460,
                    20.460, 1.003, 0.029, 50.912, 0.137));
    v.push_back(row("Chung", C::STTRAM, 8, kBudget, 1.283, 3.262, 13.088,
                    13.088, 0.457, 0.083, 1.656, 0.661));
    v.push_back(row("Jan", C::STTRAM, 1, kBudget, 1.288, 2.074, 6.170,
                    6.170, 0.187, 0.080, 1.780, 0.025));
    v.push_back(row("Umeki", C::STTRAM, 2, kBudget, 1.208, 2.715, 11.916,
                    11.916, 0.173, 0.058, 1.644, 0.295));
    v.push_back(row("Xue", C::STTRAM, 8, kBudget, 1.229, 3.378, 3.928,
                    3.928, 0.683, 0.123, 0.912, 0.828));
    v.push_back(row("Hayakawa", C::RRAM, 32, kBudget, 1.690, 2.536,
                    20.735, 20.735, 0.715, 0.088, 1.458, 3.896));
    v.push_back(row("Zhang", C::RRAM, 128, kBudget, 2.392, 9.537,
                    304.936, 304.936, 0.605, 0.089, 0.921, 9.000));
    v.push_back(row("SRAM", C::SRAM, 2, kBudget, 0.439, 1.234, 0.515,
                    0.515, 0.565, 0.011, 0.537, 3.438));
    return v;
}

} // namespace

const std::vector<LlcModel> &
publishedLlcModels(CapacityMode mode)
{
    static const std::vector<LlcModel> fixed_cap = buildFixedCapacity();
    static const std::vector<LlcModel> fixed_area = buildFixedArea();
    return mode == CapacityMode::FixedCapacity ? fixed_cap : fixed_area;
}

const LlcModel *
findPublishedLlcModel(const std::string &name, CapacityMode mode)
{
    for (const LlcModel &m : publishedLlcModels(mode))
        if (m.name == name)
            return &m;
    return nullptr;
}

const LlcModel &
publishedLlcModel(const std::string &name, CapacityMode mode)
{
    if (const LlcModel *m = findPublishedLlcModel(name, mode))
        return *m;
    fatal("unknown published LLC model '", name, "'");
}

const LlcModel &
sramBaselineLlc()
{
    return publishedLlcModel("SRAM", CapacityMode::FixedCapacity);
}

} // namespace nvmcache
