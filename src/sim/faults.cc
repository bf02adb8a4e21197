#include "sim/faults.hh"

#include <cmath>

#include "nvm/endurance.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace nvmcache {

LineErrorProbs
lineErrorProbs(double perBitRate, std::uint32_t bits)
{
    if (perBitRate < 0.0 || perBitRate > 1.0)
        fatal("lineErrorProbs: per-bit rate must be in [0,1], got ",
              perBitRate);
    if (bits == 0)
        fatal("lineErrorProbs: need at least one bit");

    LineErrorProbs p;
    if (perBitRate == 0.0)
        return p; // pNone = 1: no errors, severity never consulted
    if (perBitRate == 1.0) {
        p.pNone = 0.0;
        p.pSingleGivenError = bits == 1 ? 1.0 : 0.0;
        return p;
    }
    const double q = 1.0 - perBitRate;
    p.pNone = std::pow(q, double(bits));
    const double p_single =
        double(bits) * perBitRate * std::pow(q, double(bits - 1));
    p.pSingleGivenError = p_single / (1.0 - p.pNone);
    return p;
}

const char *
faultConfigError(const FaultConfig &cfg)
{
    if (!(cfg.berScale >= 0.0))
        return "berScale must be >= 0";
    if (!(cfg.wearLevelingFactor > 0.0 && cfg.wearLevelingFactor <= 1.0))
        return "wear-leveling factor must be (0,1]";
    if (!(cfg.wearScale >= 0.0))
        return "wearScale must be >= 0";
    if (cfg.capacitySampleInterval == 0)
        return "capacitySampleInterval must be >= 1";
    if (cfg.maxWriteRetries > 20)
        return "maxWriteRetries capped at 20 (the 2^k pulse escalation "
               "overflows cycle math beyond)";
    return nullptr;
}

FaultInjector::FaultInjector(const FaultConfig &cfg, NvmClass klass,
                             std::uint64_t numLines,
                             std::uint32_t blockBytes)
    : cfg_(cfg)
{
    if (numLines == 0 || blockBytes == 0)
        fatal("FaultInjector: empty cache geometry");
    if (const char *why = faultConfigError(cfg_))
        fatal("FaultInjector: ", why);

    const std::uint32_t bits = blockBytes * 8;
    const RawBitErrorRates raw = rawBitErrorRates(klass);
    const double p_w = std::min(1.0, raw.writeError * cfg_.berScale);
    const double p_r = std::min(1.0, raw.readError * cfg_.berScale);
    write_ = lineErrorProbs(p_w, bits);
    read_ = lineErrorProbs(p_r, bits);
    writeFaults_ = p_w > 0.0;
    readFaults_ = p_r > 0.0;

    wearPerAttempt_ = cfg_.wearScale * cfg_.wearLevelingFactor;
    wearBudget_ = writeEndurance(klass);

    lineSeed_.reserve(numLines);
    for (std::uint64_t i = 0; i < numLines; ++i)
        lineSeed_.push_back(deriveSeed(cfg_.seed, i));
    drawCount_.assign(numLines, 0);
    wear_.assign(numLines, 0.0);
}

double
FaultInjector::draw(std::uint64_t line)
{
    // Counter-based: hash (line seed, event index) instead of keeping
    // generator state, so a line's k-th draw is the same value no
    // matter what other lines did in between.
    return toUnitInterval(
        deriveSeed(lineSeed_[line], ++drawCount_[line]));
}

FaultInjector::WriteOutcome
FaultInjector::onArrayWrite(std::uint64_t line)
{
    const WriteOutcome out = classifyArrayWrite(line);
    noteRetries(out.retries);
    return out;
}

FaultInjector::WriteOutcome
FaultInjector::classifyArrayWrite(std::uint64_t line)
{
    WriteOutcome out;
    ++st_.injectedWrites;

    if (writeFaults_) {
        // Verify-retry: attempt 0 is the base pulse; each failed
        // verify escalates. Attempts draw independently — a stronger
        // pulse re-writes the whole line.
        while (draw(line) >= write_.pNone) {
            if (out.retries == cfg_.maxWriteRetries) {
                // Pulses exhausted: classify the residual error.
                if (draw(line) < write_.pSingleGivenError) {
                    out.scrubbed = true;
                    ++st_.writeScrubs;
                } else {
                    out.eccRetired = true;
                    ++st_.uncorrectable;
                    ++st_.eccRetirements;
                }
                break;
            }
            ++out.retries;
            ++st_.writeRetries;
        }
    }

    if (wearPerAttempt_ > 0.0 && !out.eccRetired) {
        wear_[line] += double(1 + out.retries) * wearPerAttempt_;
        if (wear_[line] >= wearBudget_) {
            out.wearRetired = true;
            ++st_.wearRetirements;
        }
    }
    return out;
}

FaultInjector::ReadOutcome
FaultInjector::onRead(std::uint64_t line)
{
    ReadOutcome out;
    if (!readFaults_)
        return out;
    if (draw(line) < read_.pNone)
        return out;
    if (draw(line) < read_.pSingleGivenError) {
        out.scrubbed = true;
        ++st_.readScrubs;
    } else {
        out.retired = true;
        ++st_.uncorrectable;
    }
    return out;
}

void
FaultInjector::exportStats(MetricsRegistry &reg,
                           const std::string &prefix,
                           std::uint64_t liveLines,
                           std::uint64_t totalLines) const
{
    reg.counter(prefix + ".injectedWrites").inc(st_.injectedWrites);
    reg.counter(prefix + ".writeRetries").inc(st_.writeRetries);
    reg.counter(prefix + ".retryCycles").inc(st_.retryCycles);
    reg.counter(prefix + ".writeScrubs").inc(st_.writeScrubs);
    reg.counter(prefix + ".readScrubs").inc(st_.readScrubs);
    reg.counter(prefix + ".scrubCycles").inc(st_.scrubCycles);
    reg.counter(prefix + ".uncorrectable").inc(st_.uncorrectable);
    reg.counter(prefix + ".eccRetirements").inc(st_.eccRetirements);
    reg.counter(prefix + ".wearRetirements").inc(st_.wearRetirements);
    reg.counter(prefix + ".retiredLines")
        .inc(totalLines - liveLines);
    reg.counter(prefix + ".noWayBypasses").inc(st_.noWayBypasses);
    reg.gauge(prefix + ".effectiveLines").set(double(liveLines));
    reg.gauge(prefix + ".effectiveCapacityFraction")
        .set(totalLines == 0 ? 0.0
                             : double(liveLines) / double(totalLines));
    reg.distribution(prefix + ".retriesPerWrite")
        .merge(retriesDist_.snapshot());
    reg.distribution(prefix + ".effectiveLinesOverTime")
        .merge(capacityDist_.snapshot());
}

} // namespace nvmcache
