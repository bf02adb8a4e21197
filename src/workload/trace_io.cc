#include "workload/trace_io.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "util/logging.hh"

namespace nvmcache {

namespace {

constexpr char kMagic[4] = {'N', 'V', 'M', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kAddrMask = (1ull << 62) - 1;

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

void
writeRaw(std::FILE *f, const void *data, std::size_t size,
         const std::string &path)
{
    if (std::fwrite(data, 1, size, f) != size)
        fatal("trace write failed: ", path);
}

} // namespace

FileTrace::FileTrace(std::vector<MemAccess> records)
    : records_(std::move(records))
{
}

bool
FileTrace::next(MemAccess &out)
{
    if (pos_ >= records_.size())
        return false;
    out = records_[pos_++];
    return true;
}

void
FileTrace::reset()
{
    pos_ = 0;
}

std::uint64_t
writeTraceFile(const std::string &path, TraceSource &source)
{
    FileHandle f(std::fopen(path.c_str(), "wb"));
    if (!f)
        fatal("cannot open trace file for writing: ", path);

    writeRaw(f.get(), kMagic, sizeof(kMagic), path);
    writeRaw(f.get(), &kVersion, sizeof(kVersion), path);
    std::uint64_t count = 0;
    // Count placeholder; patched after the records are streamed.
    writeRaw(f.get(), &count, sizeof(count), path);

    source.reset();
    MemAccess a;
    while (source.next(a)) {
        if (a.addr > kAddrMask)
            fatal("trace address exceeds 2^62: ", a.addr);
        const std::uint64_t word =
            a.addr | (std::uint64_t(std::uint8_t(a.kind)) << 62);
        const std::uint16_t gap =
            a.nonMemInstrs > 0xffff ? 0xffff
                                    : std::uint16_t(a.nonMemInstrs);
        writeRaw(f.get(), &word, sizeof(word), path);
        writeRaw(f.get(), &gap, sizeof(gap), path);
        ++count;
    }
    source.reset();

    if (std::fseek(f.get(), sizeof(kMagic) + sizeof(kVersion),
                   SEEK_SET) != 0)
        fatal("trace seek failed: ", path);
    writeRaw(f.get(), &count, sizeof(count), path);
    return count;
}

namespace {

/**
 * fread for the load path: failures throw (corrupt or truncated input
 * files are a caller-recoverable condition, not a programming error).
 */
void
loadRaw(std::FILE *f, void *data, std::size_t size,
        const std::string &path, const char *what)
{
    if (std::fread(data, 1, size, f) != size)
        throw std::runtime_error("truncated NVMT trace file (EOF in " +
                                 std::string(what) + "): " + path);
}

} // namespace

FileTrace
readTraceFile(const std::string &path)
{
    FileHandle f(std::fopen(path.c_str(), "rb"));
    if (!f)
        throw std::runtime_error("cannot open trace file: " + path);

    char magic[4];
    loadRaw(f.get(), magic, sizeof(magic), path, "header");
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error(
            "not an NVMT trace file (bad magic): " + path);
    std::uint32_t version = 0;
    loadRaw(f.get(), &version, sizeof(version), path, "header");
    if (version != kVersion)
        throw std::runtime_error(
            "unsupported NVMT trace version " +
            std::to_string(version) + " (expected " +
            std::to_string(kVersion) + "): " + path);
    std::uint64_t count = 0;
    loadRaw(f.get(), &count, sizeof(count), path, "header");

    // Validate the declared record count against the payload actually
    // present before allocating or reading anything: a corrupt count
    // would otherwise turn into a giant reserve() or a slow walk to a
    // mid-record EOF.
    constexpr std::uint64_t kRecordBytes =
        sizeof(std::uint64_t) + sizeof(std::uint16_t);
    const long payloadStart = std::ftell(f.get());
    if (payloadStart < 0 || std::fseek(f.get(), 0, SEEK_END) != 0)
        throw std::runtime_error("cannot size trace file: " + path);
    const long end = std::ftell(f.get());
    if (end < 0 ||
        std::fseek(f.get(), payloadStart, SEEK_SET) != 0)
        throw std::runtime_error("cannot size trace file: " + path);
    const std::uint64_t payload = std::uint64_t(end - payloadStart);
    // Divide instead of multiplying so an adversarial count near
    // 2^64 cannot overflow the comparison.
    if (payload % kRecordBytes != 0 ||
        payload / kRecordBytes != count)
        throw std::runtime_error(
            "corrupt NVMT trace file: header declares " +
            std::to_string(count) + " records but the file holds " +
            std::to_string(payload) + " payload bytes (" +
            std::to_string(kRecordBytes) + " per record): " + path);

    std::vector<MemAccess> records;
    records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t word = 0;
        std::uint16_t gap = 0;
        loadRaw(f.get(), &word, sizeof(word), path, "record");
        loadRaw(f.get(), &gap, sizeof(gap), path, "record");
        MemAccess a;
        a.addr = word & kAddrMask;
        a.kind = AccessKind(std::uint8_t(word >> 62));
        a.nonMemInstrs = gap;
        records.push_back(a);
    }
    return FileTrace(std::move(records));
}

} // namespace nvmcache
