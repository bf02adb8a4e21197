#include "store/result_store.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/wire.hh"

namespace nvmcache {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'N', 'V', 'C', 'S'};
constexpr std::uint32_t kVersion = 1;
constexpr const char *kRecordSuffix = ".nvcs";
constexpr const char *kGenerationFile = "generation";
constexpr const char *kCountersFile = "counters.v1.json";

std::uint64_t
fnv1a64Raw(const char *data, std::size_t n, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= std::uint64_t(std::uint8_t(data[i]));
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[std::size_t(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return s;
}

std::string
encodeRecord(const std::string &kind, const std::string &key,
             const std::string &payload)
{
    WireWriter w;
    w.putBytes(kMagic, sizeof(kMagic));
    w.putU32(kVersion);
    w.putU64(kind.size());
    w.putU64(key.size());
    w.putU64(payload.size());
    w.putBytes(kind.data(), kind.size());
    w.putBytes(key.data(), key.size());
    w.putBytes(payload.data(), payload.size());
    const std::uint64_t sum =
        fnv1a64Raw(w.buffer().data(), w.buffer().size(),
                   0xcbf29ce484222325ULL);
    w.putU64(sum);
    return w.take();
}

/**
 * Parse one record file's bytes. Returns false on any structural
 * defect (bad magic/version, truncation, checksum mismatch); outputs
 * are filled only on success.
 */
bool
decodeRecord(const std::string &bytes, std::string *kind,
             std::string *key, std::string *payload)
{
    // magic(4) + version(4) + 3 lengths(24) + checksum(8)
    constexpr std::size_t kMinBytes = 40;
    if (bytes.size() < kMinBytes)
        return false;
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return false;
    try {
        WireReader r(bytes);
        for (std::size_t i = 0; i < sizeof(kMagic); ++i)
            r.getU8();
        if (r.getU32() != kVersion)
            return false;
        const std::uint64_t kindLen = r.getU64();
        const std::uint64_t keyLen = r.getU64();
        const std::uint64_t payloadLen = r.getU64();
        // Bounded first, so that the sum below cannot wrap.
        for (const std::uint64_t len : {kindLen, keyLen, payloadLen})
            if (len > bytes.size())
                return false;
        const std::uint64_t bodyBytes = kindLen + keyLen + payloadLen;
        if (bytes.size() != kMinBytes + bodyBytes)
            return false;
        // magic(4) + version(4) + 3 lengths(24)
        const std::size_t bodyOff = 32;
        const std::uint64_t sum = fnv1a64Raw(
            bytes.data(), bytes.size() - 8, 0xcbf29ce484222325ULL);
        std::uint64_t footer = 0;
        for (int i = 7; i >= 0; --i)
            footer = (footer << 8) |
                     std::uint8_t(bytes[bytes.size() - 8 +
                                        std::size_t(i)]);
        if (footer != sum)
            return false;
        if (kind)
            *kind = bytes.substr(bodyOff, std::size_t(kindLen));
        if (key)
            *key = bytes.substr(bodyOff + std::size_t(kindLen),
                                std::size_t(keyLen));
        if (payload)
            *payload = bytes.substr(
                bodyOff + std::size_t(kindLen) + std::size_t(keyLen),
                std::size_t(payloadLen));
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (in.bad())
        return false;
    *out = std::move(data);
    return true;
}

/** Write @p data to @p path via a same-directory temp + rename. */
bool
writeFileAtomic(const std::string &path, const std::string &data,
                std::uint64_t seq)
{
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(seq);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(data.data(), std::streamsize(data.size()));
        out.flush();
        if (!out) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

/** Skip bookkeeping files and in-flight temps during walks. */
bool
isRecordFile(const fs::path &p)
{
    const std::string name = p.filename().string();
    if (name == kGenerationFile || name == kCountersFile)
        return false;
    if (name.find(".tmp.") != std::string::npos)
        return false;
    return name.size() > std::strlen(kRecordSuffix) &&
           name.rfind(kRecordSuffix) ==
               name.size() - std::strlen(kRecordSuffix);
}

std::int64_t
fileAtimeNs(const std::string &path)
{
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return std::int64_t(st.st_atim.tv_sec) * 1000000000 +
           std::int64_t(st.st_atim.tv_nsec);
}

ResultStore::Counters
readCountersFile(const std::string &path)
{
    ResultStore::Counters c;
    std::string text;
    if (!readFile(path, &text))
        return c;
    try {
        const JsonValue v = JsonValue::parse(text);
        c.hits = std::uint64_t(v.numberOr("hits", 0));
        c.misses = std::uint64_t(v.numberOr("misses", 0));
        c.writes = std::uint64_t(v.numberOr("writes", 0));
        c.corrupt = std::uint64_t(v.numberOr("corrupt", 0));
    } catch (const std::exception &) {
        // unreadable counters are cosmetic; start from zero
    }
    return c;
}

struct GlobalStoreState
{
    std::mutex mu;
    std::shared_ptr<ResultStore> store;
    std::atomic<std::uint64_t> epoch{0};
};

GlobalStoreState &
globalState()
{
    static GlobalStoreState state;
    return state;
}

} // namespace

std::uint64_t
fnv1a64(const std::string &data, std::uint64_t seed)
{
    return fnv1a64Raw(data.data(), data.size(), seed);
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create store directory " + dir_ + ": " +
              ec.message());
}

ResultStore::~ResultStore()
{
    flushPersistentCounters();
}

std::string
ResultStore::fanoutName(const std::string &kind,
                        const std::string &key) const
{
    std::string blob;
    blob.reserve(kind.size() + 1 + key.size());
    blob.append(kind);
    blob.push_back('\0');
    blob.append(key);
    return hex16(fnv1a64(blob));
}

std::string
ResultStore::pathFor(const std::string &kind,
                     const std::string &key) const
{
    const std::string name = fanoutName(kind, key);
    return dir_ + "/" + name.substr(0, 2) + "/" + name.substr(2, 2) +
           "/" + name + kRecordSuffix;
}

std::optional<std::string>
ResultStore::load(const std::string &kind, const std::string &key)
{
    const std::string path = pathFor(kind, key);
    std::string bytes;
    if (!readFile(path, &bytes)) {
        countMiss();
        return std::nullopt;
    }
    std::string gotKind, gotKey, payload;
    if (!decodeRecord(bytes, &gotKind, &gotKey, &payload)) {
        // Torn or damaged record: clear it so the rewrite starts
        // from an empty slot instead of racing a broken file.
        std::error_code ec;
        fs::remove(path, ec);
        countCorrupt();
        countMiss();
        return std::nullopt;
    }
    if (gotKind != kind || gotKey != key) {
        // 64-bit hash collision: leave the resident record alone.
        countMiss();
        return std::nullopt;
    }
    // LRU bookkeeping for gc; explicit so it works on noatime mounts.
    struct timespec times[2];
    times[0].tv_sec = 0;
    times[0].tv_nsec = UTIME_NOW;  // atime
    times[1].tv_sec = 0;
    times[1].tv_nsec = UTIME_OMIT; // mtime untouched
    ::utimensat(AT_FDCWD, path.c_str(), times, 0);
    countHit();
    return payload;
}

void
ResultStore::put(const std::string &kind, const std::string &key,
                 const std::string &payload)
{
    const std::string path = pathFor(kind, key);
    ensureParentDir(path);
    const std::string record = encodeRecord(kind, key, payload);
    const std::uint64_t seq =
        tmpSeq_.fetch_add(1, std::memory_order_relaxed);
    if (!writeFileAtomic(path, record, seq)) {
        // A failed persist only costs a future re-simulation; the
        // current run already has its result in hand.
        warn("store: failed to write " + path);
        return;
    }
    countWrite();
}

std::vector<StoreScanEntry>
ResultStore::scan() const
{
    std::vector<StoreScanEntry> out;
    std::error_code ec;
    fs::recursive_directory_iterator it(dir_, ec), end;
    if (ec)
        return out;
    for (; it != end; it.increment(ec)) {
        if (ec)
            break;
        if (!it->is_regular_file(ec) || ec)
            continue;
        const fs::path p = it->path();
        if (!isRecordFile(p))
            continue;
        StoreScanEntry entry;
        entry.path = p.string();
        entry.fileBytes = std::uint64_t(fs::file_size(p, ec));
        if (ec)
            entry.fileBytes = 0;
        entry.atimeNs = fileAtimeNs(entry.path);
        std::string bytes;
        if (readFile(entry.path, &bytes)) {
            std::string kind, key, payload;
            if (decodeRecord(bytes, &kind, &key, &payload)) {
                entry.valid = true;
                entry.kind = kind;
                entry.payloadBytes = payload.size();
            }
        }
        out.push_back(std::move(entry));
    }
    return out;
}

StoreUsage
ResultStore::usage() const
{
    StoreUsage u;
    for (const StoreScanEntry &e : scan()) {
        ++u.entries;
        u.bytes += e.fileBytes;
    }
    return u;
}

StoreVerifyResult
ResultStore::verify(bool repair)
{
    StoreVerifyResult r;
    for (const StoreScanEntry &e : scan()) {
        ++r.checked;
        if (e.valid)
            continue;
        ++r.corrupt;
        r.corruptPaths.push_back(e.path);
        if (repair) {
            std::error_code ec;
            fs::remove(e.path, ec);
        }
    }
    std::sort(r.corruptPaths.begin(), r.corruptPaths.end());
    if (repair && r.corrupt > 0)
        bumpGeneration();
    return r;
}

StoreGcResult
ResultStore::gc(std::uint64_t maxBytes)
{
    StoreGcResult r;
    std::vector<StoreScanEntry> entries = scan();
    // Oldest access first; ties broken by path for determinism.
    std::sort(entries.begin(), entries.end(),
              [](const StoreScanEntry &a, const StoreScanEntry &b) {
                  if (a.atimeNs != b.atimeNs)
                      return a.atimeNs < b.atimeNs;
                  return a.path < b.path;
              });
    std::uint64_t total = 0;
    for (const StoreScanEntry &e : entries)
        total += e.fileBytes;
    for (const StoreScanEntry &e : entries) {
        if (total <= maxBytes)
            break;
        std::error_code ec;
        fs::remove(e.path, ec);
        if (ec)
            continue;
        total -= e.fileBytes;
        ++r.evicted;
        r.bytesEvicted += e.fileBytes;
    }
    r.bytesRemaining = total;
    if (r.evicted > 0)
        bumpGeneration();
    return r;
}

std::uint64_t
ResultStore::generation() const
{
    std::string text;
    if (!readFile(dir_ + "/" + kGenerationFile, &text))
        return 0;
    try {
        return std::stoull(text);
    } catch (const std::exception &) {
        return 0;
    }
}

void
ResultStore::bumpGeneration()
{
    const std::uint64_t next = generation() + 1;
    const std::uint64_t seq =
        tmpSeq_.fetch_add(1, std::memory_order_relaxed);
    if (!writeFileAtomic(dir_ + "/" + kGenerationFile,
                         std::to_string(next), seq))
        warn("store: failed to bump generation in " + dir_);
}

ResultStore::Counters
ResultStore::counters() const
{
    std::lock_guard<std::mutex> lock(countersMu_);
    return counters_;
}

ResultStore::Counters
ResultStore::cumulativeCounters() const
{
    Counters c = readCountersFile(dir_ + "/" + kCountersFile);
    const Counters s = counters();
    c.hits += s.hits;
    c.misses += s.misses;
    c.writes += s.writes;
    c.corrupt += s.corrupt;
    return c;
}

void
ResultStore::flushPersistentCounters()
{
    const Counters s = counters();
    if (s.hits == 0 && s.misses == 0 && s.writes == 0 &&
        s.corrupt == 0)
        return;
    // Read-add-rename; best effort, lost updates under concurrent
    // flushes only skew the cosmetic lifetime totals.
    const std::string path = dir_ + "/" + kCountersFile;
    Counters c = readCountersFile(path);
    c.hits += s.hits;
    c.misses += s.misses;
    c.writes += s.writes;
    c.corrupt += s.corrupt;
    JsonValue v = JsonValue::makeObject();
    v.set("hits", JsonValue::makeNumber(double(c.hits)));
    v.set("misses", JsonValue::makeNumber(double(c.misses)));
    v.set("writes", JsonValue::makeNumber(double(c.writes)));
    v.set("corrupt", JsonValue::makeNumber(double(c.corrupt)));
    const std::uint64_t seq =
        tmpSeq_.fetch_add(1, std::memory_order_relaxed);
    writeFileAtomic(path, v.dump(), seq);
    std::lock_guard<std::mutex> lock(countersMu_);
    counters_ = Counters{};
}

void
ResultStore::countHit()
{
    {
        std::lock_guard<std::mutex> lock(countersMu_);
        ++counters_.hits;
    }
    MetricsRegistry::global().counter("store.hits").inc();
}

void
ResultStore::countMiss()
{
    {
        std::lock_guard<std::mutex> lock(countersMu_);
        ++counters_.misses;
    }
    MetricsRegistry::global().counter("store.misses").inc();
}

void
ResultStore::countWrite()
{
    {
        std::lock_guard<std::mutex> lock(countersMu_);
        ++counters_.writes;
    }
    MetricsRegistry::global().counter("store.writes").inc();
}

void
ResultStore::countCorrupt()
{
    {
        std::lock_guard<std::mutex> lock(countersMu_);
        ++counters_.corrupt;
    }
    MetricsRegistry::global().counter("store.corrupt").inc();
}

void
ResultStore::setGlobal(const std::string &dir)
{
    GlobalStoreState &state = globalState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.epoch.fetch_add(1, std::memory_order_relaxed);
    if (dir.empty()) {
        state.store.reset();
        return;
    }
    state.store = std::make_shared<ResultStore>(dir);
}

std::shared_ptr<ResultStore>
ResultStore::global()
{
    GlobalStoreState &state = globalState();
    std::lock_guard<std::mutex> lock(state.mu);
    return state.store;
}

std::uint64_t
ResultStore::globalEpoch()
{
    return globalState().epoch.load(std::memory_order_relaxed);
}

} // namespace nvmcache
