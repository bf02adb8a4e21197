/**
 * @file
 * Persistent result store tests: record codec bit-exactness, trace
 * serializers, durability under corruption/truncation/concurrent
 * writers (everything degrades to re-simulate-and-rewrite, never to a
 * wrong result), warm-restart byte-identity for the study kinds, LRU
 * gc, verify/repair, and the RunnerPool generation-key regression.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "core/experiment.hh"
#include "core/study.hh"
#include "core/study_registry.hh"
#include "nvsim/published.hh"
#include "sim/private_trace.hh"
#include "store/codec.hh"
#include "store/result_store.hh"
#include "util/metrics.hh"
#include "util/wire.hh"
#include "workload/generators.hh"
#include "workload/recorded_trace.hh"
#include "workload/suite.hh"

using namespace nvmcache;

namespace {

namespace fs = std::filesystem;

/** Fresh (wiped) store directory under the test tempdir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "nvmcache_store_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

GeneratorConfig
microConfig(std::uint64_t accesses)
{
    GeneratorConfig cfg;
    cfg.totalAccesses = accesses;
    StreamConfig hot;
    hot.kind = StreamConfig::Kind::Zipf;
    hot.regionBytes = 1 << 20;
    hot.zipfSkew = 0.9;
    hot.weight = 0.8;
    StreamConfig cold;
    cold.kind = StreamConfig::Kind::Uniform;
    cold.regionBytes = 16 << 20;
    cold.weight = 0.2;
    cfg.loads.streams = {hot, cold};
    cfg.stores.streams = {hot, cold};
    return cfg;
}

BenchmarkSpec
microSpec(std::uint64_t accesses = 20'000)
{
    BenchmarkSpec spec;
    spec.name = "microzipf";
    spec.gen = microConfig(accesses);
    spec.defaultThreads = 1;
    return spec;
}

/** Real SimStats (with detail) from one small simulation. */
SimStats
sampleStats()
{
    ExperimentRunner runner;
    runner.setJobs(1);
    return runner.runOne(microSpec(),
                         publishedLlcModel(
                             "Chung", CapacityMode::FixedCapacity));
}

/** Overwrite @p path's byte at @p offset with @p value. */
void
stompByte(const std::string &path, off_t offset, char value)
{
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0) << path;
    ASSERT_EQ(::pwrite(fd, &value, 1, offset), 1);
    ::close(fd);
}

/** Counter/gauge scalar at @p path, 0 when absent. */
double
scalarOf(const StatsSnapshot &snap, const std::string &path)
{
    const auto it = snap.entries.find(path);
    return it == snap.entries.end() ? 0.0 : it->second.scalar;
}

/** A real private-level recording's payload. */
std::string
samplePrivatePayload()
{
    const auto trace = RecordedTrace::record(microConfig(20'000), 1);
    auto cursors = trace->cursors();
    std::vector<BatchSource *> srcs{&cursors[0]};
    return PrivateTrace::record(srcs, CoreParams{})->serialize();
}

/** Little-endian u64 of @p bytes at @p off. */
std::uint64_t
u64At(const std::string &bytes, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | std::uint8_t(bytes[off + std::size_t(i)]);
    return v;
}

/** @p bytes with the little-endian u64 at @p off replaced. */
std::string
withU64At(std::string bytes, std::size_t off, std::uint64_t v)
{
    for (std::size_t i = 0; i < 8; ++i)
        bytes[off + i] = char((v >> (8 * i)) & 0xFF);
    return bytes;
}

/** True when two feature rows agree bit for bit. */
bool
sameBits(const WorkloadFeatures &a, const WorkloadFeatures &b)
{
    const std::vector<double> x = a.featureVector();
    const std::vector<double> y = b.featureVector();
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) ==
               0;
}

/** Engine metric delta over @p fn. */
template <typename Fn>
StatsSnapshot
metricsOver(Fn &&fn)
{
    const StatsSnapshot before = MetricsRegistry::global().snapshot();
    fn();
    return MetricsRegistry::global().snapshot().diff(before);
}

} // namespace

// --- codec ----------------------------------------------------------

TEST(StoreCodec, SimStatsRoundTripIsBitExact)
{
    const SimStats stats = sampleStats();
    const std::string payload = encodeSimStats(stats);
    const SimStats back = decodeSimStats(payload);

    // Doubles travel as raw bit patterns, so a round trip must be
    // exact, not approximate.
    EXPECT_EQ(back.instructions, stats.instructions);
    EXPECT_EQ(back.cycles, stats.cycles);
    EXPECT_EQ(back.seconds, stats.seconds);
    EXPECT_EQ(back.llc.demandMisses, stats.llc.demandMisses);
    EXPECT_EQ(back.llc.writeStallCycles, stats.llc.writeStallCycles);
    EXPECT_EQ(back.dramQueueCycles, stats.dramQueueCycles);
    EXPECT_EQ(back.coreCycles, stats.coreCycles);
    EXPECT_EQ(back.llcLeakageEnergy, stats.llcLeakageEnergy);
    EXPECT_EQ(back.detail, stats.detail);
    // Encoding the decoded value reproduces the payload byte for byte.
    EXPECT_EQ(encodeSimStats(back), payload);
}

TEST(StoreCodec, RejectsDamagedPayloads)
{
    const std::string payload = encodeSimStats(sampleStats());
    EXPECT_THROW(decodeSimStats(""), std::runtime_error);
    EXPECT_THROW(decodeSimStats(payload.substr(0, payload.size() / 2)),
                 std::runtime_error);
    EXPECT_THROW(decodeSimStats(payload + "x"), std::runtime_error);

    // A length of 2^64 - 8 must not wrap the reader's bounds check
    // (it used to pass and rewind the reader to offset 0).
    {
        WireWriter w;
        w.putU64(~std::uint64_t(0) - 7);
        w.putU64(0);
        const std::string wrapping = w.take();
        WireReader r(wrapping);
        EXPECT_THROW(r.getStr(), std::runtime_error);
    }

    // Counts read off a payload are bounded by the bytes left before
    // anything is sized from them: none of these may allocate.
    {
        WireWriter w;
        w.putU32(0xFFFFFFFFu);
        const std::string countOnly = w.take();
        EXPECT_THROW(PrivateTrace::deserialize(countOnly),
                     std::runtime_error);
        EXPECT_THROW(RecordedTrace::deserialize(countOnly),
                     std::runtime_error);
    }
    {
        // Lane 0's first portrait (after the count, the events and
        // the writeback stream) claims 2^40 set-eviction counters.
        const std::string priv = samplePrivatePayload();
        const std::size_t wbLenAt = 4 + 8 + 8 + u64At(priv, 4 + 8);
        const std::size_t portraitAt =
            wbLenAt + 8 + u64At(priv, wbLenAt);
        EXPECT_THROW(
            PrivateTrace::deserialize(withU64At(
                priv, portraitAt + 3 * 8, std::uint64_t(1) << 40)),
            std::runtime_error);
    }
    {
        // Every SimStats field up to the per-core cycles, whose count
        // claims 2^40 cores.
        WireWriter w;
        w.putU32(1);
        for (int i = 0; i < 3 + 12 + 5; ++i)
            w.putU64(0);
        w.putU64(std::uint64_t(1) << 40);
        EXPECT_THROW(decodeSimStats(w.take()), std::runtime_error);
    }

    const std::string feat = encodeFeatures(WorkloadFeatures{});
    EXPECT_THROW(decodeFeatures(""), std::runtime_error);
    EXPECT_THROW(decodeFeatures(feat.substr(0, feat.size() - 1)),
                 std::runtime_error);
    EXPECT_THROW(decodeFeatures(feat + "x"), std::runtime_error);
    std::string badVersion = feat;
    badVersion[0] = 2;
    EXPECT_THROW(decodeFeatures(badVersion), std::runtime_error);
}

TEST(StoreCodec, FeaturesRoundTripIsBitExact)
{
    const auto trace = RecordedTrace::record(microConfig(20'000), 2);
    const WorkloadFeatures f = characterize(*trace, 10, {500, 500});
    ASSERT_GT(f.writes.total, 0u);
    const std::string payload = encodeFeatures(f);
    const WorkloadFeatures back = decodeFeatures(payload);
    EXPECT_TRUE(sameBits(back, f));
    EXPECT_EQ(encodeFeatures(back), payload);
}

TEST(StoreCodec, RecordedTraceRoundTrips)
{
    const auto trace = RecordedTrace::record(microConfig(20'000), 2);
    const std::string payload = trace->serialize();
    const auto back = RecordedTrace::deserialize(payload);
    EXPECT_EQ(back->serialize(), payload);
    EXPECT_EQ(back->packedBytes(), trace->packedBytes());
    EXPECT_THROW(RecordedTrace::deserialize(
                     payload.substr(0, payload.size() - 3)),
                 std::runtime_error);

    const auto expectRejected = [](const std::string &bad,
                                   const std::string &why) {
        try {
            RecordedTrace::deserialize(bad);
            ADD_FAILURE() << "accepted: " << why;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("track 0 access "),
                      std::string::npos)
                << e.what();
        }
    };

    // 4096 accesses whose kind column is complete but whose stream is
    // empty: replay would decode 8192 varints out of nothing.
    WireWriter w;
    w.putU32(1);
    w.putU64(4096);
    w.putStr("");
    w.putStr(std::string(1024, '\0'));
    expectRejected(w.take(), "empty access stream");

    // Wire layout: u32 tracks, then per track u64 count and the
    // u64-length-prefixed stream. Track 0's last varint runs on into
    // the zero padding.
    std::uint64_t streamLen = 0;
    for (int i = 7; i >= 0; --i)
        streamLen = (streamLen << 8) |
                    std::uint8_t(payload[4 + 8 + std::size_t(i)]);
    std::string badStream = payload;
    badStream[4 + 8 + 8 + streamLen - kVarintPad - 1] |= char(0x80);
    expectRejected(badStream, "access varint overrunning the pad");
}

TEST(StoreCodec, PrivateTraceRoundTrips)
{
    const std::string payload = samplePrivatePayload();
    const auto back = PrivateTrace::deserialize(payload);
    EXPECT_EQ(back->serialize(), payload);
    EXPECT_THROW(PrivateTrace::deserialize(
                     payload.substr(0, payload.size() - 3)),
                 std::runtime_error);

    // Wire layout: u32 lanes, then per lane u64 count, u64-length-
    // prefixed event nibbles, u64-length-prefixed writeback stream.
    const std::size_t eventsLenAt = 4 + 8;
    const std::size_t eventsAt = eventsLenAt + 8;
    const std::size_t wbLenAt =
        eventsAt + std::size_t(u64At(payload, eventsLenAt));
    const std::size_t wbEnd =
        wbLenAt + 8 + std::size_t(u64At(payload, wbLenAt));
    ASSERT_GT(u64At(payload, wbLenAt), kVarintPad); // has writebacks
    const auto expectRejected = [](const std::string &bad,
                                   const std::string &why) {
        try {
            PrivateTrace::deserialize(bad);
            ADD_FAILURE() << "accepted: " << why;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("lane 0 event "),
                      std::string::npos)
                << e.what();
        }
    };

    // Outcome 3 with wbCount 3: replay would write ev.wb[2].
    std::string badNibble = payload;
    badNibble[eventsAt] = char(0xFF);
    expectRejected(badNibble, "invalid outcome nibble");

    // The last writeback varint runs on into the zero padding.
    std::string badStream = payload;
    badStream[wbEnd - kVarintPad - 1] |= char(0x80);
    expectRejected(badStream, "writeback varint overrunning the pad");
}

// --- record files ---------------------------------------------------

TEST(ResultStoreFiles, PutLoadMissAndCounters)
{
    ResultStore store(freshDir("putload"));
    EXPECT_FALSE(store.load("run", "absent").has_value());
    store.put("run", "k1", "payload-1");
    store.put("trace", "k1", "payload-2"); // distinct namespace
    const auto run = store.load("run", "k1");
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(*run, "payload-1");
    const auto trace = store.load("trace", "k1");
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(*trace, "payload-2");

    const ResultStore::Counters c = store.counters();
    EXPECT_EQ(c.hits, 2u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.writes, 2u);
    EXPECT_EQ(c.corrupt, 0u);

    const StoreUsage usage = store.usage();
    EXPECT_EQ(usage.entries, 2u);
    EXPECT_GT(usage.bytes, 0u);
}

TEST(ResultStoreFiles, CorruptionDegradesToMissAndRewrite)
{
    ResultStore store(freshDir("corrupt"));

    // Bad magic.
    store.put("run", "k", "the payload");
    const std::string path = store.pathFor("run", "k");
    stompByte(path, 0, 'X');
    EXPECT_FALSE(store.load("run", "k").has_value());
    EXPECT_FALSE(fs::exists(path)); // unlinked, rewrite starts clean

    // Flipped payload byte breaks the checksum footer.
    store.put("run", "k", "the payload");
    stompByte(path, off_t(fs::file_size(path)) - 12, '~');
    EXPECT_FALSE(store.load("run", "k").has_value());

    // Truncation.
    store.put("run", "k", "the payload");
    fs::resize_file(path, fs::file_size(path) / 2);
    EXPECT_FALSE(store.load("run", "k").has_value());

    EXPECT_GE(store.counters().corrupt, 3u);

    // The re-put/re-load cycle works after every corruption.
    store.put("run", "k", "the payload");
    const auto back = store.load("run", "k");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "the payload");
}

TEST(ResultStoreFiles, ConcurrentProcessWritersNeverTearRecords)
{
    const std::string dir = freshDir("race");
    const std::string payload(8192, 'p');

    // Two child processes hammer the same (kind, key) with identical
    // payloads — the daemon's forked-worker pattern. Atomic
    // temp+rename means any interleaving yields a whole record.
    std::vector<pid_t> kids;
    for (int child = 0; child < 2; ++child) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ResultStore w(dir);
            for (int i = 0; i < 200; ++i)
                w.put("run", "contended", payload);
            ::_exit(0);
        }
        kids.push_back(pid);
    }
    ResultStore reader(dir);
    for (int i = 0; i < 200; ++i) {
        const auto got = reader.load("run", "contended");
        if (got.has_value())
            EXPECT_EQ(*got, payload); // whole or absent, never torn
    }
    for (const pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    const auto final = reader.load("run", "contended");
    ASSERT_TRUE(final.has_value());
    EXPECT_EQ(*final, payload);
}

TEST(ResultStoreFiles, VerifyDetectsAndRepairs)
{
    ResultStore store(freshDir("verify"));
    store.put("run", "good", "aaaa");
    store.put("run", "bad", "bbbb");
    const std::string badPath = store.pathFor("run", "bad");
    stompByte(badPath, off_t(fs::file_size(badPath)) - 10, '!');

    const StoreVerifyResult detect = store.verify(/*repair=*/false);
    EXPECT_EQ(detect.checked, 2u);
    EXPECT_EQ(detect.corrupt, 1u);
    ASSERT_EQ(detect.corruptPaths.size(), 1u);
    EXPECT_EQ(detect.corruptPaths[0], badPath);
    EXPECT_TRUE(fs::exists(badPath)); // detection does not mutate

    const std::uint64_t gen = store.generation();
    const StoreVerifyResult repair = store.verify(/*repair=*/true);
    EXPECT_EQ(repair.corrupt, 1u);
    EXPECT_FALSE(fs::exists(badPath));
    EXPECT_EQ(store.generation(), gen + 1); // destructive => bumped

    const StoreVerifyResult clean = store.verify(/*repair=*/true);
    EXPECT_EQ(clean.checked, 1u);
    EXPECT_EQ(clean.corrupt, 0u);
    EXPECT_EQ(store.generation(), gen + 1); // no-op => not bumped
}

TEST(ResultStoreFiles, GcEvictsLeastRecentlyUsedFirst)
{
    ResultStore store(freshDir("gc"));
    const std::string payload(1024, 'x');
    store.put("run", "old", payload);
    store.put("run", "mid", payload);
    store.put("run", "hot", payload);

    // Filesystem atime granularity is too coarse for a test; pin the
    // access order explicitly through the same mechanism load() uses.
    int age = 3;
    for (const char *key : {"old", "mid", "hot"}) {
        const std::string path = store.pathFor("run", key);
        timespec times[2];
        times[0].tv_sec = ::time(nullptr) - age-- * 3600;
        times[0].tv_nsec = 0;
        times[1].tv_nsec = UTIME_OMIT;
        ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
    }

    const std::uint64_t gen = store.generation();
    const std::uint64_t perRecord = store.usage().bytes / 3;
    const StoreGcResult gc = store.gc(2 * perRecord);
    EXPECT_EQ(gc.evicted, 1u);
    EXPECT_LE(gc.bytesRemaining, 2 * perRecord);
    EXPECT_FALSE(store.load("run", "old").has_value()); // oldest went
    EXPECT_TRUE(store.load("run", "mid").has_value());
    EXPECT_TRUE(store.load("run", "hot").has_value());
    EXPECT_EQ(store.generation(), gen + 1);

    // gc to zero clears everything and still leaves a usable store.
    const StoreGcResult wipe = store.gc(0);
    EXPECT_EQ(wipe.evicted, 2u);
    EXPECT_EQ(wipe.bytesRemaining, 0u);
    store.put("run", "fresh", payload);
    EXPECT_TRUE(store.load("run", "fresh").has_value());
}

// --- engine integration ---------------------------------------------

namespace {

/**
 * Cold/warm byte-identity harness: run @p req once against a fresh
 * store (cold: simulates and persists) and once with a brand-new
 * runner against the same store (warm restart: replays from disk).
 * Both results must match the store-less reference byte for byte, and
 * the warm pass must not simulate anything. Returns the store
 * directory, deselected again but left populated.
 */
std::string
expectWarmRestartIdentity(const StudyRequest &req,
                          const std::string &tag)
{
    const std::string reference = runStudyRequest(req).resultJson();

    const std::string dir = freshDir(tag);
    ResultStore::setGlobal(dir);
    const std::string cold = runStudyRequest(req).resultJson();
    EXPECT_EQ(cold, reference);

    // runStudyRequest builds an ephemeral runner per call, so this is
    // a true warm restart: fresh memo, fresh pool, disk only.
    std::string warm;
    const StatsSnapshot delta = metricsOver(
        [&] { warm = runStudyRequest(req).resultJson(); });
    EXPECT_EQ(warm, reference);
    EXPECT_EQ(scalarOf(delta, "runner.memo.simulations"), 0.0);
    EXPECT_GT(scalarOf(delta, "runner.store.hits"), 0.0);
    ResultStore::setGlobal("");
    return dir;
}

/** Key of the one @p kind record in the store at @p dir. */
std::string
onlyKeyOf(const std::string &dir, const std::string &kind)
{
    std::string key;
    for (const StoreScanEntry &e : ResultStore(dir).scan()) {
        if (e.kind != kind)
            continue;
        EXPECT_TRUE(key.empty()) << "more than one " << kind;
        std::ifstream in(e.path, std::ios::binary);
        const std::string bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
        // Header: magic, u32 version, u64 kind/key/payload lengths.
        const std::uint64_t kindLen = u64At(bytes, 8);
        key = bytes.substr(32 + kindLen, u64At(bytes, 16));
    }
    EXPECT_FALSE(key.empty()) << "no " << kind << " record";
    return key;
}

} // namespace

TEST(StoreWarmRestart, CompareStudyReplaysFromDisk)
{
    StudyRequest req;
    req.kind = "compare";
    req.params["workload"] = "lbm";
    req.params["scale"] = "0.02";
    expectWarmRestartIdentity(req, "warm_compare");
}

TEST(StoreWarmRestart, ReliabilityStudyReplaysFromDisk)
{
    StudyRequest req;
    req.kind = "reliability";
    req.params["workload"] = "lbm";
    req.params["scale"] = "0.02";
    req.params["ber-scale"] = "1,8";
    req.params["wear-leveling"] = "1";
    expectWarmRestartIdentity(req, "warm_reliability");
}

TEST(StoreWarmRestart, FigureStudyReplaysFromDisk)
{
    StudyRequest req;
    req.kind = "figure";
    req.params["scale"] = "0.01";
    expectWarmRestartIdentity(req, "warm_figure");
}

TEST(StoreWarmRestart, ServerSuiteReplaysFromDisk)
{
    StudyRequest req;
    req.kind = "server-suite";
    req.params = {{"tenants", "1,2"}, {"readRatios", "0.95"},
                  {"skews", "0.99"},  {"keys", "8K"},
                  {"ops", "60K"}};
    const std::string dir =
        expectWarmRestartIdentity(req, "warm_server_suite");

    // A fresh explicit runner on the same store takes its feature
    // rows and runs from disk: it simulates nothing, characterizes
    // nothing and decodes no trace.
    ResultStore::setGlobal(dir);
    ServerSuiteConfig cfg;
    cfg.tenantCounts = {1, 2};
    cfg.readRatios = {0.95};
    cfg.skews = {0.99};
    cfg.keys = "8K";
    cfg.ops = "60K";
    ExperimentRunner runner;
    (void)runServerSuite(cfg, runner);
    const RunnerStats rs = runner.runnerStats();
    EXPECT_EQ(rs.simulations, 0u);
    EXPECT_EQ(rs.featureBuilds, 0u);
    EXPECT_EQ(rs.traceBytes, 0u);
    EXPECT_GT(rs.diskHits, 0u);
    ResultStore::setGlobal("");
}

TEST(StoreWarmRestart, RunnerPoolKeysOnGenerationAndEpoch)
{
    ResultStore::setGlobal(freshDir("pool_gen"));
    RunnerPool pool;
    (void)pool.acquire();
    EXPECT_EQ(pool.size(), 1u);
    (void)pool.acquire();
    EXPECT_EQ(pool.size(), 1u); // same store view => same runner

    // A destructive store mutation (gc/repair, possibly by a sibling
    // process) must retire pooled handles built before it: their
    // in-memory view no longer agrees with the disk.
    ResultStore::global()->bumpGeneration();
    (void)pool.acquire();
    EXPECT_EQ(pool.size(), 2u);

    // So must swapping the process-wide store itself.
    ResultStore::setGlobal(freshDir("pool_gen2"));
    (void)pool.acquire();
    EXPECT_EQ(pool.size(), 3u);
    ResultStore::setGlobal("");
}

TEST(StoreWarmRestart, DamagedRecordsDegradeToResimulation)
{
    const StudyRequest req = [] {
        StudyRequest r;
        r.kind = "compare";
        r.params["workload"] = "lbm";
        r.params["scale"] = "0.02";
        return r;
    }();
    const std::string reference = runStudyRequest(req).resultJson();

    const std::string dir = freshDir("damaged");
    ResultStore::setGlobal(dir);
    (void)runStudyRequest(req); // populate

    // Stomp every record's checksum region: a warm restart now finds
    // only corrupt entries, must re-simulate, and must rewrite them.
    {
        ResultStore probe(dir);
        for (const StoreScanEntry &e : probe.scan())
            stompByte(e.path, off_t(e.fileBytes) - 4, '?');
    }
    std::string warm;
    const StatsSnapshot delta = metricsOver(
        [&] { warm = runStudyRequest(req).resultJson(); });
    EXPECT_EQ(warm, reference);
    EXPECT_GT(scalarOf(delta, "runner.memo.simulations"), 0.0);
    EXPECT_GT(scalarOf(delta, "store.corrupt"), 0.0);
    EXPECT_GT(scalarOf(delta, "store.writes"), 0.0);

    // The rewrite healed the store: the next restart is warm again.
    const StatsSnapshot healed = metricsOver(
        [&] { warm = runStudyRequest(req).resultJson(); });
    EXPECT_EQ(warm, reference);
    EXPECT_EQ(scalarOf(healed, "runner.memo.simulations"), 0.0);

    // A feat record that passes its checksum but no longer decodes is
    // re-characterized and rewritten, like a damaged trace.
    const BenchmarkSpec &kv = benchmark("kv:keys=8K,ops=60K");
    const WorkloadFeatures want = ExperimentRunner().features(kv);
    const std::string featKey = onlyKeyOf(dir, "feat");
    ResultStore::global()->put("feat", featKey, "damaged");
    ExperimentRunner rebuilt;
    EXPECT_TRUE(sameBits(rebuilt.features(kv), want));
    EXPECT_EQ(rebuilt.runnerStats().featureBuilds, 1u);
    EXPECT_EQ(ResultStore::global()->load("feat", featKey),
              encodeFeatures(want));
    ResultStore::setGlobal("");
}
