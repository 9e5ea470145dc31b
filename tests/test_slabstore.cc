/**
 * @file
 * Fault-injection and multi-process tests of the durable DSE slab
 * store. Every truncation point and every single-bit flip of a saved
 * store must load cleanly — no crash, no unbounded allocation, no
 * silently accepted torn cell — with intact records salvaged
 * record-by-record. Concurrent forked writers against one store must
 * all survive and merge, and unrecognizable files must be
 * quarantined (renamed *.corrupt) with a classified reason.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "testdir.hh"

// Must run before any Campaign::get() in this process: the campaign
// tests below bind the singleton to a private store with a reduced
// budget.
namespace
{
const std::string kCampCache = cisa::testPath("slabstore_camp.bin");
struct EnvSetup
{
    EnvSetup()
    {
        setenv("CISA_SIM_UOPS", "1500", 1);
        setenv("CISA_SIM_WARMUP", "400", 1);
        setenv("CISA_DSE_CACHE", kCampCache.c_str(), 1);
        setenv("CISA_SEARCH_RESTARTS", "1", 1);
    }
} env_setup;
} // namespace

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "explore/campaign.hh"
#include "explore/slabstore.hh"

namespace cisa
{
namespace
{

constexpr uint64_t kKey = 0x5EEDF00Dabcdef01ULL;
constexpr uint32_t kPhases = 7;
constexpr uint32_t kVals = 12;
constexpr int kSlabCount = 8;
constexpr size_t kRecBytes = SlabStore::kHeaderBytes + 4 * kVals +
                             SlabStore::kChecksumBytes; // 84

std::string
tmpPath(const std::string &name)
{
    return testPath("slabstore_" + name);
}

SlabStore
mkStore(const std::string &path, bool readonly = false,
        uint64_t key = kKey)
{
    return SlabStore(path, key, kPhases, kVals, kSlabCount, readonly);
}

std::vector<float>
valsFor(int slab, int iter)
{
    std::vector<float> v(kVals);
    for (uint32_t i = 0; i < kVals; i++)
        v[i] = float(slab * 1000 + iter * 37 + int(i)) * 0.5f;
    return v;
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &b)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(b.data()),
            std::streamsize(b.size()));
}

size_t
fileSize(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 ? size_t(st.st_size) : 0;
}

bool
fileExists(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

void
cleanup(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
}

/** A store image with one record per slab 0..3 (iteration 0). */
std::vector<uint8_t>
fourSlabImage()
{
    std::vector<uint8_t> img;
    for (int s = 0; s < 4; s++) {
        std::vector<float> v = valsFor(s, 0);
        std::vector<uint8_t> rec = SlabStore::encodeRecord(
            kKey, kPhases, uint32_t(s), v.data(), v.size());
        img.insert(img.end(), rec.begin(), rec.end());
    }
    return img;
}

struct QuietLogs
{
    QuietLogs() { setLogLevel(LogLevel::Error); }
    ~QuietLogs() { setLogLevel(LogLevel::Info); }
};

TEST(SlabStore, RoundTripLastWins)
{
    QuietLogs q;
    std::string path = tmpPath("roundtrip");
    cleanup(path);
    {
        SlabStore w = mkStore(path);
        for (int s = 0; s < 4; s++) {
            std::vector<float> v = valsFor(s, 0);
            ASSERT_TRUE(w.append(s, v.data(), v.size()));
        }
        std::vector<float> v1 = valsFor(1, 1);
        ASSERT_TRUE(w.append(1, v1.data(), v1.size())); // supersedes
        EXPECT_EQ(w.health().appended, 5u);
        EXPECT_EQ(w.health().appendedBytes, 5 * kRecBytes);
    }
    SlabStore r = mkStore(path);
    std::vector<SlabRec> recs = r.poll();
    ASSERT_EQ(recs.size(), 4u);
    for (const SlabRec &rec : recs) {
        int iter = rec.slab == 1 ? 1 : 0;
        EXPECT_EQ(rec.vals, valsFor(rec.slab, iter)) << rec.slab;
    }
    EXPECT_EQ(r.health().loaded, 5u);
    EXPECT_EQ(r.health().salvaged, 0u);
    EXPECT_EQ(r.health().fileBytes, 5 * kRecBytes);
    // Unchanged file: the next poll is a cheap no-op.
    EXPECT_TRUE(r.poll().empty());
    EXPECT_EQ(r.health().loaded, 5u);
    cleanup(path);
}

TEST(SlabStore, EveryTruncationSalvagesCleanly)
{
    QuietLogs q;
    std::string path = tmpPath("trunc");
    std::vector<uint8_t> img = fourSlabImage();
    ASSERT_EQ(img.size(), 4 * kRecBytes);
    for (size_t cut = 0; cut <= img.size(); cut++) {
        cleanup(path);
        writeFile(path,
                  std::vector<uint8_t>(img.begin(),
                                       img.begin() + long(cut)));
        SlabStore r = mkStore(path);
        std::vector<SlabRec> recs = r.poll();
        size_t complete = cut / kRecBytes;
        ASSERT_EQ(recs.size(), complete) << "cut at " << cut;
        for (const SlabRec &rec : recs)
            EXPECT_EQ(rec.vals, valsFor(rec.slab, 0)) << cut;
        bool torn = cut % kRecBytes != 0;
        EXPECT_EQ(r.health().salvaged, torn ? 1u : 0u) << cut;
        if (cut > 0 && complete == 0) {
            // Nothing salvageable: the file is moved aside, never
            // silently truncated by the next writer.
            EXPECT_EQ(r.health().quarantined, 1u) << cut;
            EXPECT_FALSE(fileExists(path)) << cut;
            EXPECT_TRUE(fileExists(path + ".corrupt")) << cut;
        } else {
            EXPECT_EQ(r.health().quarantined, 0u) << cut;
        }
    }
    cleanup(path);
}

TEST(SlabStore, EverySingleBitFlipIsDetected)
{
    QuietLogs q;
    std::string path = tmpPath("flip");
    std::vector<uint8_t> img = fourSlabImage();
    for (size_t off = 0; off < img.size(); off++) {
        for (int bit = 0; bit < 8; bit++) {
            cleanup(path);
            std::vector<uint8_t> bad = img;
            bad[off] = uint8_t(bad[off] ^ (1u << bit));
            writeFile(path, bad);
            SlabStore r = mkStore(path);
            std::vector<SlabRec> recs = r.poll();
            // Exactly the one damaged record is dropped; the rest
            // must be byte-identical to what was written.
            ASSERT_EQ(recs.size(), 3u)
                << "offset " << off << " bit " << bit;
            for (const SlabRec &rec : recs) {
                ASSERT_GE(rec.slab, 0);
                ASSERT_LT(rec.slab, 4);
                EXPECT_EQ(rec.vals, valsFor(rec.slab, 0))
                    << "offset " << off << " bit " << bit;
            }
            EXPECT_GE(r.health().salvaged, 1u);
            EXPECT_FALSE(fileExists(path + ".corrupt"));
        }
    }
    cleanup(path);
}

TEST(SlabStore, HugeClaimedLengthRejectedWithoutAllocation)
{
    QuietLogs q;
    std::string path = tmpPath("huge");
    cleanup(path);
    std::vector<float> v = valsFor(0, 0);
    std::vector<uint8_t> rec = SlabStore::encodeRecord(
        kKey, kPhases, 0, v.data(), v.size());
    // Claim 2^32-1 values in an 84-byte record: the parser must
    // clamp to the bytes present, not allocate 16 GiB.
    uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(rec.data() + 24, &huge, sizeof(huge));
    writeFile(path, rec);
    SlabStore r = mkStore(path);
    EXPECT_TRUE(r.poll().empty());
    EXPECT_GE(r.health().salvaged, 1u);
    cleanup(path);
}

TEST(SlabStore, QuarantineReasonClassification)
{
    QuietLogs q;
    std::string path = tmpPath("reason");
    std::vector<float> v = valsFor(0, 0);

    // Garbage: not even a record magic.
    cleanup(path);
    writeFile(path, std::vector<uint8_t>(64, 0x42));
    {
        SlabStore r = mkStore(path);
        EXPECT_TRUE(r.poll().empty());
        EXPECT_EQ(r.health().quarantined, 1u);
        EXPECT_NE(r.lastQuarantineReason().find("magic"),
                  std::string::npos);
        EXPECT_TRUE(fileExists(path + ".corrupt"));
    }

    // Legacy whole-table cache header (pre-slab-store format).
    cleanup(path);
    {
        std::vector<uint8_t> legacy(32, 0);
        uint32_t magic = 0xC15AD5E1u;
        std::memcpy(legacy.data(), &magic, sizeof(magic));
        writeFile(path, legacy);
        SlabStore r = mkStore(path);
        EXPECT_TRUE(r.poll().empty());
        EXPECT_NE(r.lastQuarantineReason().find("legacy"),
                  std::string::npos);
    }

    // Intact frame, wrong record version.
    cleanup(path);
    writeFile(path,
              SlabStore::encodeRecord(kKey, kPhases, 0, v.data(),
                                      v.size(),
                                      SlabStore::kRecVersion + 1));
    {
        SlabStore r = mkStore(path);
        EXPECT_TRUE(r.poll().empty());
        EXPECT_NE(r.lastQuarantineReason().find("version"),
                  std::string::npos);
    }

    // Intact frame, foreign simulation budget.
    cleanup(path);
    writeFile(path, SlabStore::encodeRecord(kKey + 1, kPhases, 0,
                                            v.data(), v.size()));
    {
        SlabStore r = mkStore(path);
        EXPECT_TRUE(r.poll().empty());
        EXPECT_NE(r.lastQuarantineReason().find("budget"),
                  std::string::npos);
    }

    // Valid magic but damaged payload: checksum mismatch.
    cleanup(path);
    {
        std::vector<uint8_t> rec = SlabStore::encodeRecord(
            kKey, kPhases, 0, v.data(), v.size());
        rec[SlabStore::kHeaderBytes] ^= 0xFF;
        writeFile(path, rec);
        SlabStore r = mkStore(path);
        EXPECT_TRUE(r.poll().empty());
        EXPECT_NE(r.lastQuarantineReason().find("checksum"),
                  std::string::npos);
    }
    cleanup(path);
}

TEST(SlabStore, MixedBudgetsShareOneFile)
{
    QuietLogs q;
    std::string path = tmpPath("mixed");
    cleanup(path);
    std::vector<float> ours = valsFor(2, 0);
    std::vector<float> theirs = valsFor(3, 5);
    {
        SlabStore a = mkStore(path);
        ASSERT_TRUE(a.append(2, ours.data(), ours.size()));
        SlabStore b = mkStore(path, false, kKey + 7);
        ASSERT_TRUE(b.append(3, theirs.data(), theirs.size()));
    }
    // Each budget sees exactly its own record; the other's is
    // counted stale but stays on disk — no quarantine.
    {
        SlabStore r = mkStore(path);
        std::vector<SlabRec> recs = r.poll();
        ASSERT_EQ(recs.size(), 1u);
        EXPECT_EQ(recs[0].slab, 2);
        EXPECT_EQ(recs[0].vals, ours);
        EXPECT_EQ(r.health().stale, 1u);
        EXPECT_EQ(r.health().quarantined, 0u);
    }
    {
        SlabStore r = mkStore(path, false, kKey + 7);
        std::vector<SlabRec> recs = r.poll();
        ASSERT_EQ(recs.size(), 1u);
        EXPECT_EQ(recs[0].slab, 3);
        EXPECT_EQ(recs[0].vals, theirs);
    }
    EXPECT_EQ(fileSize(path), 2 * kRecBytes);
    cleanup(path);
}

TEST(SlabStore, ReadonlyNeverTouchesDisk)
{
    QuietLogs q;
    std::string path = tmpPath("readonly");
    cleanup(path);
    writeFile(path, std::vector<uint8_t>(64, 0x42)); // garbage
    SlabStore r = mkStore(path, true);
    EXPECT_TRUE(r.poll().empty());
    // Rejected, but read-only: the file is left exactly in place.
    EXPECT_EQ(r.health().quarantined, 0u);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".corrupt"));
    // Appends are accepted as no-ops.
    std::vector<float> v = valsFor(0, 0);
    EXPECT_TRUE(r.append(0, v.data(), v.size()));
    EXPECT_EQ(r.health().appended, 0u);
    EXPECT_EQ(fileSize(path), 64u);
    cleanup(path);
}

TEST(SlabStore, CompactionReclaimsSupersededRecords)
{
    QuietLogs q;
    std::string path = tmpPath("compact");
    cleanup(path);
    {
        SlabStore w = mkStore(path);
        for (int i = 0; i < 100; i++) {
            std::vector<float> v = valsFor(0, i);
            ASSERT_TRUE(w.append(0, v.data(), v.size()));
        }
    }
    ASSERT_EQ(fileSize(path), 100 * kRecBytes);
    SlabStore r = mkStore(path);
    std::vector<SlabRec> recs = r.poll();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].vals, valsFor(0, 99));
    // 99 dead records dominate the file: compaction rewrote it via
    // temp + fsync + atomic rename down to the one live record.
    EXPECT_EQ(fileSize(path), kRecBytes);
    // The compacted store still parses to the same contents.
    SlabStore r2 = mkStore(path);
    std::vector<SlabRec> recs2 = r2.poll();
    ASSERT_EQ(recs2.size(), 1u);
    EXPECT_EQ(recs2[0].vals, valsFor(0, 99));
    cleanup(path);
}

TEST(SlabStore, ConcurrentForkedWritersAllSurvive)
{
    QuietLogs q;
    std::string path = tmpPath("fork");
    cleanup(path);
    constexpr int kProcs = 4;
    constexpr int kIters = 25;
    std::vector<pid_t> kids;
    for (int c = 0; c < kProcs; c++) {
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: no gtest, no exit handlers — signal via code.
            SlabStore s = mkStore(path);
            bool ok = true;
            for (int i = 0; i < kIters; i++) {
                std::vector<float> v = valsFor(c, i);
                ok = ok && s.append(c, v.data(), v.size());
            }
            _exit(ok ? 0 : 1);
        }
        kids.push_back(pid);
    }
    for (pid_t pid : kids) {
        int st = 0;
        ASSERT_EQ(waitpid(pid, &st, 0), pid);
        EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    }
    // Nothing torn, nothing lost: every writer's final record is
    // present and byte-identical to what it appended.
    SlabStore r = mkStore(path);
    std::vector<SlabRec> recs = r.poll();
    ASSERT_EQ(recs.size(), size_t(kProcs));
    for (const SlabRec &rec : recs)
        EXPECT_EQ(rec.vals, valsFor(rec.slab, kIters - 1));
    EXPECT_EQ(r.health().salvaged, 0u);
    EXPECT_EQ(r.health().quarantined, 0u);
    // The merged file holds whole records only (compaction may have
    // dropped superseded ones, never torn bytes).
    EXPECT_EQ(fileSize(path) % kRecBytes, 0u);
    cleanup(path);
}

TEST(SlabStore, AppendAfterTornTailKeepsBothSides)
{
    QuietLogs q;
    std::string path = tmpPath("tornappend");
    cleanup(path);
    std::vector<uint8_t> img = fourSlabImage();
    // Simulate a crash mid-append: half a record at the tail.
    img.resize(3 * kRecBytes + kRecBytes / 2);
    writeFile(path, img);
    SlabStore w = mkStore(path);
    std::vector<float> v = valsFor(5, 9);
    ASSERT_TRUE(w.append(5, v.data(), v.size()));
    SlabStore r = mkStore(path);
    std::vector<SlabRec> recs = r.poll();
    ASSERT_EQ(recs.size(), 4u); // slabs 0,1,2 + the new 5
    for (const SlabRec &rec : recs) {
        EXPECT_EQ(rec.vals,
                  rec.slab == 5 ? v : valsFor(rec.slab, 0));
    }
    EXPECT_GE(r.health().salvaged, 1u);
    cleanup(path);
}

// ---------------------------------------------------------------
// Injected disk faults: the same salvage/quarantine guarantees, but
// with the tearing produced by the live fault plane
// (src/common/faultinject.hh) inside the real write path instead of
// by hand-truncated files.
// ---------------------------------------------------------------

/** Disarms the fault plane however the test exits. */
struct FaultGuard
{
    ~FaultGuard() { faultConfigure(""); }
};

TEST(SlabStoreFaults, InjectedShortWriteTearsAppendAndIsSalvaged)
{
    QuietLogs q;
    FaultGuard fg;
    std::string path = tmpPath("fault_shortwrite");
    cleanup(path);
    {
        SlabStore w = mkStore(path);
        for (int s = 0; s < 2; s++) {
            std::vector<float> v = valsFor(s, 0);
            ASSERT_TRUE(w.append(s, v.data(), v.size()));
        }
        // The next disk write tears mid-record and fails ENOSPC.
        ASSERT_TRUE(faultConfigure("disk.write:nth=1"));
        std::vector<float> v2 = valsFor(2, 0);
        errno = 0;
        EXPECT_FALSE(w.append(2, v2.data(), v2.size()));
        EXPECT_EQ(errno, ENOSPC);
        ASSERT_TRUE(faultConfigure(""));
    }
    // Half a record really is on disk — and must never be served.
    EXPECT_EQ(fileSize(path), 2 * kRecBytes + kRecBytes / 2);
    SlabStore r = mkStore(path);
    std::vector<SlabRec> recs = r.poll();
    ASSERT_EQ(recs.size(), 2u);
    for (const SlabRec &rec : recs) {
        EXPECT_LT(rec.slab, 2);
        EXPECT_EQ(rec.vals, valsFor(rec.slab, 0));
    }
    EXPECT_GE(r.health().salvaged, 1u);
    EXPECT_EQ(r.health().quarantined, 0u);
    // The next append must supersede the torn tail cleanly.
    std::vector<float> v2 = valsFor(2, 1);
    ASSERT_TRUE(r.append(2, v2.data(), v2.size()));
    SlabStore r2 = mkStore(path);
    recs = r2.poll();
    ASSERT_EQ(recs.size(), 3u);
    cleanup(path);
}

TEST(SlabStoreFaults, CleanEnospcWritesNothingAndFailsLoudly)
{
    QuietLogs q;
    FaultGuard fg;
    std::string path = tmpPath("fault_enospc");
    cleanup(path);
    SlabStore w = mkStore(path);
    std::vector<float> v = valsFor(0, 0);
    ASSERT_TRUE(w.append(0, v.data(), v.size()));
    // short=0: the fired write fails before writing any byte.
    ASSERT_TRUE(faultConfigure("disk.write:nth=1,short=0"));
    std::vector<float> v1 = valsFor(1, 0);
    EXPECT_FALSE(w.append(1, v1.data(), v1.size()));
    ASSERT_TRUE(faultConfigure(""));
    EXPECT_EQ(fileSize(path), kRecBytes); // untouched
    SlabStore r = mkStore(path);
    std::vector<SlabRec> recs = r.poll();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].vals, valsFor(0, 0));
    EXPECT_EQ(r.health().salvaged, 0u);
    cleanup(path);
}

TEST(SlabStoreFaults, FailedFsyncIsReportedButBytesSurvive)
{
    QuietLogs q;
    FaultGuard fg;
    std::string path = tmpPath("fault_fsync");
    cleanup(path);
    SlabStore w = mkStore(path);
    ASSERT_TRUE(faultConfigure("disk.fsync:nth=1"));
    std::vector<float> v = valsFor(0, 0);
    // Durability can't be promised, so append must report failure —
    // but the record bytes were fully written and a reload serves
    // them (the record is intact, just not guaranteed durable).
    EXPECT_FALSE(w.append(0, v.data(), v.size()));
    ASSERT_TRUE(faultConfigure(""));
    EXPECT_EQ(fileSize(path), size_t(kRecBytes));
    SlabStore r = mkStore(path);
    std::vector<SlabRec> recs = r.poll();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].vals, valsFor(0, 0));
    cleanup(path);
}

TEST(SlabStoreFaults, FailedRenameMidCompactionKeepsOriginal)
{
    QuietLogs q;
    FaultGuard fg;
    std::string path = tmpPath("fault_rename");
    cleanup(path);
    // Enough superseded records that poll() wants to compact
    // (waste >= 4096 and >= half the file).
    {
        SlabStore w = mkStore(path);
        for (int iter = 0; iter < 100; iter++) {
            std::vector<float> v = valsFor(0, iter);
            ASSERT_TRUE(w.append(0, v.data(), v.size()));
        }
    }
    size_t fullSize = fileSize(path);
    ASSERT_EQ(fullSize, 100 * kRecBytes);
    {
        // Compaction writes the tmp file, then its rename fails:
        // the original must survive byte-for-byte.
        ASSERT_TRUE(faultConfigure("disk.rename:nth=1"));
        SlabStore r = mkStore(path);
        std::vector<SlabRec> recs = r.poll();
        ASSERT_TRUE(faultConfigure(""));
        ASSERT_EQ(recs.size(), 1u);
        EXPECT_EQ(recs[0].vals, valsFor(0, 99));
        EXPECT_EQ(fileSize(path), fullSize);
        // No tmp litter either.
        EXPECT_FALSE(fileExists(path + ".tmp." +
                                std::to_string(::getpid())));
    }
    // With the fault gone the same store compacts down to one
    // record, still serving the same (latest) values.
    SlabStore r2 = mkStore(path);
    std::vector<SlabRec> recs = r2.poll();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].vals, valsFor(0, 99));
    EXPECT_EQ(fileSize(path), size_t(kRecBytes));
    cleanup(path);
}

TEST(SlabStoreFaults, TornCompactionTmpWriteKeepsOriginal)
{
    QuietLogs q;
    FaultGuard fg;
    std::string path = tmpPath("fault_compactwrite");
    cleanup(path);
    {
        SlabStore w = mkStore(path);
        for (int iter = 0; iter < 100; iter++) {
            std::vector<float> v = valsFor(0, iter);
            ASSERT_TRUE(w.append(0, v.data(), v.size()));
        }
    }
    size_t fullSize = fileSize(path);
    {
        // The compaction's tmp-file write tears: compact must
        // abandon the tmp and leave the original alone.
        ASSERT_TRUE(faultConfigure("disk.write:nth=1"));
        SlabStore r = mkStore(path);
        std::vector<SlabRec> recs = r.poll();
        ASSERT_TRUE(faultConfigure(""));
        ASSERT_EQ(recs.size(), 1u);
        EXPECT_EQ(recs[0].vals, valsFor(0, 99));
        EXPECT_EQ(fileSize(path), fullSize);
    }
    cleanup(path);
}

// ---------------------------------------------------------------
// Campaign-level integration: the singleton adopts slabs published
// through its store (in-process stand-in for a peer process) and the
// persisted bytes are identical to a cold recomputation.
// ---------------------------------------------------------------

size_t
campaignVals()
{
    return size_t(DesignPoint::kUarchCount) * size_t(phaseCount()) *
           4;
}

uint64_t
campaignKey()
{
    return Campaign::budgetKeyFor(simUopBudget(), simWarmupUops());
}

/** Plausible (positive, bounded) sentinel cells for one full slab —
 * recognizable on read-back, harmless if another test consumes
 * them. */
std::vector<float>
sentinelSlab(int slab)
{
    std::vector<float> v(campaignVals());
    for (size_t i = 0; i < v.size(); i++)
        v[i] = 0.25f + float((i + size_t(slab) * 131) % 997) * 1e-3f;
    return v;
}

SlabStore
campStore(bool readonly = false)
{
    return SlabStore(kCampCache, campaignKey(),
                     uint32_t(phaseCount()),
                     uint32_t(campaignVals()), Campaign::kSlabs,
                     readonly);
}

TEST(CampaignStore, AdoptsPublishedSlabsWithoutRecompute)
{
    // Publish slab 3 before the singleton exists: construction must
    // adopt it from disk.
    std::vector<float> pre = sentinelSlab(3);
    ASSERT_TRUE(campStore().append(3, pre.data(), pre.size()));
    Campaign &c = Campaign::get();
    ASSERT_TRUE(c.slabReady(3));
    std::vector<PhasePerf> got = c.slabPerf(3);
    ASSERT_EQ(got.size() * sizeof(PhasePerf),
              pre.size() * sizeof(float));
    // Sentinel bytes, not simulation output: proof it adopted
    // rather than recomputed.
    EXPECT_EQ(std::memcmp(got.data(), pre.data(),
                          pre.size() * sizeof(float)),
              0);
    EXPECT_GE(c.storeHealth().loaded, 1u);

    // Publish slab 5 while the singleton is live: ensureSlab's
    // reload-before-compute must pick it up (this is the in-process
    // image of cross-process coalescing).
    std::vector<float> post = sentinelSlab(5);
    ASSERT_TRUE(campStore().append(5, post.data(), post.size()));
    EXPECT_FALSE(c.slabReady(5));
    c.ensureSlab(5);
    std::vector<PhasePerf> got5 = c.slabPerf(5);
    EXPECT_EQ(std::memcmp(got5.data(), post.data(),
                          post.size() * sizeof(float)),
              0);
}

TEST(CampaignStore, PersistedBytesMatchColdRecompute)
{
    Campaign &c = Campaign::get();
    int s = FeatureSet::x86_64().id();
    c.ensureSlab(s); // computes and appends one real slab
    std::vector<PhasePerf> table = c.slabPerf(s);

    // What a peer process would read back from the store...
    SlabStore r = campStore(true);
    std::vector<SlabRec> recs = r.poll();
    const SlabRec *rec = nullptr;
    for (const SlabRec &x : recs) {
        if (x.slab == s)
            rec = &x;
    }
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->vals.size() * sizeof(float),
              table.size() * sizeof(PhasePerf));
    EXPECT_EQ(std::memcmp(rec->vals.data(), table.data(),
                          rec->vals.size() * sizeof(float)),
              0);

    // ...and what it would compute cold are the same bytes (slab
    // computation is deterministic at any CISA_THREADS; ctest pins
    // this binary to 4).
    std::vector<PhasePerf> cold = computeSlabPerf(s);
    ASSERT_EQ(cold.size(), table.size());
    EXPECT_EQ(std::memcmp(cold.data(), table.data(),
                          cold.size() * sizeof(PhasePerf)),
              0);
}

} // namespace
} // namespace cisa
