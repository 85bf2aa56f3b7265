/**
 * @file
 * Result-cache keys and the persistent disk tier of the compile service.
 *
 * The service memoises finished CompileResults keyed by ResultCacheKey
 * (circuit content hash, backend config digest, seed) in two tiers: an
 * in-memory BoundedLru (common/bounded_lru.h) in front of an optional
 * DiskResultCache. A lookup tries memory, then disk, and promotes a
 * disk hit into memory, so a result that survived a process restart on
 * disk is one miss away from memory speed.
 *
 * Disk-tier contract:
 *  - lookup()/store() are thread-safe and never throw: an I/O error or
 *    a corrupt entry degrades to a miss or a dropped store, never to a
 *    wrong result and never to an exception on the compile path.
 *  - A stored result must deserialize bit-identical to what went in;
 *    the version-stamped, checksummed entry format enforces this and
 *    quarantines anything that fails validation.
 *  - Only completed compiles are stored (the service guarantees this),
 *    so a cache hit is always a result some compile actually produced.
 */
#ifndef MUSSTI_CORE_RESULT_CACHE_H
#define MUSSTI_CORE_RESULT_CACHE_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "core/pipeline.h"

namespace mussti {

/** Cache coordinates of one compile (same fields as the service key). */
struct ResultCacheKey
{
    std::uint64_t circuitHash = 0;
    std::uint64_t configDigest = 0;
    std::uint64_t seed = 0;
    bool hasSeed = false;

    bool operator==(const ResultCacheKey &other) const = default;

    /** FNV-1a digest over all fields (filenames, hash buckets). */
    std::uint64_t digest() const;
};

struct ResultCacheKeyHash
{
    std::size_t
    operator()(const ResultCacheKey &key) const
    {
        return static_cast<std::size_t>(key.digest());
    }
};

/** Monotonic per-tier counters. */
struct ResultTierStats
{
    std::uint64_t hits = 0;      ///< Lookups that returned a result.
    std::uint64_t misses = 0;    ///< Lookups that found nothing usable.
    std::uint64_t evictions = 0; ///< Entries dropped by the capacity bound.
    std::uint64_t corrupt = 0;   ///< Entries failing validation (counted
                                 ///< as misses and quarantined).
};

/**
 * The disk-backed persistent tier: one file per entry under a cache
 * directory, named by the key digest. Writes are atomic
 * (write-to-temp + rename), so concurrent writers and a reader racing
 * a writer only ever observe complete entries. Every entry carries a
 * magic tag, a format version, the full key, and a payload checksum;
 * an entry failing ANY of those checks — truncation, garbage, a stale
 * format, a digest collision — is treated as a miss, counted corrupt,
 * and moved into a quarantine/ subdirectory for post-mortem, keeping
 * the hot path silent and the wrong-result probability at the checksum
 * collision floor.
 */
class DiskResultCache
{
  public:
    /**
     * `directory` is created if missing; `capacity` bounds the entry
     * count (oldest-mtime eviction past it; 0 = unbounded).
     */
    DiskResultCache(std::string directory, std::size_t capacity);

    /** The result stored under `key`, or nullopt. Never throws. */
    std::optional<CompileResult> lookup(const ResultCacheKey &key);

    /** Store (best-effort; duplicate keys keep the incumbent). */
    void store(const ResultCacheKey &key, const CompileResult &result);

    ResultTierStats stats() const;

    /** Entry path for `key` (exposed for the corruption tests). */
    std::string entryPathFor(const ResultCacheKey &key) const;

    /** Entry format version stamped into every file header. */
    static constexpr std::uint32_t kFormatVersion = 1;

    /** 8-byte magic tag opening every entry file. */
    static const char kMagic[9];

  private:
    void quarantine(const std::string &path);
    void enforceCapacityLocked();

    const std::string directory_;
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    ResultTierStats stats_;
};

/**
 * Bit-exact binary serialization of a CompileResult (doubles round-trip
 * as raw bit patterns), the payload format of the disk tier. Exposed
 * for tests; the encoding is internal to this repo and versioned by
 * DiskResultCache::kFormatVersion.
 */
std::string serializeCompileResult(const CompileResult &result);

/**
 * Inverse of serializeCompileResult. nullopt on ANY malformation —
 * truncation, trailing bytes, out-of-range enum or operand — never an
 * exception and never a partially-filled result.
 */
std::optional<CompileResult>
deserializeCompileResult(const std::string &bytes);

} // namespace mussti

#endif // MUSSTI_CORE_RESULT_CACHE_H
