/**
 * @file
 * A bounded least-recently-used map, the one LRU container behind the
 * compile service's caches (the in-memory result tier and the delta
 * snapshot tier).
 *
 * BoundedLru<Key, Value, Hash> keeps at most `capacity` entries. find()
 * refreshes an entry's recency; insert() of a new key makes it the most
 * recent and then drops the least recent entries past the bound,
 * handing each to the caller's onEvict(key, value) first, oldest first,
 * so the owner can unwind bookkeeping it keeps beside the map. insert()
 * of a key already present keeps the incumbent value and only refreshes
 * it. Capacity 0 stores nothing.
 *
 * Given a protected capacity, it is a segmented LRU: a new entry starts
 * on probation, find() moves it to the protected segment, and a full
 * protected segment demotes its least recent entry back to probation.
 * Victims come from probation only, so a stream of entries that are
 * never found again cannot flush the entries in use. Protected
 * capacity 0 (the default) is plain LRU.
 *
 * No lock of its own: the owner guards it (the service keeps one mutex
 * per tier).
 */
#ifndef MUSSTI_COMMON_BOUNDED_LRU_H
#define MUSSTI_COMMON_BOUNDED_LRU_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace mussti {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class BoundedLru
{
  public:
    /**
     * `protected_capacity` is capped below `capacity`, so probation
     * always has room for one entry.
     */
    explicit BoundedLru(std::size_t capacity,
                        std::size_t protected_capacity = 0)
        : capacity_(capacity),
          protectedCapacity_(
              std::min(protected_capacity, capacity > 0 ? capacity - 1 : 0))
    {}

    /** The value under `key` (now the most recent), or nullptr. */
    Value *
    find(const Key &key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        Slot &slot = it->second;
        if (protectedCapacity_ == 0) {
            probation_.splice(probation_.begin(), probation_, slot.entry);
            return &slot.entry->second;
        }
        protected_.splice(protected_.begin(),
                          slot.hot ? protected_ : probation_, slot.entry);
        slot.hot = true;
        if (protected_.size() > protectedCapacity_) {
            const auto demoted = std::prev(protected_.end());
            index_.find(demoted->first)->second.hot = false;
            probation_.splice(probation_.begin(), protected_, demoted);
        }
        return &slot.entry->second;
    }

    /**
     * Store `value` under `key` unless the key is present (then only
     * refresh it, as find() does); evict past the bound, calling
     * onEvict(const Key &, const Value &) on each victim oldest-first.
     */
    template <typename OnEvict>
    void
    insert(const Key &key, Value value, OnEvict &&onEvict)
    {
        if (capacity_ == 0 || find(key) != nullptr)
            return;
        probation_.emplace_front(key, std::move(value));
        index_.emplace(key, Slot{probation_.begin(), false});
        while (size() > capacity_) {
            const auto &oldest = probation_.back();
            onEvict(oldest.first, oldest.second);
            index_.erase(oldest.first);
            probation_.pop_back();
        }
    }

    void
    clear()
    {
        index_.clear();
        probation_.clear();
        protected_.clear();
    }

    std::size_t size() const { return probation_.size() + protected_.size(); }

  private:
    using Entries = std::list<std::pair<Key, Value>>;

    struct Slot
    {
        typename Entries::iterator entry;
        bool hot = false; ///< In protected_, not probation_.
    };

    const std::size_t capacity_;
    const std::size_t protectedCapacity_;
    Entries probation_; ///< Front = most recently used.
    Entries protected_; ///< Front = most recently used.
    std::unordered_map<Key, Slot, Hash> index_;
};

} // namespace mussti

#endif // MUSSTI_COMMON_BOUNDED_LRU_H
