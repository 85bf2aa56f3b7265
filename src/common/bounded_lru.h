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
 * No lock of its own: the owner guards it (the service keeps one mutex
 * per tier).
 */
#ifndef MUSSTI_COMMON_BOUNDED_LRU_H
#define MUSSTI_COMMON_BOUNDED_LRU_H

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace mussti {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class BoundedLru
{
  public:
    explicit BoundedLru(std::size_t capacity) : capacity_(capacity) {}

    /** The value under `key` (now the most recent), or nullptr. */
    Value *
    find(const Key &key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        entries_.splice(entries_.begin(), entries_, it->second);
        return &it->second->second;
    }

    /**
     * Store `value` under `key` unless the key is present (then only
     * refresh it); evict past the bound, calling
     * onEvict(const Key &, const Value &) on each victim oldest-first.
     */
    template <typename OnEvict>
    void
    insert(const Key &key, Value value, OnEvict &&onEvict)
    {
        if (capacity_ == 0 || find(key) != nullptr)
            return;
        entries_.emplace_front(key, std::move(value));
        index_.emplace(key, entries_.begin());
        while (entries_.size() > capacity_) {
            const auto &oldest = entries_.back();
            onEvict(oldest.first, oldest.second);
            index_.erase(oldest.first);
            entries_.pop_back();
        }
    }

    void
    clear()
    {
        index_.clear();
        entries_.clear();
    }

    std::size_t size() const { return entries_.size(); }

  private:
    using Entries = std::list<std::pair<Key, Value>>;

    const std::size_t capacity_;
    Entries entries_; ///< Front = most recently used.
    std::unordered_map<Key, typename Entries::iterator, Hash> index_;
};

} // namespace mussti

#endif // MUSSTI_COMMON_BOUNDED_LRU_H
