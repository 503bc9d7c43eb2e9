/**
 * @file
 * Memoization library (§3.5.2 / §4.2): the 20-line change that took
 * the Mirage DNS appliance from ~40 k to 75-80 k queries/s. A bounded
 * cache of computed responses keyed by request, with hit statistics so
 * benches can report the effect directly.
 */

#ifndef MIRAGE_STORAGE_MEMOIZE_H
#define MIRAGE_STORAGE_MEMOIZE_H

#include <functional>
#include <list>
#include <unordered_map>

#include "base/types.h"

namespace mirage::storage {

/**
 * LRU memo table. Key must be hashable; Value is copied out on hit.
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class Memoizer
{
  public:
    explicit Memoizer(std::size_t capacity) : capacity_(capacity) {}

    /**
     * Return the memoized value for @p key, computing it with
     * @p compute on a miss.
     */
    Value
    get(const Key &key, const std::function<Value()> &compute)
    {
        auto it = map_.find(key);
        if (it != map_.end()) {
            hits_++;
            lru_.splice(lru_.begin(), lru_, it->second);
            return it->second->second;
        }
        misses_++;
        Value v = compute();
        insert(key, v);
        return v;
    }

    /** Probe without computing. */
    const Value *
    peek(const Key &key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return &it->second->second;
    }

    void
    insert(const Key &key, Value value)
    {
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second->second = std::move(value);
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        lru_.emplace_front(key, std::move(value));
        map_[key] = lru_.begin();
        if (map_.size() > capacity_) {
            map_.erase(lru_.back().first);
            lru_.pop_back();
            evictions_++;
        }
    }

    void
    clear()
    {
        map_.clear();
        lru_.clear();
    }

    std::size_t size() const { return map_.size(); }
    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    u64 evictions() const { return evictions_; }

  private:
    using Entry = std::pair<Key, Value>;

    std::size_t capacity_;
    std::list<Entry> lru_;
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash>
        map_;
    u64 hits_ = 0;
    u64 misses_ = 0;
    u64 evictions_ = 0;
};

} // namespace mirage::storage

#endif // MIRAGE_STORAGE_MEMOIZE_H
