/**
 * @file
 * Header-only LRU map under a byte budget — the retention core shared
 * by the compile cache (service/compile_cache.hpp) and the problem
 * registry (spec/registry.hpp).
 *
 * Both callers keep the same shape: an unordered key -> payload map, a
 * recency list (front = most recently used), per-entry byte estimates
 * summed against a budget, and an eviction sweep that walks the cold
 * end. What differs between them stays in the caller: the compile
 * cache's single-flight futures, the registry's tombstones and
 * eviction generation. This class is deliberately not
 * thread-safe — each owner already serializes access under its own
 * mutex, and the policies they layer on top (skip-in-flight eviction,
 * tombstoning inside the sweep) need to run under that same lock.
 */

#ifndef CHOCOQ_COMMON_LRU_HPP
#define CHOCOQ_COMMON_LRU_HPP

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace chocoq::common
{

/**
 * LRU-ordered map of Key -> Value with per-entry byte accounting.
 * find() touches (promotes to most-recent); peek() does not. Eviction
 * only happens when the owner asks (evictOverBudget) so callers control
 * exactly where in their critical sections entries may disappear.
 */
template <class Key, class Value>
class LruMap
{
  public:
    struct Options
    {
        /** Byte budget (0 = unbounded: evictOverBudget never evicts). */
        std::size_t maxBytes = 0;
        /** Never evict below this population, regardless of budget —
         * the registry keeps 1 so the entry being inserted survives
         * even when it alone exceeds the budget. */
        std::size_t minEntries = 0;
    };

    LruMap() = default;
    explicit LruMap(Options opts) : opts_(opts) {}

    std::size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    /** Sum of the per-entry byte estimates currently held. */
    std::size_t bytes() const { return bytes_; }
    std::size_t maxBytes() const { return opts_.maxBytes; }
    /** Entries dropped by evictOverBudget since construction. */
    std::uint64_t evictions() const { return evictions_; }

    /** Keys in recency order, front = most recently used. */
    const std::list<Key> &keys() const { return lru_; }

    /** Look up and promote to most-recent; nullptr when absent. */
    Value *
    find(const Key &key)
    {
        const auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
        return &it->second.value;
    }

    /** Look up without touching recency; nullptr when absent. */
    Value *
    peek(const Key &key)
    {
        const auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second.value;
    }
    const Value *
    peek(const Key &key) const
    {
        const auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second.value;
    }

    /**
     * Insert at most-recent with a byte estimate (replacing any
     * existing entry under the key, keeping accounting consistent).
     * Returns the stored value; the reference stays valid until the
     * entry is erased or evicted. Never evicts — call evictOverBudget
     * when the budget should be enforced.
     */
    Value &
    insert(const Key &key, Value value, std::size_t bytes = 0)
    {
        erase(key);
        lru_.push_front(key);
        Node node;
        node.value = std::move(value);
        node.bytes = bytes;
        node.lruPos = lru_.begin();
        bytes_ += bytes;
        return map_.emplace(key, std::move(node)).first->second.value;
    }

    /** Remove an entry; false when absent. */
    bool
    erase(const Key &key)
    {
        const auto it = map_.find(key);
        if (it == map_.end())
            return false;
        bytes_ -= it->second.bytes;
        lru_.erase(it->second.lruPos);
        map_.erase(it);
        return true;
    }

    /** Re-estimate an entry's footprint (e.g. once a compile-cache
     * entry's artifacts are ready); no-op when absent. */
    void
    setBytes(const Key &key, std::size_t bytes)
    {
        const auto it = map_.find(key);
        if (it == map_.end())
            return;
        bytes_ -= it->second.bytes;
        it->second.bytes = bytes;
        bytes_ += bytes;
    }

    /**
     * Walk the cold end dropping entries until the byte budget holds
     * (or minEntries / the hot end is reached). @p evictable(key, value)
     * guards each candidate — the compile cache skips in-flight entries
     * whose waiters hold the future; skipped entries keep their recency
     * position. @p on_evict(key, value) fires before each drop (the
     * registry tombstones there). Returns how many entries were
     * dropped.
     */
    template <class Evictable, class OnEvict>
    std::size_t
    evictOverBudget(Evictable &&evictable, OnEvict &&on_evict)
    {
        if (opts_.maxBytes == 0)
            return 0;
        std::size_t dropped = 0;
        auto it = lru_.end();
        while (bytes_ > opts_.maxBytes && map_.size() > opts_.minEntries
               && it != lru_.begin()) {
            --it;
            const auto map_it = map_.find(*it);
            if (!evictable(*it, map_it->second.value))
                continue;
            on_evict(*it, map_it->second.value);
            bytes_ -= map_it->second.bytes;
            ++evictions_;
            ++dropped;
            map_.erase(map_it);
            it = lru_.erase(it);
        }
        return dropped;
    }

    /** Budget sweep with every entry evictable and no callback. */
    std::size_t
    evictOverBudget()
    {
        return evictOverBudget(
            [](const Key &, const Value &) { return true; },
            [](const Key &, const Value &) {});
    }

  private:
    struct Node
    {
        Value value;
        std::size_t bytes = 0;
        typename std::list<Key>::iterator lruPos;
    };

    Options opts_;
    std::unordered_map<Key, Node> map_;
    std::list<Key> lru_;
    std::size_t bytes_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace chocoq::common

#endif // CHOCOQ_COMMON_LRU_HPP
