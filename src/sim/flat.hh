/**
 * @file
 * Flat containers for per-object and per-request model state.
 *
 * The accelerator and format models touch a map or queue once per
 * object or per memory request. Node-based standard containers
 * (std::unordered_map, std::deque, std::list) reach the global
 * allocator on every insert or every few pushes; these keep their
 * elements in one array that only grows by doubling:
 *
 *  - RingQueue<T>: a FIFO over a power-of-two ring;
 *  - LruSet<K>: a small fully associative LRU set in recency order;
 *  - AddrMap<V>: an open-addressing Addr -> V map with linear probing
 *    and backward-shift deletion (no tombstones), for keys that are
 *    simulated addresses. ~0 is reserved as the empty-slot key.
 *
 * None of them exposes iteration order, so
 * swapping them in for the node-based containers leaves every
 * simulated result unchanged.
 */

#ifndef CEREAL_SIM_FLAT_HH
#define CEREAL_SIM_FLAT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/arena.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace cereal {
namespace sim {

/**
 * FIFO queue over a growable power-of-two ring buffer. A large ring is
 * a mapping of its own that grows in place (sim/arena.hh); T must be
 * trivially copyable.
 */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return buf_[head_]; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size()) {
            regrow(buf_.empty() ? 16 : buf_.size() * 2);
        }
        buf_[(head_ + size_) & (buf_.size() - 1)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    /** Grow a full ring to @p cap entries; entries that wrapped past
     *  the old end move to just after it. */
    void
    regrow(std::size_t cap)
    {
        const std::size_t old = buf_.size();
        buf_.resize(cap);
        std::copy(buf_.begin(), buf_.begin() + head_, buf_.begin() + old);
    }

    GrowArray<T, kept::Use::Transient> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/**
 * Fully associative LRU set of at most `capacity` keys, kept as one
 * array in recency order. Lookups scan from the most recent end, which
 * suits the small, hot tables it models (klass descriptors, huge-page
 * translations).
 */
template <typename K>
class LruSet
{
  public:
    explicit LruSet(std::size_t capacity) : capacity_(capacity)
    {
        keys_.reserve(capacity);
    }

    /**
     * Make @p key the most recent entry, evicting the least recent one
     * if the set is full. @return true if @p key was already present.
     */
    bool
    touch(K key)
    {
        if (!keys_.empty() && keys_.front() == key) {
            return true; // already the most recent: nothing moves
        }
        auto it = std::find(keys_.begin(), keys_.end(), key);
        const bool hit = it != keys_.end();
        if (!hit) {
            if (keys_.size() >= capacity_) {
                keys_.pop_back();
            }
            keys_.push_back(key);
            it = keys_.end() - 1;
        }
        std::rotate(keys_.begin(), it, it + 1);
        return hit;
    }

    void clear() { keys_.clear(); }

  private:
    std::size_t capacity_;
    /** Most recently used first. */
    std::vector<K> keys_;
};

/** Open-addressing map from simulated addresses to @p V. */
template <typename V>
class AddrMap
{
  public:
    /** Key value reserved for empty slots. */
    static constexpr Addr kEmpty = ~Addr{0};

    std::size_t size() const { return size_; }

    /** The value stored under @p key, or nullptr. */
    V *
    find(Addr key)
    {
        if (slots_.empty()) {
            return nullptr;
        }
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            if (slots_[i].key == key) {
                return &slots_[i].value;
            }
            if (slots_[i].key == kEmpty) {
                return nullptr;
            }
        }
    }

    /** Insert or overwrite @p key. @return true if it was new. */
    bool
    assign(Addr key, V value)
    {
        panic_if(key == kEmpty, "AddrMap key collides with empty marker");
        if ((size_ + 1) * 2 > slots_.size()) {
            rehash(slots_.empty() ? 16 : slots_.size() * 2);
        }
        std::size_t i = home(key);
        while (slots_[i].key != kEmpty && slots_[i].key != key) {
            i = (i + 1) & mask();
        }
        const bool fresh = slots_[i].key == kEmpty;
        slots_[i] = {key, value};
        size_ += fresh;
        return fresh;
    }

    /** Remove @p key if present. */
    void
    erase(Addr key)
    {
        if (slots_.empty()) {
            return;
        }
        std::size_t i = home(key);
        while (slots_[i].key != key) {
            if (slots_[i].key == kEmpty) {
                return;
            }
            i = (i + 1) & mask();
        }
        removeAt(i);
    }

    /**
     * Remove every entry whose value satisfies @p pred. The predicate
     * may update the value it is given, provided it would answer the
     * same if asked again.
     */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        // Backward shifts only move entries toward lower probe
        // positions, so re-testing slot i after a removal visits every
        // entry; wrapped entries may be tested twice, harmlessly.
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            while (slots_[i].key != kEmpty && pred(slots_[i].value)) {
                removeAt(i);
            }
        }
    }

    void
    clear()
    {
        for (auto &s : slots_) {
            s.key = kEmpty;
        }
        size_ = 0;
    }

  private:
    struct Slot
    {
        Addr key = kEmpty;
        V value{};
    };

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    home(Addr key) const
    {
        // Fibonacci hashing; keys are 8 B- or 64 B-aligned, so the
        // high product bits carry the entropy.
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ULL) >> 32) &
               mask();
    }

    void
    removeAt(std::size_t hole)
    {
        for (std::size_t j = (hole + 1) & mask(); slots_[j].key != kEmpty;
             j = (j + 1) & mask()) {
            // Move j into the hole unless its home lies cyclically in
            // (hole, j], where the hole does not break its probe chain.
            const std::size_t h = home(slots_[j].key);
            const bool stays = hole <= j ? (hole < h && h <= j)
                                         : (hole < h || h <= j);
            if (!stays) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = kEmpty;
        --size_;
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old(cap);
        old.swap(slots_);
        size_ = 0;
        for (const auto &s : old) {
            if (s.key != kEmpty) {
                assign(s.key, s.value);
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace sim
} // namespace cereal

#endif // CEREAL_SIM_FLAT_HH
