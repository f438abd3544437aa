// Bounded flow table: open-addressing index over a slab of per-flow records,
// with an intrusive LRU list for capacity eviction, an idle-timeout sweep,
// and a timing-wheel lifecycle so 1M-flow churn is a steady state.
//
// Built rather than borrowed because the paper's evaluation hinges on
// *byte-exact* per-flow state accounting at 1M-connection scale:
// memory_bytes() reports the true footprint (slab + index + wheel), which
// the E2 state-memory experiment compares between the fast path and the
// conventional IPS.
//
// Lifecycle model (the conntrack shape): every live flow carries a deadline
// on a single-level timing wheel. A touched flow is rescheduled at
// now + idle_timeout; a flow whose close was observed (both FINs, or a
// sequence-valid RST) is marked *closing* and lingers only linger_usec —
// long enough to absorb the final ACK and benign retransmits, short enough
// that a churning workload reclaims its slots in seconds, not minutes.
// expire_due(now) advances the wheel and is O(slots walked + flows
// expired), independent of table occupancy — the property that makes a
// 1M-flow table with heavy birth/death sweepable from a packet loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "flow/flow_key.hpp"
#include "util/error.hpp"

namespace sdt::flow {

/// Hash table keyed by FlowKey holding V per flow. Not thread-safe (one
/// table per pipeline lane, as in real line-card designs).
template <typename V>
class FlowTable {
 public:
  struct Config {
    std::size_t max_flows = 1 << 20;
    /// Wheel deadline for a live flow: last packet + this. 0 disables the
    /// wheel entirely (pure LRU table, the pre-lifecycle behaviour).
    std::uint64_t idle_timeout_usec = 0;
    /// Wheel deadline once a flow is marked closing (FIN/FIN or valid RST):
    /// long enough for the final ACK, short enough that churn reclaims in
    /// seconds (conntrack's CLOSE/TIME_WAIT shape).
    std::uint64_t linger_usec = 5ull * 1000 * 1000;
    /// Timing-wheel geometry: slots is rounded up to a power of two. The
    /// wheel spans slots × granularity; deadlines beyond the span park in
    /// their modular slot and are re-queued on inspection (lazy revolutions).
    std::size_t wheel_slots = 256;
    std::uint64_t wheel_granularity_usec = 500ull * 1000;
  };

  /// Called with the key and value of a flow forced out (LRU eviction or
  /// idle expiry) before the slot is reused.
  using EvictFn = std::function<void(const FlowKey&, V&)>;

  explicit FlowTable(Config cfg)
      : max_flows_(cfg.max_flows),
        idle_timeout_usec_(cfg.idle_timeout_usec),
        linger_usec_(cfg.linger_usec),
        granularity_usec_(cfg.wheel_granularity_usec == 0
                              ? 1
                              : cfg.wheel_granularity_usec) {
    if (max_flows_ == 0) throw InvalidArgument("FlowTable: max_flows == 0");
    slab_.reserve(max_flows_);
    bucket_count_ = bucket_count_for(max_flows_);
    buckets_.assign(bucket_count_, kEmpty);
    if (idle_timeout_usec_ != 0) {
      const std::size_t slots = wheel_slots_for(cfg.wheel_slots);
      wheel_.assign(slots, kNone);
      wheel_mask_ = slots - 1;
    }
  }

  /// What memory_bytes() reports for a table built with `cfg`, without
  /// building it: the slab is reserved for max_flows up front, so this is
  /// also the footprint of the table when full.
  static std::size_t footprint_bytes(const Config& cfg) {
    const std::size_t wheel =
        cfg.idle_timeout_usec == 0 ? 0 : wheel_slots_for(cfg.wheel_slots);
    return cfg.max_flows * sizeof(Entry) +
           (bucket_count_for(cfg.max_flows) + wheel) * sizeof(std::uint32_t) +
           sizeof(FlowTable);
  }

  void set_evict_callback(EvictFn fn) { evict_fn_ = std::move(fn); }

  /// Factory for new values (defaults to value-initialization). Lets callers
  /// stamp configuration into each fresh per-flow record.
  void set_value_factory(std::function<V()> fn) { factory_ = std::move(fn); }

  std::size_t size() const { return live_; }
  std::size_t max_flows() const { return max_flows_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }
  std::uint64_t teardowns() const { return teardowns_; }
  bool has_wheel() const { return !wheel_.empty(); }

  /// Total bytes held: slab storage + bucket index + wheel + overhead.
  std::size_t memory_bytes() const {
    return slab_.capacity() * sizeof(Entry) +
           buckets_.capacity() * sizeof(std::uint32_t) +
           wheel_.capacity() * sizeof(std::uint32_t) + sizeof(*this);
  }

  /// Bytes per tracked flow at current occupancy (the E2 metric).
  double bytes_per_flow() const {
    return live_ == 0 ? 0.0
                      : static_cast<double>(memory_bytes()) /
                            static_cast<double>(live_);
  }

  /// Look up without touching LRU order. nullptr if absent.
  V* find(const FlowKey& key) {
    const std::uint32_t idx = find_slot(key);
    return idx == kNone ? nullptr : &slab_[idx].value;
  }
  const V* find(const FlowKey& key) const {
    const std::uint32_t idx = find_slot(key);
    return idx == kNone ? nullptr : &slab_[idx].value;
  }

  /// Hint that a lookup for `key` is imminent: pulls the hash-bucket line
  /// toward the cache (the slab entry is only known after the probe).
  /// Issue for a whole batch of packets before probing any of them.
  void prefetch(const FlowKey& key) const {
#if defined(__GNUC__) || defined(__clang__)
    if (!buckets_.empty()) {
      __builtin_prefetch(&buckets_[bucket_of(key.hash())], 0, 3);
    }
#else
    (void)key;
#endif
  }

  /// Find or default-construct the flow, refreshing its LRU position and
  /// last-seen time. Evicts the least-recently-used flow when full.
  /// `created`, if non-null, reports whether a new record was made.
  V& get_or_create(const FlowKey& key, std::uint64_t now_usec,
                   bool* created = nullptr) {
    std::uint32_t idx = find_slot(key);
    if (idx != kNone) {
      touch(idx, now_usec);
      if (created) *created = false;
      return slab_[idx].value;
    }
    if (created) *created = true;
    if (live_ >= max_flows_) evict_lru();
    idx = allocate(key, now_usec);
    insert_index(key.hash(), idx);
    lru_push_front(idx);
    ++live_;
    return slab_[idx].value;
  }

  /// Remove a flow if present. Returns true when something was erased.
  bool erase(const FlowKey& key) {
    const std::uint32_t idx = find_slot(key);
    if (idx == kNone) return false;
    remove_entry(idx);
    return true;
  }

  /// Mark a flow closing: its wheel deadline collapses from idle_timeout to
  /// linger, and later touches keep the short deadline (a closing flow does
  /// not earn a fresh 60 s by retransmitting its FIN). No-op when the wheel
  /// is disabled or the flow is unknown. Returns true when a live flow was
  /// marked.
  bool mark_closing(const FlowKey& key, std::uint64_t now_usec) {
    if (wheel_.empty()) return false;
    const std::uint32_t idx = find_slot(key);
    if (idx == kNone) return false;
    Entry& e = slab_[idx];
    if (!e.closing) {
      e.closing = true;
      ++teardowns_;
    }
    wheel_schedule(idx, now_usec + linger_usec_);
    return true;
  }

  bool closing(const FlowKey& key) const {
    const std::uint32_t idx = find_slot(key);
    return idx != kNone && slab_[idx].closing;
  }

  /// Advance the timing wheel to `now_usec`, expiring every flow whose
  /// deadline has passed (idle flows after idle_timeout, closing flows
  /// after linger). Cost is proportional to the slots crossed since the
  /// last call plus the flows actually expired — never to table occupancy.
  /// Returns the count expired. No-op (0) when the wheel is disabled.
  std::size_t expire_due(std::uint64_t now_usec) {
    if (wheel_.empty()) return 0;
    const std::uint64_t tick_now = now_usec / granularity_usec_;
    std::uint64_t walk;
    if (!wheel_started_) {
      // First call: entries may already be parked in any slot (scheduled
      // before the sweeper ever ran), so do one full revolution.
      wheel_started_ = true;
      walk = wheel_mask_ + 1;
    } else if (tick_now < last_tick_) {
      return 0;  // time went backwards: hold
    } else {
      // Crossing more slots than the wheel has walks every slot once.
      walk = std::min<std::uint64_t>(tick_now - last_tick_, wheel_mask_ + 1);
    }
    std::size_t n = 0;
    for (std::uint64_t t = 0; t < walk; ++t) {
      n += drain_wheel_slot((last_tick_ + 1 + t) & wheel_mask_, now_usec);
    }
    // The current slot may hold due entries scheduled within this tick.
    n += drain_wheel_slot(tick_now & wheel_mask_, now_usec);
    last_tick_ = tick_now;
    return n;
  }

  /// Expire flows idle for at least `idle_usec`. Returns the count expired.
  std::size_t expire_idle(std::uint64_t now_usec, std::uint64_t idle_usec) {
    std::size_t n = 0;
    while (lru_tail_ != kNone) {
      Entry& e = slab_[lru_tail_];
      if (now_usec - e.last_seen < idle_usec) break;
      ++expirations_;
      if (evict_fn_) evict_fn_(e.key, e.value);
      remove_entry(lru_tail_);
      ++n;
    }
    return n;
  }

  /// Visit all live flows (unspecified order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t i = lru_head_; i != kNone; i = slab_[i].lru_next) {
      fn(slab_[i].key, slab_[i].value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t i = lru_head_; i != kNone; i = slab_[i].lru_next) {
      fn(slab_[i].key, slab_[i].value);
    }
  }

 private:
  struct Entry {
    FlowKey key;
    V value{};
    std::uint64_t last_seen = 0;
    std::uint64_t deadline = 0;       // wheel expiry time (usec)
    std::uint32_t lru_prev = kNone;
    std::uint32_t lru_next = kNone;
    std::uint32_t wheel_prev = kNone;
    std::uint32_t wheel_next = kNone;
    std::uint32_t wheel_slot = kNone;  // slot index while linked
    std::uint32_t free_next = kNone;   // freelist link when dead
    bool live = false;
    bool closing = false;  // FIN/FIN or RST observed: linger deadline
  };

  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kEmpty = kNone;
  static constexpr std::uint32_t kTombstone = kNone - 1;

  // ---- geometry ----------------------------------------------------------

  static std::size_t bucket_count_for(std::size_t max_flows) {
    std::size_t n = 1;
    while (n < max_flows * 2) n <<= 1;
    return n;
  }
  static std::size_t wheel_slots_for(std::size_t wanted) {
    std::size_t n = 1;
    while (n < std::max<std::size_t>(wanted, 2)) n <<= 1;
    return n;
  }

  // ---- index -------------------------------------------------------------

  std::size_t bucket_of(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash) & (bucket_count_ - 1);
  }

  std::uint32_t find_slot(const FlowKey& key) const {
    std::size_t b = bucket_of(key.hash());
    for (std::size_t probes = 0; probes < bucket_count_; ++probes) {
      const std::uint32_t v = buckets_[b];
      if (v == kEmpty) return kNone;
      if (v != kTombstone && slab_[v].key == key) return v;
      b = (b + 1) & (bucket_count_ - 1);
    }
    return kNone;
  }

  void insert_index(std::uint64_t hash, std::uint32_t idx) {
    std::size_t b = bucket_of(hash);
    while (buckets_[b] != kEmpty && buckets_[b] != kTombstone) {
      b = (b + 1) & (bucket_count_ - 1);
    }
    if (buckets_[b] == kTombstone) --tombstones_;
    buckets_[b] = idx;
  }

  void erase_index(const FlowKey& key, std::uint32_t idx) {
    std::size_t b = bucket_of(key.hash());
    for (std::size_t probes = 0; probes < bucket_count_; ++probes) {
      if (buckets_[b] == idx) {
        buckets_[b] = kTombstone;
        ++tombstones_;
        break;
      }
      b = (b + 1) & (bucket_count_ - 1);
    }
    // Rebuild only after the dying entry is both tombstoned and marked
    // not-live, so it cannot be resurrected into the fresh index.
    if (tombstones_ > bucket_count_ / 4) rebuild_index();
  }

  void rebuild_index() {
    buckets_.assign(bucket_count_, kEmpty);
    tombstones_ = 0;
    for (std::uint32_t i = 0; i < slab_.size(); ++i) {
      if (slab_[i].live) insert_index(slab_[i].key.hash(), i);
    }
  }

  // ---- slab --------------------------------------------------------------

  std::uint32_t allocate(const FlowKey& key, std::uint64_t now_usec) {
    std::uint32_t idx;
    if (free_head_ != kNone) {
      idx = free_head_;
      free_head_ = slab_[idx].free_next;
    } else {
      idx = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    Entry& e = slab_[idx];
    e.key = key;
    e.value = factory_ ? factory_() : V{};
    e.last_seen = now_usec;
    e.lru_prev = e.lru_next = kNone;
    e.wheel_prev = e.wheel_next = kNone;
    e.wheel_slot = kNone;
    e.live = true;
    e.closing = false;
    if (!wheel_.empty()) wheel_schedule(idx, now_usec + idle_timeout_usec_);
    return idx;
  }

  void remove_entry(std::uint32_t idx) {
    Entry& e = slab_[idx];
    e.live = false;  // must precede erase_index: a rebuild must skip us
    erase_index(e.key, idx);
    lru_unlink(idx);
    wheel_unlink(idx);
    e.closing = false;
    e.value = V{};  // release any heap the value holds
    e.free_next = free_head_;
    free_head_ = idx;
    --live_;
  }

  void evict_lru() {
    const std::uint32_t victim = lru_tail_;
    ++evictions_;
    if (evict_fn_) evict_fn_(slab_[victim].key, slab_[victim].value);
    remove_entry(victim);
  }

  // ---- LRU list (head = most recent) --------------------------------------

  void lru_push_front(std::uint32_t idx) {
    Entry& e = slab_[idx];
    e.lru_prev = kNone;
    e.lru_next = lru_head_;
    if (lru_head_ != kNone) slab_[lru_head_].lru_prev = idx;
    lru_head_ = idx;
    if (lru_tail_ == kNone) lru_tail_ = idx;
  }

  void lru_unlink(std::uint32_t idx) {
    Entry& e = slab_[idx];
    if (e.lru_prev != kNone) {
      slab_[e.lru_prev].lru_next = e.lru_next;
    } else {
      lru_head_ = e.lru_next;
    }
    if (e.lru_next != kNone) {
      slab_[e.lru_next].lru_prev = e.lru_prev;
    } else {
      lru_tail_ = e.lru_prev;
    }
    e.lru_prev = e.lru_next = kNone;
  }

  void touch(std::uint32_t idx, std::uint64_t now_usec) {
    Entry& e = slab_[idx];
    e.last_seen = now_usec;
    if (!wheel_.empty()) {
      // A closing flow keeps its short linger horizon: traffic on a closed
      // connection must not re-earn the idle timeout.
      wheel_schedule(idx, now_usec +
                              (e.closing ? linger_usec_ : idle_timeout_usec_));
    }
    if (lru_head_ == idx) return;
    lru_unlink(idx);
    lru_push_front(idx);
  }

  // ---- timing wheel (head-linked per-slot lists, lazy revolutions) --------

  std::size_t slot_of(std::uint64_t deadline_usec) const {
    return static_cast<std::size_t>(deadline_usec / granularity_usec_) &
           wheel_mask_;
  }

  void wheel_schedule(std::uint32_t idx, std::uint64_t deadline_usec) {
    Entry& e = slab_[idx];
    const std::size_t slot = slot_of(deadline_usec);
    if (e.wheel_slot == slot) {  // hot case: same slot, just move the time
      e.deadline = deadline_usec;
      return;
    }
    wheel_unlink(idx);
    e.deadline = deadline_usec;
    e.wheel_slot = static_cast<std::uint32_t>(slot);
    e.wheel_prev = kNone;
    e.wheel_next = wheel_[slot];
    if (wheel_[slot] != kNone) slab_[wheel_[slot]].wheel_prev = idx;
    wheel_[slot] = idx;
  }

  void wheel_unlink(std::uint32_t idx) {
    Entry& e = slab_[idx];
    if (e.wheel_slot == kNone) return;
    if (e.wheel_prev != kNone) {
      slab_[e.wheel_prev].wheel_next = e.wheel_next;
    } else {
      wheel_[e.wheel_slot] = e.wheel_next;
    }
    if (e.wheel_next != kNone) slab_[e.wheel_next].wheel_prev = e.wheel_prev;
    e.wheel_prev = e.wheel_next = kNone;
    e.wheel_slot = kNone;
  }

  /// Expire every due entry in one slot; entries parked for a future wheel
  /// revolution are left linked (their slot is unchanged). Returns expired
  /// count.
  std::size_t drain_wheel_slot(std::size_t slot, std::uint64_t now_usec) {
    std::size_t n = 0;
    std::uint32_t i = wheel_[slot];
    while (i != kNone) {
      const std::uint32_t next = slab_[i].wheel_next;
      if (slab_[i].deadline <= now_usec) {
        ++expirations_;
        if (evict_fn_) evict_fn_(slab_[i].key, slab_[i].value);
        remove_entry(i);
        ++n;
      }
      i = next;
    }
    return n;
  }

  std::size_t max_flows_;
  std::uint64_t idle_timeout_usec_;
  std::uint64_t linger_usec_;
  std::uint64_t granularity_usec_;
  std::size_t bucket_count_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t live_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
  std::uint64_t teardowns_ = 0;
  std::uint64_t last_tick_ = 0;
  bool wheel_started_ = false;
  std::size_t wheel_mask_ = 0;
  std::uint32_t lru_head_ = kNone;
  std::uint32_t lru_tail_ = kNone;
  std::uint32_t free_head_ = kNone;
  std::vector<Entry> slab_;
  std::vector<std::uint32_t> buckets_;
  std::vector<std::uint32_t> wheel_;  // per-slot list heads (empty = no wheel)
  EvictFn evict_fn_;
  std::function<V()> factory_;
};

}  // namespace sdt::flow
