#include "runtime/packet_arena.hpp"

#include <cstring>

#include "util/error.hpp"

namespace sdt::runtime {

PacketArena::PacketArena(const Config& cfg)
    : slots_(cfg.slots),
      slab_bytes_(cfg.slab_bytes),
      poison_(cfg.poison_on_recycle),
      storage_(cfg.slots * cfg.slab_bytes),
      free_(cfg.slots) {
  if (cfg.slots == 0) throw InvalidArgument("PacketArena: slots == 0");
  if (cfg.slab_bytes == 0) throw InvalidArgument("PacketArena: slab_bytes == 0");
  if (cfg.slots >= kNoSlot) {
    throw InvalidArgument("PacketArena: slots >= kNoSlot sentinel");
  }
  // Pre-fill the free list before any concurrency exists; construction
  // happens-before thread start, so both sides see a full pool.
  for (std::uint32_t i = 0; i < slots_; ++i) {
    free_.try_push(std::uint32_t{i});
  }
}

std::uint32_t PacketArena::try_borrow() {
  std::uint32_t slot = kNoSlot;
  if (!free_.try_pop(slot)) {
    exhausted_.fetch_add(1, std::memory_order_relaxed);
    return kNoSlot;
  }
  borrows_.fetch_add(1, std::memory_order_relaxed);
  // Occupancy after this pop: the slots not on the free list. The borrower
  // is the free list's only consumer, so the depth it reads can only lag
  // recycles in flight, and the gauge never exceeds the pool. (Counter
  // differences would over-count: recycle() bumps recycles_ after its
  // pushes are visible.)
  const std::size_t occ = slots_ - free_.size();
  if (occ > high_water_.load(std::memory_order_relaxed)) {
    high_water_.store(occ, std::memory_order_relaxed);
  }
  return slot;
}

void PacketArena::recycle(std::uint32_t* ids, std::size_t n) {
  if (n == 0) return;
  if (poison_) {
    for (std::size_t i = 0; i < n; ++i) {
      std::memset(slab(ids[i]).data(), 0xDD, slab_bytes_);
    }
  }
  // The free list is sized to hold every slot, and each id is outstanding
  // exactly once, so these pushes cannot fail; the loop documents the
  // invariant rather than trusting it silently.
  std::size_t pushed = 0;
  while (pushed < n) {
    pushed += free_.try_push_batch(ids + pushed, n - pushed);
  }
  recycles_.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace sdt::runtime
