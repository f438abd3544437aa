// PacketArena: the lane-local slab pool behind the zero-allocation hot
// path. Exhaustion must be explicit (kNoSlot + counter, never a resize),
// recycled slots must be reusable, and the borrower/recycler handoff must
// be clean across real threads (run under -DSDT_SANITIZE=thread via the
// runtime label; the poison test is what ASan-stage runs lean on).
#include "runtime/packet_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace sdt::runtime {
namespace {

PacketArena::Config small_cfg(std::size_t slots, std::size_t slab = 64) {
  PacketArena::Config c;
  c.slots = slots;
  c.slab_bytes = slab;
  return c;
}

TEST(PacketArena, RejectsDegenerateConfigs) {
  EXPECT_THROW(PacketArena(small_cfg(0)), InvalidArgument);
  PacketArena::Config no_slab;
  no_slab.slab_bytes = 0;
  EXPECT_THROW(PacketArena{no_slab}, InvalidArgument);
}

TEST(PacketArena, BorrowsAreDistinctAndSlabsDisjoint) {
  PacketArena a(small_cfg(4));
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 4; ++i) {
    const std::uint32_t s = a.try_borrow();
    ASSERT_NE(s, PacketArena::kNoSlot);
    slots.push_back(s);
  }
  std::sort(slots.begin(), slots.end());
  EXPECT_EQ(std::unique(slots.begin(), slots.end()), slots.end());
  // Writing one slab end to end must not bleed into any other.
  std::memset(a.slab(slots[0]).data(), 0xAB, a.slab_bytes());
  for (std::size_t i = 1; i < slots.size(); ++i) {
    EXPECT_NE(a.slab(slots[i]).data()[0], 0xAB);
  }
}

TEST(PacketArena, ExhaustionIsExplicitNotSilent) {
  PacketArena a(small_cfg(2));
  std::uint32_t s0 = a.try_borrow();
  std::uint32_t s1 = a.try_borrow();
  ASSERT_NE(s0, PacketArena::kNoSlot);
  ASSERT_NE(s1, PacketArena::kNoSlot);
  // Pool is empty: the arena says so rather than allocating more.
  EXPECT_EQ(a.try_borrow(), PacketArena::kNoSlot);
  EXPECT_EQ(a.try_borrow(), PacketArena::kNoSlot);
  const PacketArenaStats s = a.stats();
  EXPECT_EQ(s.borrows, 2u);
  EXPECT_EQ(s.exhausted, 2u);
  EXPECT_EQ(s.outstanding(), 2u);
  EXPECT_EQ(s.high_water, 2u);
  // Recycling makes the pool whole again.
  std::uint32_t back[2] = {s0, s1};
  a.recycle(back, 2);
  EXPECT_NE(a.try_borrow(), PacketArena::kNoSlot);
  EXPECT_EQ(a.stats().outstanding(), 1u);
}

TEST(PacketArena, RecycledSlotsAreReused) {
  // With a single slot, every borrow after a recycle must hand the same
  // slab back — the pool recycles, it never grows.
  PacketArena a(small_cfg(1));
  const std::uint32_t first = a.try_borrow();
  ASSERT_NE(first, PacketArena::kNoSlot);
  const std::uint8_t* addr = a.slab(first).data();
  std::uint32_t id = first;
  for (int round = 0; round < 100; ++round) {
    a.recycle(&id, 1);
    id = a.try_borrow();
    ASSERT_EQ(id, first);
    ASSERT_EQ(a.slab(id).data(), addr);  // storage never moves
  }
  const PacketArenaStats s = a.stats();
  EXPECT_EQ(s.borrows, 101u);
  EXPECT_EQ(s.recycles, 100u);
  EXPECT_EQ(s.high_water, 1u);
}

TEST(PacketArena, PoisonOnRecycleOverwritesStaleBytes) {
  PacketArena::Config c = small_cfg(1, 32);
  c.poison_on_recycle = true;
  PacketArena a(c);
  std::uint32_t s = a.try_borrow();
  ASSERT_NE(s, PacketArena::kNoSlot);
  std::memset(a.slab(s).data(), 0x5A, a.slab_bytes());
  a.recycle(&s, 1);
  // A consumer that (incorrectly) kept reading after recycle sees poison,
  // not plausible stale payload.
  const std::uint32_t again = a.try_borrow();
  ASSERT_EQ(again, s);
  for (std::uint8_t b : a.slab(again)) EXPECT_EQ(b, 0xDD);
}

TEST(PacketArena, HeapFallbackCounterIsBorrowerBookkeeping) {
  PacketArena a(small_cfg(2));
  EXPECT_EQ(a.stats().heap_fallbacks, 0u);
  a.count_heap_fallback();
  a.count_heap_fallback();
  EXPECT_EQ(a.stats().heap_fallbacks, 2u);
  // Fallbacks do not consume pool slots.
  EXPECT_NE(a.try_borrow(), PacketArena::kNoSlot);
  EXPECT_NE(a.try_borrow(), PacketArena::kNoSlot);
}

TEST(PacketArena, HighWaterIsPeakOccupancyAcrossRefills) {
  PacketArena a(small_cfg(8));
  std::vector<std::uint32_t> ids;
  for (int round = 0; round < 3; ++round) {
    while (ids.size() < 8) {
      const std::uint32_t s = a.try_borrow();
      ASSERT_NE(s, PacketArena::kNoSlot);
      ids.push_back(s);
    }
    EXPECT_EQ(a.try_borrow(), PacketArena::kNoSlot);
    EXPECT_EQ(a.stats().high_water, 8u);
    // Drain part of the pool and refill it: the peak stays at the pool
    // size and never counts past it.
    a.recycle(ids.data(), 5);
    ids.erase(ids.begin(), ids.begin() + 5);
    EXPECT_EQ(a.stats().outstanding(), 3u);
  }
  EXPECT_EQ(a.stats().high_water, 8u);
}

TEST(PacketArena, BorrowerRecyclerThreadHandoff) {
  // The runtime's exact shape: one thread borrows and writes slabs, the
  // other reads them and recycles, with a plain SPSC ring in between. Each
  // slab write must happen-before the read, and the recycled slot's next
  // write must happen-after it — the arena's free list provides both
  // edges. TSan validates them when this runs under the runtime label.
  constexpr int kCount = 20000;
  PacketArena a(small_cfg(8, 16));
  SpscRing<std::uint32_t> handoff(8);
  std::uint64_t read_sum = 0;

  std::thread recycler([&] {
    int got = 0;
    std::uint32_t slot;
    while (got < kCount) {
      if (!handoff.try_pop(slot)) {
        std::this_thread::yield();
        continue;
      }
      read_sum += a.slab(slot).data()[0];
      a.recycle(&slot, 1);
      ++got;
    }
  });

  std::uint64_t write_sum = 0;
  for (int i = 0; i < kCount; ++i) {
    std::uint32_t slot;
    while ((slot = a.try_borrow()) == PacketArena::kNoSlot) {
      std::this_thread::yield();
    }
    const std::uint8_t v = static_cast<std::uint8_t>(i & 0xff);
    a.slab(slot).data()[0] = v;
    write_sum += v;
    while (!handoff.try_push(std::uint32_t{slot})) {
      std::this_thread::yield();
    }
  }
  recycler.join();

  EXPECT_EQ(read_sum, write_sum);
  const PacketArenaStats s = a.stats();
  EXPECT_EQ(s.borrows, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(s.recycles, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(s.outstanding(), 0u);
  EXPECT_LE(s.high_water, s.slots);
}

}  // namespace
}  // namespace sdt::runtime
