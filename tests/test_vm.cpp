// Tests for the software MMU: physical memory, page tables, permissions,
// guard pages, fault handling, and the TLB model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/rng.hpp"
#include "vm/address_space.hpp"
#include "vm/phys.hpp"

namespace usk::vm {
namespace {

TEST(PhysMemTest, AllocAndFree) {
  PhysMem pm(16);
  auto f = pm.alloc_frame();
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(pm.is_allocated(f.value()));
  EXPECT_EQ(pm.stats().allocated_frames, 1u);
  pm.free_frame(f.value());
  EXPECT_FALSE(pm.is_allocated(f.value()));
  EXPECT_EQ(pm.stats().allocated_frames, 0u);
}

TEST(PhysMemTest, ExhaustionReturnsEnomem) {
  PhysMem pm(2);
  auto a = pm.alloc_frame();
  auto b = pm.alloc_frame();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = pm.alloc_frame();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.error(), Errno::kENOMEM);
}

/// True when every byte of frame `pfn` equals `v`.
bool frame_filled(const PhysMem& pm, Pfn pfn, std::byte v) {
  const std::byte* d = pm.frame_data(pfn);
  return std::all_of(d, d + kPageSize, [v](std::byte b) { return b == v; });
}

TEST(PhysMemTest, FramesZeroedOnAlloc) {
  PhysMem pm(4);
  auto f = pm.alloc_frame();
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(frame_filled(pm, f.value(), std::byte{0}));
  std::memset(pm.frame_data(f.value()), 0xAB, kPageSize);
  pm.free_frame(f.value());
  EXPECT_TRUE(frame_filled(pm, f.value(), std::byte{0x5a}));  // poisoned
  auto g = pm.alloc_frame();
  ASSERT_TRUE(g.ok());
  // Low frames are preferred, so the dirtied frame comes straight back;
  // every byte of it must read zero.
  ASSERT_EQ(g.value(), f.value());
  EXPECT_TRUE(frame_filled(pm, g.value(), std::byte{0}));
}

TEST(PhysMemTest, ContiguousRunZeroedOverPoisonedFrames) {
  PhysMem pm(8);
  std::vector<Pfn> singles;
  for (int i = 0; i < 4; ++i) {
    auto f = pm.alloc_frame();
    ASSERT_TRUE(f.ok());
    std::memset(pm.frame_data(f.value()), 0xCD, kPageSize);
    singles.push_back(f.value());
  }
  for (Pfn f : singles) pm.free_frame(f);
  // First fit lands on the four freed, 0x5a-poisoned frames.
  auto run = pm.alloc_contiguous(4);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.value(), 0u);
  for (Pfn j = 0; j < 4; ++j) {
    EXPECT_TRUE(frame_filled(pm, run.value() + j, std::byte{0}))
        << "frame " << j;
  }
}

TEST(PhysMemTest, ContiguousAllocation) {
  PhysMem pm(32);
  auto first = pm.alloc_contiguous(8);
  ASSERT_TRUE(first.ok());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(pm.is_allocated(static_cast<Pfn>(first.value() + i)));
  }
  pm.free_contiguous(first.value(), 8);
  EXPECT_EQ(pm.stats().allocated_frames, 0u);
}

TEST(PhysMemTest, PeakTracksHighWater) {
  PhysMem pm(8);
  auto a = pm.alloc_frame();
  auto b = pm.alloc_frame();
  pm.free_frame(a.value());
  pm.free_frame(b.value());
  EXPECT_EQ(pm.stats().peak_allocated, 2u);
}

// --- AddressSpace -----------------------------------------------------------------------

class AddressSpaceTest : public ::testing::Test {
 protected:
  AddressSpaceTest() : pm_(256), as_(pm_, "test") {}

  VAddr map_one(VAddr va, bool r = true, bool w = true) {
    auto f = pm_.alloc_frame();
    EXPECT_TRUE(f.ok());
    as_.map_page(va, f.value(), r, w);
    return va;
  }

  PhysMem pm_;
  AddressSpace as_;
};

TEST_F(AddressSpaceTest, StoreLoadRoundTrip) {
  VAddr va = map_one(0x10000);
  std::uint64_t v = 0xDEADBEEFCAFEF00Dull;
  ASSERT_EQ(as_.write(va + 8, v), Errno::kOk);
  auto r = as_.read<std::uint64_t>(va + 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), v);
}

TEST_F(AddressSpaceTest, CrossPageAccess) {
  map_one(0x20000);
  map_one(0x21000);
  std::vector<std::uint8_t> out(256);
  std::vector<std::uint8_t> in(256);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<std::uint8_t>(i);
  // Write spanning the page boundary.
  ASSERT_EQ(as_.store(0x21000 - 128, in.data(), in.size()), Errno::kOk);
  ASSERT_EQ(as_.load(0x21000 - 128, out.data(), out.size()), Errno::kOk);
  EXPECT_EQ(in, out);
}

TEST_F(AddressSpaceTest, UnmappedAccessFaults) {
  std::uint8_t b = 0;
  EXPECT_EQ(as_.load(0x999000, &b, 1), Errno::kEFAULT);
  EXPECT_EQ(as_.stats().fatal_faults, 1u);
}

TEST_F(AddressSpaceTest, WriteToReadOnlyFaults) {
  VAddr va = map_one(0x30000, /*r=*/true, /*w=*/false);
  std::uint8_t b = 7;
  EXPECT_EQ(as_.store(va, &b, 1), Errno::kEFAULT);
  EXPECT_EQ(as_.load(va, &b, 1), Errno::kOk);
}

TEST_F(AddressSpaceTest, GuardPageFaultsOnAnyAccess) {
  as_.map_guard(0x40000);
  std::uint8_t b = 0;
  EXPECT_EQ(as_.load(0x40000, &b, 1), Errno::kEFAULT);
  EXPECT_EQ(as_.store(0x40010, &b, 1), Errno::kEFAULT);
}

TEST_F(AddressSpaceTest, FaultHandlerSeesGuardKind) {
  as_.map_guard(0x50000);
  Fault seen{};
  as_.set_fault_handler([&](const Fault& f) {
    seen = f;
    return FaultResolution::kFatal;
  });
  std::uint8_t b = 0;
  EXPECT_EQ(as_.store(0x50004, &b, 1), Errno::kEFAULT);
  EXPECT_EQ(seen.kind, FaultKind::kGuard);
  EXPECT_EQ(seen.access, Access::kWrite);
  EXPECT_EQ(seen.addr, 0x50004u);
}

TEST_F(AddressSpaceTest, HandlerCanRepairAndRetry) {
  as_.map_guard(0x60000);
  int faults = 0;
  as_.set_fault_handler([&](const Fault& f) {
    ++faults;
    EXPECT_EQ(as_.promote_guard(f.addr, true, true), Errno::kOk);
    return FaultResolution::kRetry;
  });
  std::uint64_t v = 42;
  EXPECT_EQ(as_.write(0x60000, v), Errno::kOk);
  EXPECT_EQ(faults, 1);
  auto r = as_.read<std::uint64_t>(0x60000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42u);
}

TEST_F(AddressSpaceTest, PromoteGuardRejectsNonGuard) {
  VAddr va = map_one(0x70000);
  EXPECT_EQ(as_.promote_guard(va, true, true), Errno::kEINVAL);
  EXPECT_EQ(as_.promote_guard(0x71000, true, true), Errno::kEINVAL);
}

TEST_F(AddressSpaceTest, UnmapInvalidatesTranslation) {
  VAddr va = map_one(0x80000);
  std::uint8_t b = 1;
  ASSERT_EQ(as_.store(va, &b, 1), Errno::kOk);
  as_.unmap_page(va);
  EXPECT_EQ(as_.load(va, &b, 1), Errno::kEFAULT);
}

TEST_F(AddressSpaceTest, TlbHitsOnRepeatedAccess) {
  VAddr va = map_one(0x90000);
  std::uint8_t b = 0;
  ASSERT_EQ(as_.load(va, &b, 1), Errno::kOk);  // miss
  std::uint64_t misses_after_first = as_.tlb_stats().misses;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(as_.load(va + static_cast<VAddr>(i), &b, 1), Errno::kOk);
  }
  EXPECT_EQ(as_.tlb_stats().misses, misses_after_first);  // all hits
  EXPECT_GE(as_.tlb_stats().hits, 100u);
}

TEST_F(AddressSpaceTest, TlbFlushForcesWalks) {
  VAddr va = map_one(0xA0000);
  std::uint8_t b = 0;
  ASSERT_EQ(as_.load(va, &b, 1), Errno::kOk);
  std::uint64_t walks = as_.tlb_stats().walks;
  as_.tlb_flush();
  ASSERT_EQ(as_.load(va, &b, 1), Errno::kOk);
  EXPECT_EQ(as_.tlb_stats().walks, walks + 1);
}

TEST_F(AddressSpaceTest, TlbContentionAcrossManyPages) {
  // Touch more pages than TLB entries; every revisit misses.
  constexpr int kPages = 256;  // > 64-entry TLB
  for (int i = 0; i < kPages; ++i) {
    map_one(0x100000 + static_cast<VAddr>(i) * kPageSize);
  }
  std::uint8_t b = 0;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kPages; ++i) {
      ASSERT_EQ(as_.load(0x100000 + static_cast<VAddr>(i) * kPageSize, &b, 1),
                Errno::kOk);
    }
  }
  // With a 64-entry direct-mapped TLB and a 256-page working set, hits
  // should be rare.
  EXPECT_GT(as_.tlb_stats().misses, as_.tlb_stats().hits);
}

TEST_F(AddressSpaceTest, FillWritesPattern) {
  VAddr va = map_one(0xB0000);
  ASSERT_EQ(as_.fill(va, 0x5A, 64), Errno::kOk);
  std::uint8_t out[64];
  ASSERT_EQ(as_.load(va, out, sizeof(out)), Errno::kOk);
  for (std::uint8_t v : out) EXPECT_EQ(v, 0x5A);
}

// Property: random mapped/unmapped patterns behave like a reference model.
TEST(AddressSpaceProperty, RandomAccessAgreesWithShadow) {
  PhysMem pm(512);
  AddressSpace as(pm, "prop");
  base::Rng rng(11);
  constexpr int kPages = 64;
  std::vector<bool> mapped(kPages, false);
  std::vector<std::vector<std::uint8_t>> shadow(
      kPages, std::vector<std::uint8_t>(kPageSize, 0));

  for (int i = 0; i < kPages; ++i) {
    if (rng.chance(2, 3)) {
      auto f = pm.alloc_frame();
      ASSERT_TRUE(f.ok());
      as.map_page(static_cast<VAddr>(i) * kPageSize, f.value(), true, true);
      mapped[i] = true;
    }
  }
  for (int step = 0; step < 5000; ++step) {
    int page = static_cast<int>(rng.below(kPages));
    std::size_t off = rng.below(kPageSize - 8);
    VAddr va = static_cast<VAddr>(page) * kPageSize + off;
    if (rng.chance(1, 2)) {
      std::uint64_t v = rng.next();
      Errno e = as.write(va, v);
      if (mapped[page]) {
        ASSERT_EQ(e, Errno::kOk);
        std::memcpy(shadow[page].data() + off, &v, 8);
      } else {
        ASSERT_EQ(e, Errno::kEFAULT);
      }
    } else {
      auto r = as.read<std::uint64_t>(va);
      if (mapped[page]) {
        ASSERT_TRUE(r.ok());
        std::uint64_t expect;
        std::memcpy(&expect, shadow[page].data() + off, 8);
        ASSERT_EQ(r.value(), expect);
      } else {
        ASSERT_FALSE(r.ok());
      }
    }
  }
}

}  // namespace
}  // namespace usk::vm
