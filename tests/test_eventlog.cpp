// Tests for event-log persistence + offline replay (§3 "logging for later
// analysis") and run-time VM code modification (§3.5 binary patching).
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "cosy/vm.hpp"
#include "evmon/dispatcher.hpp"
#include "evmon/eventlog.hpp"
#include "evmon/monitors.hpp"

namespace usk {
namespace {

// --- event log -----------------------------------------------------------------

TEST(EventLogTest, RoundTripPreservesEverything) {
  evmon::LogWriter w;
  evmon::Event e1;
  e1.object = reinterpret_cast<void*>(0x1234);
  e1.type = evmon::EventType::kSpinLock;
  e1.file = "fs/dcache.c";
  e1.line = 42;
  e1.seq = 7;
  evmon::Event e2 = e1;
  e2.type = evmon::EventType::kSpinUnlock;
  e2.file = "fs/namei.c";
  e2.line = 99;
  e2.seq = 8;
  w.append(e1);
  w.append(e2);
  w.append(e1);  // file table reuses "fs/dcache.c"

  std::vector<std::uint8_t> image = w.serialize();
  evmon::LogReader r;
  ASSERT_TRUE(r.parse(image));
  ASSERT_EQ(r.records().size(), 3u);
  evmon::Event back = r.to_event(r.records()[0]);
  EXPECT_EQ(back.object, e1.object);
  EXPECT_EQ(back.type, e1.type);
  EXPECT_EQ(back.line, 42);
  EXPECT_STREQ(back.file, "fs/dcache.c");
  EXPECT_EQ(back.seq, 7u);
  EXPECT_STREQ(r.to_event(r.records()[1]).file, "fs/namei.c");
  EXPECT_STREQ(r.to_event(r.records()[2]).file, "fs/dcache.c");
}

TEST(EventLogTest, OfflineReplayFindsAnomalies) {
  // Record a session with a latent locking bug...
  evmon::Dispatcher d;
  evmon::LogWriter w;
  auto id = d.register_callback([&](const evmon::Event& e) { w.append(e); });
  void* lock = reinterpret_cast<void*>(0x10);
  d.log_event(lock, evmon::EventType::kSpinLock, "mod.c", 10);
  d.log_event(lock, evmon::EventType::kSpinUnlock, "mod.c", 12);
  d.log_event(lock, evmon::EventType::kSpinLock, "mod.c", 30);  // never freed
  d.unregister_callback(id);

  // ...and diagnose it later from the saved image.
  std::vector<std::uint8_t> image = w.serialize();
  evmon::LogReader r;
  ASSERT_TRUE(r.parse(image));
  evmon::SpinlockMonitor mon;
  r.replay(mon);
  mon.finish();
  ASSERT_EQ(mon.anomalies().size(), 1u);
  EXPECT_NE(mon.anomalies()[0].find("still held"), std::string::npos);
  EXPECT_NE(mon.anomalies()[0].find("mod.c:30"), std::string::npos);
}

TEST(EventLogTest, CorruptImagesRejected) {
  evmon::LogWriter w;
  evmon::Event e;
  e.file = "a.c";
  w.append(e);
  std::vector<std::uint8_t> good = w.serialize();

  evmon::LogReader r;
  EXPECT_FALSE(r.parse({}));  // empty
  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(r.parse(bad_magic));
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 5);
  EXPECT_FALSE(r.parse(truncated));

  // Random fuzz must never crash.
  base::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)r.parse(junk);
  }
  // And a valid image still parses after all that.
  EXPECT_TRUE(r.parse(good));
}

// --- VM run-time patching ------------------------------------------------------------

class SpliceTest : public ::testing::Test {
 protected:
  seg::DescriptorTable gdt_;
  sched::Scheduler sched_;
  base::WorkEngine engine_;
};

TEST_F(SpliceTest, SpliceRelocatesJumpTargets) {
  // sum 0..4 with a loop, then splice a no-op block before the loop body.
  cosy::VmAssembler a;
  a.loadi(0, 0).loadi(3, 0).loadi(4, 5);     // 0,1,2
  std::size_t loop = a.here();               // 3
  a.add(0, 3).addi(3, 1);                    // 3,4
  a.jlt(3, 4, static_cast<std::int64_t>(loop));  // 5
  a.ret();                                   // 6
  cosy::VmFunction f(a.take(), 64, cosy::SafetyMode::kDataSegmentOnly, gdt_,
                     "sum");
  sched_.enter(sched_.spawn("t"));

  auto run = [&] {
    auto r = f.run({}, sched_, engine_, nullptr);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value() : -1;
  };
  EXPECT_EQ(run(), 10);  // 0+1+2+3+4

  // Insert two no-ops at index 2 (before the loop head): the back-edge
  // target must shift from 3 to 5.
  const cosy::VmInstr nops[] = {
      {cosy::VmOp::kMov, 9, 9, 0},
      {cosy::VmOp::kMov, 9, 9, 0},
  };
  ASSERT_TRUE(f.splice(2, nops));
  EXPECT_EQ(f.code_size(), 9u);
  EXPECT_EQ(f.patches(), 1u);
  EXPECT_EQ(run(), 10);  // still correct
}

TEST_F(SpliceTest, SpliceOutOfRangeRejected) {
  cosy::VmAssembler a;
  a.ret();
  cosy::VmFunction f(a.take(), 64, cosy::SafetyMode::kDataSegmentOnly, gdt_,
                     "tiny");
  const cosy::VmInstr nop[] = {{cosy::VmOp::kMov, 0, 0, 0}};
  EXPECT_FALSE(f.splice(99, nop));
  EXPECT_EQ(f.patches(), 0u);
}

TEST_F(SpliceTest, EntryCounterInstrumentationCounts) {
  cosy::VmAssembler a;
  a.mov(0, 1).addi(0, 100).ret();
  cosy::VmFunction f(a.take(), 64, cosy::SafetyMode::kDataSegmentOnly, gdt_,
                     "instrumented");
  sched_.enter(sched_.spawn("t"));

  constexpr std::uint64_t kCounterOff = 32;
  ASSERT_TRUE(cosy::instrument_entry_counter(f, kCounterOff));

  for (int i = 0; i < 7; ++i) {
    auto r = f.run(std::array<std::int64_t, 1>{i}, sched_, engine_, nullptr);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), i + 100);  // semantics unchanged
  }
  std::int64_t counter = 0;
  ASSERT_EQ(f.peek(kCounterOff, &counter, sizeof(counter)), Errno::kOk);
  EXPECT_EQ(counter, 7);
}

TEST_F(SpliceTest, IsolatedSegmentRewrittenOnPatch) {
  cosy::VmAssembler a;
  a.loadi(0, 5).ret();
  cosy::VmFunction f(a.take(), 64, cosy::SafetyMode::kIsolatedSegments, gdt_,
                     "iso-patch");
  sched_.enter(sched_.spawn("t"));
  ASSERT_TRUE(cosy::instrument_entry_counter(f, 0));
  // Runs correctly from the rewritten execute-only segment.
  auto r = f.run({}, sched_, engine_, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  std::int64_t counter = 0;
  f.peek(0, &counter, sizeof(counter));
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(f.mode(), cosy::SafetyMode::kIsolatedSegments);
}

}  // namespace
}  // namespace usk
