// The benchmark's own tests: the checker catches what it must catch, and
// every workload delivers every frame it pushes with no failure.
#include <gtest/gtest.h>

#include <thread>

#include "checker.h"
#include "measure.h"
#include "workload.h"

namespace gwbench {
namespace {

namespace p4 = p4iot::p4;
namespace pkt = p4iot::pkt;

/// Ten frames; rule set A matches entry i % 3, B differs on odd frames.
struct Fixture {
  std::vector<pkt::Packet> replay = std::vector<pkt::Packet>(10);
  std::vector<p4::Verdict> a, b;
  Fixture() {
    for (std::size_t i = 0; i < replay.size(); ++i) {
      p4::Verdict va;
      va.action = p4::ActionOp::kDrop;
      va.entry_index = static_cast<std::int64_t>(i % 3);
      p4::Verdict vb = va;
      if (i % 2 == 1) vb.entry_index += 10;
      a.push_back(va);
      b.push_back(vb);
    }
  }
  Oracle oracle(bool with_b) const {
    return {replay, a, with_b ? std::span<const p4::Verdict>(b) : std::span<const p4::Verdict>()};
  }
};

TEST(StreamChecker, AcceptsTheOracle) {
  Fixture fx;
  StreamChecker checker(fx.oracle(false), 1, 0, now_ns(), 0.0);
  for (std::size_t i = 0; i < fx.replay.size(); ++i) checker.on_verdict(i, fx.replay[i], fx.a[i]);
  const auto t = checker.tally();
  EXPECT_EQ(t.delivered, 10u);
  EXPECT_EQ(session_failures(t, 10, 0).total(), 0u);
  EXPECT_EQ(t.latency_ns.size(), 2u);  // seq 0 and 8
}

TEST(StreamChecker, CatchesACorruptedVerdict) {
  Fixture fx;
  StreamChecker checker(fx.oracle(false), 1, 0, now_ns(), 0.0);
  for (std::size_t i = 0; i < fx.replay.size(); ++i) {
    p4::Verdict v = fx.a[i];
    if (i == 4) v.entry_index = 7;
    checker.on_verdict(i, fx.replay[i], v);
  }
  const auto f = session_failures(checker.tally(), 10, 0);
  EXPECT_EQ(f.mismatched, 1u);
  EXPECT_EQ(f.total(), 1u);
}

TEST(StreamChecker, CatchesAFrameFromOutsideTheReplay) {
  Fixture fx;
  const pkt::Packet stranger;
  StreamChecker checker(fx.oracle(false), 1, 0, now_ns(), 0.0);
  checker.on_verdict(0, stranger, fx.a[0]);
  EXPECT_EQ(checker.tally().mismatched, 1u);
}

TEST(StreamChecker, CatchesADroppedFrame) {
  Fixture fx;
  StreamChecker checker(fx.oracle(false), 1, 0, now_ns(), 0.0);
  for (std::size_t i = 0; i < fx.replay.size(); ++i)
    if (i != 6) checker.on_verdict(i, fx.replay[i], fx.a[i]);
  const auto f = session_failures(checker.tally(), 10, 0);
  EXPECT_EQ(f.lost, 1u);
  EXPECT_EQ(f.total(), 1u);
  // A frame the engine reports shed counts as shed, not lost.
  const auto shed = session_failures(checker.tally(), 10, 1);
  EXPECT_EQ(shed.lost, 0u);
  EXPECT_EQ(shed.shed, 1u);
  EXPECT_EQ(shed.total(), 1u);
}

TEST(StreamChecker, CatchesASwapThatNeverTakesEffect) {
  Fixture fx;
  StreamChecker checker(fx.oracle(true), 2, 0, now_ns(), 0.0);
  checker.begin_swap(/*to_b=*/true, now_ns());
  // Both workers keep giving A's verdicts: legal, but the swap never shows.
  auto deliver_a = [&](std::size_t from) {
    for (std::size_t i = from; i < fx.replay.size(); i += 2)
      checker.on_verdict(i, fx.replay[i], fx.a[i]);
  };
  std::thread w0(deliver_a, 0), w1(deliver_a, 1);
  w0.join();
  w1.join();
  const auto t = checker.tally();
  EXPECT_EQ(t.mismatched, 0u);
  EXPECT_EQ(t.swaps, 1u);
  EXPECT_EQ(t.swaps_failed, 1u);
  EXPECT_TRUE(t.swap_effect_us.empty());
  EXPECT_EQ(session_failures(t, 10, 0).total(), 1u);
}

TEST(StreamChecker, SwapSeenOnOneWorkerOnlyFails) {
  Fixture fx;
  StreamChecker checker(fx.oracle(true), 2, 0, now_ns(), 0.0);
  checker.begin_swap(true, now_ns());
  std::thread w0([&] { checker.on_verdict(1, fx.replay[1], fx.b[1]); });
  std::thread w1([&] { checker.on_verdict(2, fx.replay[2], fx.a[2]); });
  w0.join();
  w1.join();
  EXPECT_EQ(checker.tally().swaps_failed, 1u);
}

TEST(StreamChecker, SwapSeenOnEveryWorkerTakesEffect) {
  Fixture fx;
  StreamChecker checker(fx.oracle(true), 2, 0, now_ns(), 0.0);
  checker.begin_swap(true, now_ns());
  // Frame 0's verdict is the same under A and B: it proves nothing.
  std::thread w0([&] {
    checker.on_verdict(0, fx.replay[0], fx.b[0]);
    checker.on_verdict(1, fx.replay[1], fx.b[1]);
  });
  std::thread w1([&] { checker.on_verdict(3, fx.replay[3], fx.b[3]); });
  w0.join();
  w1.join();
  const auto t = checker.tally();
  EXPECT_EQ(t.swaps_failed, 0u);
  ASSERT_EQ(t.swap_effect_us.size(), 1u);
  EXPECT_GE(t.swap_effect_us[0], 0.0);
  EXPECT_EQ(t.per_worker.size(), 2u);
}

TEST(StreamChecker, OpenLoopLatencyRunsFromTheDueTime) {
  Fixture fx;
  const std::uint64_t start = now_ns();
  // 1000 pps: frame 8 is due 8 ms after the start, so it is not late yet.
  StreamChecker checker(fx.oracle(false), 1, 100, start, 1000.0);
  checker.on_verdict(100, fx.replay[0], fx.a[0]);
  checker.on_verdict(108, fx.replay[8], fx.a[8]);
  const auto t = checker.tally();
  ASSERT_EQ(t.latency_ns.size(), 2u);
  EXPECT_GT(t.latency_ns[0], 0u);
  EXPECT_EQ(t.latency_ns[1], 0u);
}

/// Every workload, briefly: each pushed frame is delivered, every verdict
/// matches the oracle, and every live swap is observed on every worker.
class Workloads : public ::testing::TestWithParam<const char*> {};

TEST_P(Workloads, DeliverEveryPushedFrame) {
  const WorkloadSpec* spec = find_workload(GetParam());
  ASSERT_NE(spec, nullptr);
  Tracer tracer(true);
  gwbench::Setup setup = set_up(*spec, 7, 3, tracer);
  const Measurement m = measure(setup, 1.0, tracer);
  EXPECT_EQ(m.rounds, 2u);
  EXPECT_EQ(m.latency_p99_us.size(), m.rounds);
  EXPECT_GT(m.pushed_frames, 0u);
  EXPECT_EQ(m.lost, 0u);
  EXPECT_EQ(m.shed, 0u);
  EXPECT_EQ(m.mismatched, 0u);
  EXPECT_GT(m.swaps, 0u);
  EXPECT_EQ(m.swaps_failed, 0u);
  EXPECT_EQ(m.effect_us.size(), m.swaps);
  EXPECT_EQ(m.engine_pps.size(), m.rounds);
  EXPECT_EQ(m.batch_pps.size(), m.rounds);
  EXPECT_EQ(m.switch_pps.size(), m.rounds);
  EXPECT_EQ(m.engine_cpu_ns.size(), m.rounds);
  EXPECT_EQ(m.batch_cpu_ns.size(), m.rounds);
  EXPECT_GT(m.engine_cpu_ns[0], 0.0);
  EXPECT_GT(m.latency_samples, 0u);
  Measurement probes;
  const LayerProbe layer = probe_layers(setup, tracer, probes);
  EXPECT_EQ(probes.failed(), 0u);
  EXPECT_GT(layer.groups, 0u);
}

INSTANTIATE_TEST_SUITE_P(All, Workloads,
                         ::testing::Values("ble_hot", "wifi_cold", "ble_swap"));

TEST(WorkloadSeeds, HeldOutSeedsAreNeverTrainingSeeds) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 43ull, 999999ull}) {
    const auto held = heldout_seed(seed);
    EXPECT_NE(held, kTrainSeed);
    EXPECT_NE(held, kRetrainSeed);
  }
  EXPECT_EQ(find_workload("nope"), nullptr);
}

}  // namespace
}  // namespace gwbench
