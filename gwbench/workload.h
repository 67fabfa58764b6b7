// Workloads of the gateway benchmark and their set-up.
//
// Every workload enforces a rule set the system learned itself: the two-stage
// pipeline is fitted on the canonical training capture (seed 42, the seed the
// repository's experiments train on), exactly as a deployment would. Traffic
// is a held-out capture generated from the benchmark's --seed, never from a
// training seed, replayed in a seeded random order so that attack and benign
// frames interleave as they do when many devices share one gateway.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "p4/engine.h"
#include "trace.h"
#include "trafficgen/datasets.h"

namespace gwbench {

struct WorkloadSpec {
  const char* name;
  p4iot::gen::DatasetId radio;
  double heldout_duration_s;  ///< held-out capture length
  int heldout_devices;        ///< benign devices in the held-out capture
  /// Open-loop offered rate for the stream phase; 0 = closed loop.
  double offered_pps;
  /// Rule set A/B swaps every kSwapPeriodMs in every path, beside the reads.
  bool live_swaps;
};

/// Known workloads: ble_hot, wifi_cold, ble_swap. nullptr for others.
const WorkloadSpec* find_workload(std::string_view name);

/// Training captures: A is fitted on seed 42; B (the drift retrain) is
/// core::synthesize_rules on seed 43 over A's selected fields.
inline constexpr std::uint64_t kTrainSeed = 42;
inline constexpr std::uint64_t kRetrainSeed = 43;
/// Held-out capture seed for a benchmark seed; never a training seed.
std::uint64_t heldout_seed(std::uint64_t bench_seed);

struct SetupTimes {
  double gen_s = 0.0;      ///< all three captures plus the replay shuffle
  double fit_s = 0.0;      ///< TwoStagePipeline::fit (stage 1 + stage 2)
  double stage1_s = 0.0;   ///< from FitTimings
  double stage2_s = 0.0;   ///< from FitTimings
  double total_s = 0.0;    ///< also rule set B, engine start and switch
};

/// Everything a measurement needs; built by set_up().
struct Setup {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t heldout_seed = 0;
  p4iot::core::TwoStagePipeline pipeline;         ///< rule set A + program
  std::vector<p4iot::p4::TableEntry> rules_b;     ///< same program, refitted
  std::vector<p4iot::pkt::Packet> replay;         ///< held-out, replay order
  std::unique_ptr<p4iot::p4::DataplaneEngine> engine;  ///< A installed
  std::unique_ptr<p4iot::p4::P4Switch> sw;        ///< A installed, cache on
  /// Engine stream sequence numbers handed out so far (stream_push numbers
  /// frames from 0 over the engine's lifetime).
  std::uint64_t stream_seq = 0;
  SetupTimes times;

  // Untimed: reference verdicts from a sequential linear-scan P4Switch per
  // replay frame under A and under B, and the detection F1 of the fitted
  // pipeline on the training capture's test split.
  std::vector<p4iot::p4::Verdict> oracle_a;
  std::vector<p4iot::p4::Verdict> oracle_b;
  double detect_f1 = 0.0;

  const std::vector<p4iot::p4::TableEntry>& rules_a() const {
    return pipeline.rules().entries;
  }
};

/// Generate the captures, fit, synthesize B, build and load the engine
/// (`workers` replicas) and the single switch; then, untimed, compute the
/// oracle and F1. Spans go to `tracer`. Throws on any failed step.
Setup set_up(const WorkloadSpec& spec, std::uint64_t bench_seed,
             std::size_t workers, Tracer& tracer);

}  // namespace gwbench
