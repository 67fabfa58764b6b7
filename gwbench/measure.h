// Timed phases of the gateway benchmark.
//
// A measurement is a number of half-second rounds; each round gives the three
// dataplane paths a time slice, one after another, so slow drift on a shared
// host lands on all three alike:
//   stream  DataplaneEngine start_stream / stream_push / stop_stream, fed by
//           this (the main) thread: closed loop in 2048-frame chunks with
//           blocking backpressure, or open loop at the workload's offered
//           rate;
//   batch   DataplaneEngine::process_batch in 2048-frame calls;
//   switch  one P4Switch::process_batch (flow cache on) in 2048-frame calls,
//           the single-thread baseline.
// Every verdict of every path is checked against the linear-scan oracle.
//
// The stream slice takes half of each round, the others a quarter each.
// Throughput and latency figures are medians over the slices: short slices
// give them many samples of a shared host's drifts.
//
// Rule swaps: on a live-swap workload every path alternates rule sets A and
// B every kSwapPeriodMs beside its reads. Closed-loop workloads instead end
// each stream slice with an untimed swap probe: kProbeSwaps stream sessions
// of one swap each, A to B, B to A and so on. A session streams for
// kProbeSpacingMs, drains the rings, swaps, and streams on until every worker
// shows the swap. One swap per session keeps every probed publish alike:
// with four swaps in one session the later ones varied more, and on ble_hot
// the run's median publish spread about four times as wide across seeds.
// Sustained swapping within one session is what the live-swap workload
// measures. Either way the swap figures come from install_rules calls made
// while the stream is open.
#pragma once

#include <cstdint>
#include <vector>

#include "checker.h"
#include "trace.h"
#include "workload.h"

namespace gwbench {

inline constexpr std::uint64_t kSwapPeriodMs = 100;
inline constexpr std::size_t kProbeSwaps = 4;  ///< even: the probe ends on A
inline constexpr std::uint64_t kProbeSpacingMs = 10;
/// Frames per stream_push / process_batch call in the closed loops.
inline constexpr std::size_t kChunk = StreamChecker::kChunk;
/// Longest burst the open-loop generator pushes in one call when late.
inline constexpr std::size_t kMaxBurst = 256;

struct Measurement {
  std::size_t rounds = 0;
  // One value per slice, so one per round. The run reports medians, so a
  // slice the host stalled cannot move a figure of the whole run.
  std::vector<double> engine_pps;
  std::vector<double> batch_pps;
  std::vector<double> switch_pps;
  /// Engine CPU ns per frame in the stream slice: the engine's threads plus
  /// the producer's time inside stream_push.
  std::vector<double> engine_cpu_ns;
  std::vector<double> batch_cpu_ns;    ///< process CPU ns per frame, batch
  std::vector<double> latency_p50_us;  ///< of the slice's sampled delays
  std::vector<double> latency_p99_us;
  std::vector<double> lag_p99_us;      ///< generator lateness
  std::vector<double> worker_skew;
  std::uint64_t latency_samples = 0;
  // Pooled over the rounds.
  std::vector<double> publish_us;  ///< live-stream install_rules calls
  std::vector<double> effect_us;   ///< per swap seen on every worker
  /// Share of the host CPU time the hypervisor gave to other guests while
  /// the rounds ran: context for reading a noisy run, not a result.
  double host_steal = 0.0;

  std::uint64_t push_ns = 0;         ///< producer time inside stream_push
  std::uint64_t pushed_frames = 0;   ///< timed stream sessions
  std::uint64_t push_window_ns = 0;  ///< time the generator was offering
  p4iot::p4::FlowCacheStats cache;   ///< engine, timed stream sessions
  std::uint64_t ring_dropped = 0;

  // Correctness, over everything the phases attempted.
  std::uint64_t attempted = 0;   ///< frames sent down any path + swaps
  std::uint64_t mismatched = 0;  ///< verdict differs from the oracle
  std::uint64_t lost = 0;        ///< pushed but never delivered
  std::uint64_t shed = 0;        ///< dropped by ring backpressure
  std::uint64_t swaps = 0;       ///< live-stream swaps issued
  std::uint64_t swaps_failed = 0;
  std::uint64_t failed() const { return mismatched + lost + shed + swaps_failed; }
};

/// Run rounds for `seconds` in total. Spans go to `tracer`.
Measurement measure(Setup& setup, double seconds, Tracer& tracer);

/// Layer probes of the traced run, on the first kLayerProbeFrames replay
/// frames: ParserSpec::extract_into per frame, and MatchActionTable::peek on
/// the extracted keys with the linear and the compiled backend. Lookups are
/// checked against the oracle; a parse pass against an untimed extraction.
inline constexpr std::size_t kLayerProbeFrames = 16384;
inline constexpr std::size_t kLayerProbePasses = 3;
struct LayerProbe {
  double parse_ns = 0.0;     ///< per frame, median pass
  double linear_ns = 0.0;    ///< per lookup, median pass
  double compiled_ns = 0.0;  ///< per lookup, median pass
  std::size_t groups = 0;    ///< compiled tuple-space groups over rule set A
};
LayerProbe probe_layers(const Setup& setup, Tracer& tracer, Measurement& m);

/// q-quantile, interpolating between closest ranks; 0 for no samples.
double quantile(std::vector<double> values, double q);

}  // namespace gwbench
