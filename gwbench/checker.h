// Verdict checker for the gateway benchmark's streaming phases.
//
// The engine delivers verdicts on its worker threads through a VerdictSink.
// StreamChecker is that sink's back end: every delivered verdict is compared
// with the sequential linear-scan oracle, frames are counted per delivering
// thread (one slot per worker, so the counters are never shared between
// cores), a sample of frames records its due→verdict latency, and live rule
// swaps are observed from the verdicts themselves.
//
// A swap to rule set S counts as taken effect on a worker when that worker
// delivers a verdict that S gives and the other rule set does not; the
// swap's effect time is the latest such first observation over all workers,
// measured from the start of the install call. Producers issue the next
// swap only once the previous one shows on every worker or kSwapTimeoutNs
// has passed; a swap some worker has not shown by then is a failed swap.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "p4/switch.h"
#include "packet/packet.h"

namespace gwbench {

/// Monotonic nanoseconds (steady_clock).
std::uint64_t now_ns() noexcept;

/// Same action and same winning entry: the benchmark's notion of equal.
inline bool same_verdict(const p4iot::p4::Verdict& a, const p4iot::p4::Verdict& b) {
  return a.action == b.action && a.entry_index == b.entry_index;
}

/// Reference verdicts of every replay frame under rule sets A and B.
struct Oracle {
  std::span<const p4iot::pkt::Packet> replay;
  std::span<const p4iot::p4::Verdict> a;
  std::span<const p4iot::p4::Verdict> b;  ///< empty when the phase never swaps
};

/// What one stream session delivered, merged over the delivering threads.
struct StreamTally {
  std::uint64_t delivered = 0;
  std::uint64_t mismatched = 0;       ///< verdict matched neither allowed oracle
  std::vector<std::uint64_t> per_worker;  ///< frames delivered per sink thread
  std::vector<std::uint32_t> latency_ns;  ///< sampled due→verdict delays
  std::uint64_t swaps = 0;                ///< swaps issued in the session
  std::uint64_t swaps_failed = 0;         ///< never observed on every worker
  std::vector<double> swap_effect_us;     ///< one per observed swap
};

/// Failures of one stream session; every one counts against the run.
struct SessionFailures {
  std::uint64_t mismatched = 0;    ///< wrong verdicts, or frames never pushed
  std::uint64_t lost = 0;          ///< pushed, neither delivered nor shed
  std::uint64_t shed = 0;          ///< dropped by ring backpressure
  std::uint64_t swaps_failed = 0;  ///< swaps some worker never showed
  std::uint64_t total() const { return mismatched + lost + shed + swaps_failed; }
};

/// Account a session: `pushed` frames went in, the engine reports `shed` of
/// them dropped, and the checker saw `tally`.
SessionFailures session_failures(const StreamTally& tally, std::uint64_t pushed,
                                 std::uint64_t shed);

class StreamChecker {
 public:
  /// Every `kLatencySampleEvery`-th frame (by sequence number) records its
  /// latency; sampling by sequence is independent of the verdict.
  static constexpr std::uint64_t kLatencySampleEvery = 8;
  static constexpr std::size_t kMaxSlots = 64;
  static constexpr std::size_t kMaxSwaps = 8192;
  static constexpr std::uint64_t kSwapTimeoutNs = 1'000'000'000;

  /// `workers` is the engine's worker count: a swap is complete only once
  /// that many threads have shown it. `seq_base` is the engine's stream
  /// sequence number of this session's first push. `open_loop_pps` > 0 gives
  /// frame k the due time start_ns + k / rate; 0 means closed loop, where a
  /// frame is due when the push of its chunk begins (see mark_chunk).
  StreamChecker(Oracle oracle, std::size_t workers, std::uint64_t seq_base,
                std::uint64_t start_ns, double open_loop_pps);

  StreamChecker(const StreamChecker&) = delete;
  StreamChecker& operator=(const StreamChecker&) = delete;

  /// The sink body; safe to call concurrently from worker threads.
  void on_verdict(std::uint64_t seq, const p4iot::pkt::Packet& frame,
                  const p4iot::p4::Verdict& verdict);

  /// Closed loop: frames [chunk * kChunk, (chunk + 1) * kChunk) of the
  /// session became due at `due_ns`. Call before pushing the chunk.
  static constexpr std::uint64_t kChunk = 2048;
  void mark_chunk(std::uint64_t chunk, std::uint64_t due_ns);

  /// Producer side of a swap: call just before install_rules(). `to_b`
  /// names the rule set being installed. Accepting B's verdicts starts here.
  void begin_swap(bool to_b, std::uint64_t start_ns);

  /// Producer side: true when the latest swap shows on every worker or has
  /// timed out by `now_ns`, so the next swap (or the session end) may come.
  /// True before the first swap.
  bool swap_settled(std::uint64_t now_ns) const;

  /// Merge the slots. Only valid once the engine has flushed the session.
  StreamTally tally() const;

 private:
  struct alignas(64) Slot {
    std::uint64_t delivered = 0;
    std::uint64_t mismatched = 0;
    std::int64_t last_seen_swap = -1;
    std::vector<std::uint32_t> latency_ns;
    std::vector<std::uint64_t> seen_ns;  ///< first new-only verdict per swap
  };
  Slot& slot_for_this_thread();

  Oracle oracle_;
  std::size_t workers_;
  std::uint64_t seq_base_;
  std::uint64_t start_ns_;
  double ns_per_frame_;  ///< open loop: 1e9 / rate; 0 in closed loop
  std::uint64_t id_;     ///< distinguishes checkers in the thread-local cache

  static constexpr std::size_t kDueRing = 64;
  std::array<std::atomic<std::uint64_t>, kDueRing> chunk_due_ns_{};

  /// (swap index << 1) | installs-B, or -1 before the first swap: one word,
  /// so a sink never pairs one swap's index with another's target.
  std::atomic<std::int64_t> swap_state_{-1};
  std::vector<std::uint64_t> swap_start_ns_;  ///< producer-owned
  /// Workers that have shown each swap, for swap_settled().
  std::array<std::atomic<std::uint32_t>, kMaxSwaps> swap_seen_by_{};

  std::atomic<std::size_t> slots_used_{0};
  std::array<Slot, kMaxSlots> slots_;
};

}  // namespace gwbench
