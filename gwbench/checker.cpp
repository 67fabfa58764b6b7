#include "checker.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace gwbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::atomic<std::uint64_t> g_next_checker_id{1};

/// Which slot of which checker this thread writes. Re-resolved when a new
/// checker (new session) sees the thread for the first time.
struct ThreadSlot {
  std::uint64_t checker_id = 0;
  void* slot = nullptr;
};
thread_local ThreadSlot t_slot;

constexpr std::size_t kLatencyReserve = std::size_t{1} << 17;

}  // namespace

SessionFailures session_failures(const StreamTally& tally, std::uint64_t pushed,
                                 std::uint64_t shed) {
  SessionFailures f;
  f.mismatched = tally.mismatched;
  f.shed = shed;
  f.swaps_failed = tally.swaps_failed;
  const std::uint64_t arrived = tally.delivered + shed;
  if (arrived > pushed)
    f.mismatched += arrived - pushed;  // delivered a frame nobody pushed
  else
    f.lost = pushed - arrived;
  return f;
}

StreamChecker::StreamChecker(Oracle oracle, std::size_t workers,
                             std::uint64_t seq_base, std::uint64_t start_ns,
                             double open_loop_pps)
    : oracle_(oracle),
      workers_(workers),
      seq_base_(seq_base),
      start_ns_(start_ns),
      ns_per_frame_(open_loop_pps > 0.0 ? 1e9 / open_loop_pps : 0.0),
      id_(g_next_checker_id.fetch_add(1)) {
  if (oracle_.a.size() != oracle_.replay.size() ||
      (!oracle_.b.empty() && oracle_.b.size() != oracle_.replay.size()))
    throw std::invalid_argument("StreamChecker: oracle does not cover the replay");
  if (workers_ == 0 || workers_ > kMaxSlots)
    throw std::invalid_argument("StreamChecker: worker count out of range");
  // Slots the engine's workers will claim are sized here, on the producer
  // thread, so a worker's first verdict does not allocate.
  for (std::size_t i = 0; i < workers_; ++i) {
    slots_[i].latency_ns.reserve(kLatencyReserve);
    slots_[i].seen_ns.assign(kMaxSwaps, 0);
  }
  for (auto& due : chunk_due_ns_) due.store(start_ns, std::memory_order_relaxed);
  swap_start_ns_.reserve(kMaxSwaps);
}

StreamChecker::Slot& StreamChecker::slot_for_this_thread() {
  if (t_slot.checker_id != id_) {
    const std::size_t index = slots_used_.fetch_add(1);
    if (index >= kMaxSlots)
      throw std::runtime_error("StreamChecker: more sink threads than slots");
    Slot& slot = slots_[index];
    if (slot.seen_ns.empty()) slot.seen_ns.assign(kMaxSwaps, 0);
    t_slot = {id_, &slot};
  }
  return *static_cast<Slot*>(t_slot.slot);
}

void StreamChecker::on_verdict(std::uint64_t seq, const p4iot::pkt::Packet& frame,
                               const p4iot::p4::Verdict& verdict) {
  Slot& slot = slot_for_this_thread();
  ++slot.delivered;

  // Frames are pushed by reference to replay elements, so the address names
  // the frame; anything else is a corrupted delivery.
  const auto* first = oracle_.replay.data();
  if (&frame < first || &frame >= first + oracle_.replay.size()) {
    ++slot.mismatched;
    return;
  }
  const auto index = static_cast<std::size_t>(&frame - first);
  const auto& want_a = oracle_.a[index];

  const std::int64_t state = swap_state_.load(std::memory_order_acquire);
  if (state < 0 || oracle_.b.empty()) {
    if (!same_verdict(verdict, want_a)) ++slot.mismatched;
  } else {
    const auto& want_b = oracle_.b[index];
    const bool is_a = same_verdict(verdict, want_a);
    const bool is_b = same_verdict(verdict, want_b);
    if (!is_a && !is_b) {
      ++slot.mismatched;
    } else {
      const std::int64_t swap = state >> 1;
      const bool to_b = (state & 1) != 0;
      // Only a verdict the old rule set cannot give proves adoption.
      if (slot.last_seen_swap < swap && is_a != is_b && is_b == to_b) {
        slot.seen_ns[static_cast<std::size_t>(swap)] = now_ns();
        slot.last_seen_swap = swap;
        swap_seen_by_[static_cast<std::size_t>(swap)].fetch_add(1, std::memory_order_release);
      }
    }
  }

  const std::uint64_t k = seq - seq_base_;
  if (k % kLatencySampleEvery == 0) {
    const std::uint64_t due =
        ns_per_frame_ > 0.0
            ? start_ns_ + static_cast<std::uint64_t>(static_cast<double>(k) * ns_per_frame_)
            : chunk_due_ns_[(k / kChunk) % kDueRing].load(std::memory_order_relaxed);
    const std::uint64_t now = now_ns();
    const std::uint64_t delay = now > due ? now - due : 0;
    slot.latency_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(delay, std::numeric_limits<std::uint32_t>::max())));
  }
}

void StreamChecker::mark_chunk(std::uint64_t chunk, std::uint64_t due_ns) {
  chunk_due_ns_[chunk % kDueRing].store(due_ns, std::memory_order_relaxed);
}

void StreamChecker::begin_swap(bool to_b, std::uint64_t start_ns) {
  if (oracle_.b.empty())
    throw std::logic_error("StreamChecker: swap without a B oracle");
  if (swap_start_ns_.size() >= kMaxSwaps)
    throw std::length_error("StreamChecker: too many swaps in one session");
  const auto index = static_cast<std::int64_t>(swap_start_ns_.size());
  swap_start_ns_.push_back(start_ns);
  swap_state_.store((index << 1) | (to_b ? 1 : 0), std::memory_order_release);
}

bool StreamChecker::swap_settled(std::uint64_t now_ns) const {
  if (swap_start_ns_.empty()) return true;
  const std::size_t k = swap_start_ns_.size() - 1;
  return swap_seen_by_[k].load(std::memory_order_acquire) >= workers_ ||
         now_ns - swap_start_ns_[k] >= kSwapTimeoutNs;
}

StreamTally StreamChecker::tally() const {
  StreamTally t;
  const std::size_t used = std::min(slots_used_.load(), kMaxSlots);
  std::size_t samples = 0;
  for (std::size_t i = 0; i < used; ++i) samples += slots_[i].latency_ns.size();
  t.latency_ns.reserve(samples);
  for (std::size_t i = 0; i < used; ++i) {
    const Slot& s = slots_[i];
    t.delivered += s.delivered;
    t.mismatched += s.mismatched;
    t.per_worker.push_back(s.delivered);
    t.latency_ns.insert(t.latency_ns.end(), s.latency_ns.begin(), s.latency_ns.end());
  }
  t.swaps = swap_start_ns_.size();
  for (std::size_t k = 0; k < swap_start_ns_.size(); ++k) {
    std::size_t seen = 0;
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < used; ++i) {
      const std::uint64_t at = slots_[i].seen_ns[k];
      if (at == 0) continue;
      ++seen;
      last = std::max(last, at);
    }
    if (seen < workers_) {
      ++t.swaps_failed;
    } else {
      t.swap_effect_us.push_back(
          static_cast<double>(last - std::min(last, swap_start_ns_[k])) / 1e3);
    }
  }
  return t;
}

}  // namespace gwbench
