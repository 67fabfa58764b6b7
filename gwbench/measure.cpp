#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <string>

namespace gwbench {

namespace p4 = p4iot::p4;
namespace pkt = p4iot::pkt;

namespace {

constexpr std::uint64_t kMs = 1'000'000;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

/// Summed tick counters of all CPUs from /proc/stat; zero where unreadable.
CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const auto x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

std::uint64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
/// CPU time consumed by all of the process's threads.
std::uint64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU time consumed by the calling thread.
std::uint64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double per_second(std::uint64_t frames, std::uint64_t ns) {
  return ns ? static_cast<double>(frames) * 1e9 / static_cast<double>(ns) : 0.0;
}

p4::FlowCacheStats operator-(const p4::FlowCacheStats& a, const p4::FlowCacheStats& b) {
  return {a.hits - b.hits, a.misses - b.misses, a.insertions - b.insertions,
          a.invalidations - b.invalidations};
}
p4::FlowCacheStats& operator+=(p4::FlowCacheStats& a, const p4::FlowCacheStats& b) {
  a.hits += b.hits;
  a.misses += b.misses;
  a.insertions += b.insertions;
  a.invalidations += b.invalidations;
  return a;
}

void require_ok(p4::TableWriteStatus status) {
  if (status != p4::TableWriteStatus::kOk)
    throw std::runtime_error(std::string("install_rules: ") +
                             p4::table_write_status_name(status));
}

/// Stops an open stream on scope exit, so no worker calls into a checker
/// that an exception is about to destroy. Declare after the checker.
struct StreamGuard {
  p4::DataplaneEngine& engine;
  ~StreamGuard() {
    if (engine.streaming()) engine.stop_stream();
  }
};

class Phases {
 public:
  Phases(Setup& setup, Tracer& tracer, Measurement& m)
      : s_(setup), tr_(tracer), m_(m), eng_(*setup.engine),
        workers_(setup.engine->worker_count()) {}

  void closed_loop_stream(std::uint64_t slice_ns, std::size_t round);
  void swap_probe(std::size_t round);
  void open_loop_stream(std::uint64_t slice_ns, std::size_t round);
  void engine_batch(std::uint64_t slice_ns, std::size_t round);
  void single_switch(std::uint64_t slice_ns, std::size_t round);

 private:
  const std::vector<p4::TableEntry>& rules(bool b) const {
    return b ? s_.rules_b : s_.rules_a();
  }
  const std::vector<p4::Verdict>& oracle(bool b) const {
    return b ? s_.oracle_b : s_.oracle_a;
  }
  Oracle stream_oracle(bool with_b) const {
    return {s_.replay, s_.oracle_a, with_b ? std::span<const p4::Verdict>(s_.oracle_b)
                                           : std::span<const p4::Verdict>()};
  }
  /// Push `n` frames from the replay position, wrapping; returns the time
  /// spent inside stream_push. Its CPU time adds to push_cpu_ns_.
  std::uint64_t push(std::size_t n);
  /// Start a timed stream session's counters. Engine CPU is that of every
  /// thread but this one, plus this thread's time inside stream_push: the
  /// load generator's own work (and, in the open loop, its waiting for due
  /// times) is not the engine's.
  void begin_timed_session();
  double engine_cpu_ns_per_frame(std::uint64_t frames) const;
  /// Live swap on the streaming engine to rule set B or A: recorded,
  /// checked and timed. `to_b` is the swap as the checker sees it.
  void live_swap(StreamChecker& checker, bool to_b, bool install_b, std::uint64_t request);
  void start(StreamChecker& checker, std::size_t round);
  /// Flush, account the session, stop. `timed` sessions feed latency/skew.
  void finish(StreamChecker& checker, std::uint64_t pushed, bool timed,
              std::size_t round);
  /// One batched path's slice: replay in kChunk-frame calls to `process`,
  /// which returns the call's verdicts, with A/B swaps through `install` on
  /// a live-swap workload.
  template <class Install, class Process>
  void batched(const char* name, std::uint64_t slice_ns, Install install, Process process,
               std::vector<double>& pps, std::vector<double>* cpu_ns);
  /// Close a timed stream slice: throughput, engine CPU, generator lag and
  /// cache counters, from `begin` to the flush. `offered_until` ends the
  /// span the generator was pushing.
  void end_timed_session(std::uint64_t begin, std::uint64_t offered_until,
                         std::uint64_t frames, std::uint64_t inside,
                         const p4::FlowCacheStats& cache_before, std::size_t round);
  /// Check a batch of verdicts for replay [pos, pos + n) against `want`.
  void check(std::span<const p4::Verdict> got, std::size_t pos, std::size_t n,
             const std::vector<p4::Verdict>& want);

  Setup& s_;
  Tracer& tr_;
  Measurement& m_;
  p4::DataplaneEngine& eng_;
  std::size_t workers_;
  std::size_t pos_ = 0;  ///< replay position of the stream generator
  std::uint64_t process_cpu0_ = 0, thread_cpu0_ = 0, push_cpu_ns_ = 0;
  std::vector<double> lag_ns_;  ///< this slice's generator lateness per push
};

void Phases::begin_timed_session() {
  lag_ns_.clear();
  push_cpu_ns_ = 0;
  thread_cpu0_ = thread_cpu_ns();
  process_cpu0_ = process_cpu_ns();
}

double Phases::engine_cpu_ns_per_frame(std::uint64_t frames) const {
  const std::uint64_t others =
      (process_cpu_ns() - process_cpu0_) - (thread_cpu_ns() - thread_cpu0_);
  return static_cast<double>(others + push_cpu_ns_) /
         static_cast<double>(std::max<std::uint64_t>(1, frames));
}

void Phases::end_timed_session(std::uint64_t begin, std::uint64_t offered_until,
                               std::uint64_t frames, std::uint64_t inside,
                               const p4::FlowCacheStats& cache_before, std::size_t round) {
  {
    ScopedSpan span(tr_, "p4.engine.stream_flush", round);
    eng_.stream_flush();
  }
  m_.engine_pps.push_back(per_second(frames, now_ns() - begin));
  m_.engine_cpu_ns.push_back(engine_cpu_ns_per_frame(frames));
  m_.lag_p99_us.push_back(quantile(lag_ns_, 0.99) / 1e3);
  m_.push_ns += inside;
  m_.pushed_frames += frames;
  m_.push_window_ns += offered_until - begin;
  m_.cache += eng_.flow_cache_stats() - cache_before;
}

std::uint64_t Phases::push(std::size_t n) {
  const auto& replay = s_.replay;
  std::uint64_t inside = 0;
  while (n > 0) {
    const std::size_t take = std::min(n, replay.size() - pos_);
    const std::uint64_t cpu = thread_cpu_ns();
    const std::uint64_t t = now_ns();
    eng_.stream_push(std::span<const pkt::Packet>(replay).subspan(pos_, take));
    inside += now_ns() - t;
    push_cpu_ns_ += thread_cpu_ns() - cpu;
    s_.stream_seq += take;
    pos_ = (pos_ + take) % replay.size();
    n -= take;
  }
  return inside;
}

void Phases::live_swap(StreamChecker& checker, bool to_b, bool install_b,
                       std::uint64_t request) {
  const std::uint64_t t = now_ns();
  checker.begin_swap(to_b, t);
  p4::TableWriteStatus status;
  {
    ScopedSpan span(tr_, "p4.engine.install_rules", request);
    status = eng_.install_rules(rules(install_b));
    span.items = rules(install_b).size();
  }
  m_.publish_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
  require_ok(status);
}

void Phases::start(StreamChecker& checker, std::size_t round) {
  ScopedSpan span(tr_, "p4.engine.start_stream", round);
  eng_.start_stream([&checker](std::uint64_t seq, const pkt::Packet& frame,
                               const p4::Verdict& verdict) {
    checker.on_verdict(seq, frame, verdict);
  });
}

void Phases::finish(StreamChecker& checker, std::uint64_t pushed, bool timed,
                    std::size_t round) {
  const auto stats = eng_.stream_stats();
  for (std::size_t w = 0; w < workers_; ++w) m_.ring_dropped += eng_.ring_dropped(w);
  {
    ScopedSpan span(tr_, "p4.engine.stop_stream", round);
    eng_.stop_stream();
  }
  const StreamTally t = checker.tally();
  const SessionFailures f = session_failures(t, pushed, stats.dropped);
  m_.attempted += pushed + t.swaps;
  m_.mismatched += f.mismatched;
  m_.lost += f.lost;
  m_.shed += f.shed;
  m_.swaps += t.swaps;
  m_.swaps_failed += f.swaps_failed;
  m_.effect_us.insert(m_.effect_us.end(), t.swap_effect_us.begin(),
                      t.swap_effect_us.end());
  if (!timed) return;
  const std::vector<double> delays_us(t.latency_ns.begin(), t.latency_ns.end());
  m_.latency_p50_us.push_back(quantile(delays_us, 0.5) / 1e3);
  m_.latency_p99_us.push_back(quantile(delays_us, 0.99) / 1e3);
  m_.latency_samples += delays_us.size();
  // Skew over the engine's workers; a worker that delivered nothing counts.
  std::uint64_t most = 0;
  for (const auto n : t.per_worker) most = std::max(most, n);
  const double mean = static_cast<double>(t.delivered) / static_cast<double>(workers_);
  if (mean > 0.0) m_.worker_skew.push_back(static_cast<double>(most) / mean);
}

void Phases::closed_loop_stream(std::uint64_t slice_ns, std::size_t round) {
  const auto cache_before = eng_.flow_cache_stats();
  StreamChecker checker(stream_oracle(false), workers_, s_.stream_seq, now_ns(), 0.0);
  StreamGuard guard{eng_};
  ScopedSpan session(tr_, "p4.engine.stream", round);
  start(checker, round);
  begin_timed_session();
  const std::uint64_t begin = now_ns();
  std::uint64_t pushed = 0, chunk = 0, last = begin, inside = 0;
  for (std::uint64_t t = begin; t - begin < slice_ns; t = now_ns()) {
    // Closed loop: a chunk is due as soon as the previous push returned.
    lag_ns_.push_back(static_cast<double>(t - last));
    checker.mark_chunk(chunk, t);
    {
      ScopedSpan span(tr_, "p4.engine.stream_push", chunk);
      inside += push(kChunk);
      span.items = kChunk;
    }
    pushed += kChunk;
    ++chunk;
    last = now_ns();
  }
  end_timed_session(begin, last, pushed, inside, cache_before, round);
  finish(checker, pushed, /*timed=*/true, round);
  session.items = pushed;
}

void Phases::swap_probe(std::size_t round) {
  ScopedSpan probe(tr_, "p4.engine.swap_probe", round);
  bool on_b = false;
  for (std::size_t k = 0; k < kProbeSwaps; ++k) {
    // The checker takes its first oracle as the rule set installed when the
    // session opens and begin_swap(true) as the change to its second, so a
    // session that opens on B gets the oracles the other way round.
    const Oracle oracle = on_b ? Oracle{s_.replay, s_.oracle_b, s_.oracle_a}
                               : stream_oracle(true);
    StreamChecker checker(oracle, workers_, s_.stream_seq, now_ns(), 0.0);
    StreamGuard guard{eng_};
    ScopedSpan session(tr_, "p4.engine.swap_session", k);
    start(checker, round);
    std::uint64_t pushed = 0, chunk = 0;
    // Stream on the installed rules, drain the rings so the publish does
    // not compete with saturated workers and the effect does not include
    // draining full rings, swap, then stream until every worker shows it.
    for (int phase = 0; phase < 2; ++phase) {
      const std::uint64_t since = now_ns();
      for (std::uint64_t t = since;
           t - since < kProbeSpacingMs * kMs || !checker.swap_settled(t); t = now_ns()) {
        checker.mark_chunk(chunk++, t);
        push(kChunk);
        pushed += kChunk;
      }
      eng_.stream_flush();
      if (phase == 0) {
        on_b = !on_b;
        live_swap(checker, /*to_b=*/true, on_b, k);
      }
    }
    finish(checker, pushed, /*timed=*/false, round);
    session.items = pushed;
  }
}

void Phases::open_loop_stream(std::uint64_t slice_ns, std::size_t round) {
  const double ns_per_frame = 1e9 / s_.spec->offered_pps;
  const auto cache_before = eng_.flow_cache_stats();
  // Frame k is due at begin + k * ns_per_frame; begin leaves the stream a
  // millisecond to open.
  const std::uint64_t begin = now_ns() + kMs;
  StreamChecker checker(stream_oracle(true), workers_, s_.stream_seq, begin,
                        s_.spec->offered_pps);
  StreamGuard guard{eng_};
  ScopedSpan session(tr_, "p4.engine.stream", round);
  start(checker, round);
  begin_timed_session();
  const std::uint64_t end = begin + slice_ns;
  std::uint64_t next_swap = begin + kSwapPeriodMs * kMs;
  std::uint64_t sent = 0, inside = 0, swaps = 0;
  bool on_b = false;
  // A swap waits for the previous one to settle, and the slice runs past its
  // end only while the last swap has not settled.
  std::uint64_t now = now_ns();
  for (; now < end || !checker.swap_settled(now); now = now_ns()) {
    if (now >= next_swap && now < end && checker.swap_settled(now)) {
      on_b = !on_b;
      live_swap(checker, on_b, on_b, swaps++);
      next_swap = std::max(next_swap, now) + kSwapPeriodMs * kMs;
      continue;
    }
    if (now < begin) continue;
    const auto due = static_cast<std::uint64_t>(static_cast<double>(now - begin) / ns_per_frame) + 1;
    if (due <= sent) {
      cpu_relax();
      continue;
    }
    const std::uint64_t due_at =
        begin + static_cast<std::uint64_t>(static_cast<double>(sent) * ns_per_frame);
    lag_ns_.push_back(static_cast<double>(now - due_at));
    const auto burst = static_cast<std::size_t>(std::min<std::uint64_t>(due - sent, kMaxBurst));
    inside += push(burst);
    sent += burst;
  }
  end_timed_session(begin, std::max(end, now), sent, inside, cache_before, round);
  finish(checker, sent, /*timed=*/true, round);
  if (on_b) require_ok(eng_.install_rules(rules(false)));
  session.items = sent;
}

void Phases::check(std::span<const p4::Verdict> got, std::size_t pos, std::size_t n,
                   const std::vector<p4::Verdict>& want) {
  m_.attempted += n;
  if (got.size() < n) m_.lost += n - got.size();
  for (std::size_t i = 0; i < std::min(n, got.size()); ++i)
    if (!same_verdict(got[i], want[pos + i])) ++m_.mismatched;
}

template <class Install, class Process>
void Phases::batched(const char* name, std::uint64_t slice_ns, Install install,
                     Process process, std::vector<double>& pps,
                     std::vector<double>* cpu_ns) {
  const auto& replay = s_.replay;
  std::uint64_t frames = 0, busy = 0, cpu = 0, calls = 0;
  std::size_t pos = 0;
  bool on_b = false;
  const std::uint64_t begin = now_ns();
  std::uint64_t next_swap = begin + kSwapPeriodMs * kMs;
  for (std::uint64_t now = begin; now - begin < slice_ns; now = now_ns()) {
    if (s_.spec->live_swaps && now >= next_swap) {
      on_b = !on_b;
      install(rules(on_b));
      next_swap += kSwapPeriodMs * kMs;
    }
    const std::size_t n = std::min(kChunk, replay.size() - pos);
    const auto batch = std::span<const pkt::Packet>(replay).subspan(pos, n);
    std::span<const p4::Verdict> verdicts;
    const std::uint64_t c = process_cpu_ns();
    const std::uint64_t t = now_ns();
    {
      ScopedSpan span(tr_, name, calls++);
      verdicts = process(batch);
      span.items = n;
    }
    busy += now_ns() - t;
    cpu += process_cpu_ns() - c;
    check(verdicts, pos, n, oracle(on_b));
    frames += n;
    pos = (pos + n) % replay.size();
  }
  if (on_b) install(rules(false));
  pps.push_back(per_second(frames, busy));
  if (cpu_ns) cpu_ns->push_back(static_cast<double>(cpu) / static_cast<double>(frames));
}

void Phases::engine_batch(std::uint64_t slice_ns, std::size_t round) {
  ScopedSpan slice(tr_, "p4.engine.batch_slice", round);
  std::vector<p4::Verdict> out;
  batched(
      "p4.engine.process_batch", slice_ns,
      [&](const std::vector<p4::TableEntry>& entries) {
        ScopedSpan span(tr_, "p4.engine.install_rules_idle", round);
        require_ok(eng_.install_rules(entries));
      },
      [&](std::span<const pkt::Packet> batch) {
        eng_.process_batch(batch, out);
        return std::span<const p4::Verdict>(out);
      },
      m_.batch_pps, &m_.batch_cpu_ns);
}

void Phases::single_switch(std::uint64_t slice_ns, std::size_t round) {
  ScopedSpan slice(tr_, "p4.switch.slice", round);
  auto& sw = *s_.sw;
  std::vector<p4::Verdict> out(kChunk);
  batched(
      "p4.switch.process_batch", slice_ns,
      [&](const std::vector<p4::TableEntry>& entries) {
        ScopedSpan span(tr_, "p4.switch.install_rules", round);
        require_ok(sw.install_rules(entries));
      },
      [&](std::span<const pkt::Packet> batch) {
        const auto verdicts = std::span<p4::Verdict>(out).first(batch.size());
        sw.process_batch(batch, verdicts);
        return std::span<const p4::Verdict>(verdicts);
      },
      m_.switch_pps, nullptr);
}

}  // namespace

Measurement measure(Setup& setup, double seconds, Tracer& tracer) {
  Measurement m;
  // Half-second rounds, at least two.
  m.rounds = std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(seconds * 2.0)));
  const auto quarter_ns =
      static_cast<std::uint64_t>(seconds * 1e9 / (4.0 * static_cast<double>(m.rounds)));
  Phases phases(setup, tracer, m);
  const bool open_loop = setup.spec->offered_pps > 0.0;
  const CpuTicks before = cpu_ticks();
  for (std::size_t round = 0; round < m.rounds; ++round) {
    ScopedSpan span(tracer, "round", round);
    if (open_loop) {
      phases.open_loop_stream(2 * quarter_ns, round);
    } else {
      phases.closed_loop_stream(2 * quarter_ns, round);
      phases.swap_probe(round);
    }
    phases.engine_batch(quarter_ns, round);
    phases.single_switch(quarter_ns, round);
  }
  const CpuTicks after = cpu_ticks();
  if (after.total > before.total)
    m.host_steal = static_cast<double>(after.steal - before.steal) /
                   static_cast<double>(after.total - before.total);
  return m;
}

LayerProbe probe_layers(const Setup& setup, Tracer& tracer, Measurement& m) {
  LayerProbe out;
  const auto& program = setup.pipeline.rules().program;
  const std::size_t n = std::min(setup.replay.size(), kLayerProbeFrames);
  std::vector<std::vector<std::uint64_t>> keys(n);
  std::uint64_t want_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    program.parser.extract_into(setup.replay[i].view(), keys[i]);
    for (const auto v : keys[i]) want_sum += v;
  }

  std::vector<double> parse_ns;
  std::vector<std::uint64_t> scratch;
  for (std::size_t pass = 0; pass < kLayerProbePasses; ++pass) {
    std::uint64_t sum = 0;
    ScopedSpan span(tracer, "p4.parse.extract_into", pass);
    const std::uint64_t t = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      program.parser.extract_into(setup.replay[i].view(), scratch);
      for (const auto v : scratch) sum += v;
    }
    parse_ns.push_back(static_cast<double>(now_ns() - t) / static_cast<double>(n));
    span.items = n;
    m.attempted += 1;
    if (sum != want_sum) ++m.mismatched;
  }
  out.parse_ns = quantile(parse_ns, 0.5);

  const auto lookup_ns = [&](p4::MatchBackend backend, const char* name,
                             std::size_t* groups) {
    p4::MatchActionTable table("probe", program.keys,
                               std::max<std::size_t>(1024, setup.rules_a().size()),
                               program.default_action);
    if (table.replace_entries(setup.rules_a()) != p4::TableWriteStatus::kOk)
      throw std::runtime_error("probe table rejected rule set A");
    table.set_match_backend(backend);
    if (groups && table.compiled_index()) *groups = table.compiled_index()->group_count();
    std::vector<double> per_lookup;
    for (std::size_t pass = 0; pass < kLayerProbePasses; ++pass) {
      std::uint64_t wrong = 0;
      ScopedSpan span(tracer, name, pass);
      const std::uint64_t t = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        const auto r = table.peek(keys[i]);
        const auto& want = setup.oracle_a[i];
        wrong += r.entry_index != want.entry_index || r.action != want.action;
      }
      per_lookup.push_back(static_cast<double>(now_ns() - t) / static_cast<double>(n));
      span.items = n;
      m.attempted += n;
      m.mismatched += wrong;
    }
    return quantile(per_lookup, 0.5);
  };
  out.linear_ns = lookup_ns(p4::MatchBackend::kLinear, "p4.match.peek_linear", nullptr);
  out.compiled_ns =
      lookup_ns(p4::MatchBackend::kCompiled, "p4.match.peek_compiled", &out.groups);
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(at));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}


}  // namespace gwbench
