// In-memory span recorder for the benchmark's traced run.
//
// Spans wrap the benchmark's own calls into each layer (trafficgen, core,
// p4 parse/match/switch/engine/table) on the thread that makes them. They
// are kept in a preallocated vector and written out as chrome://tracing
// JSON when the run ends, so recording costs two clock reads and a store.
// A disabled recorder records nothing; the untraced run uses one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "checker.h"

namespace gwbench {

struct Span {
  const char* name = "";      ///< layer-qualified, e.g. "p4.engine.stream_push"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;       ///< 1-based; 0 is "no span"
  std::uint32_t parent = 0;
  std::uint64_t request = 0;  ///< groups spans of one unit of work (round, swap)
  std::uint64_t items = 0;    ///< frames or entries the call handled

  double duration_ns() const { return static_cast<double>(end_ns - start_ns); }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(std::size_t{1} << 16);
  }

  bool enabled() const noexcept { return enabled_; }

  /// Open a span; returns its id (0 when disabled). The innermost open span
  /// is the parent.
  std::uint32_t open(const char* name, std::uint64_t request = 0) {
    if (!enabled_) return 0;
    Span s;
    s.name = name;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.request = request;
    spans_.push_back(s);
    stack_.push_back(s.id);
    spans_.back().start_ns = now_ns();
    return s.id;
  }
  void close(std::uint32_t id, std::uint64_t items = 0) {
    if (id == 0) return;
    const std::uint64_t end = now_ns();
    Span& s = spans_[id - 1];
    s.end_ns = end;
    s.items = items;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Closed spans with this name.
  std::vector<const Span*> named(std::string_view name) const;
  /// Per span (indexed by id - 1): duration minus the time its direct
  /// children cover, in ns. Open spans count as zero.
  std::vector<double> self_ns() const;

  /// chrome://tracing "X" events; ids, parents, requests and item counts go
  /// into each event's args. Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span. `items` may be set before the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.open(name, request)) {}
  ~ScopedSpan() { tracer_.close(id_, items); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t items = 0;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace gwbench
