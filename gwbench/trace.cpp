#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace gwbench {

std::vector<const Span*> Tracer::named(std::string_view name) const {
  std::vector<const Span*> out;
  for (const auto& s : spans_)
    if (s.end_ns != 0 && name == s.name) out.push_back(&s);
  return out;
}

std::vector<double> Tracer::self_ns() const {
  // One recording thread: children never overlap, so their durations add.
  std::vector<double> self(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.end_ns != 0) self[s.id - 1] += s.duration_ns();
  for (const auto& s : spans_)
    if (s.end_ns != 0 && s.parent != 0) self[s.parent - 1] -= s.duration_ns();
  for (auto& v : self) v = std::max(0.0, v);
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const auto& s : spans_) {
    if (s.end_ns == 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":%llu,\"items\":%llu}}",
                 first ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                 s.duration_ns() / 1e3, s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.items));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace gwbench
