// In-memory span recorder of the traced run. The benchmark's own code
// opens spans around each call into a layer; nothing inside the program
// is instrumented. One Tracer per client thread (no locking); Merge()
// folds them together after the threads join.
#ifndef PERFBENCH_DRIVER_TRACE_H_
#define PERFBENCH_DRIVER_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.h"

namespace perfbench {

class Tracer {
 public:
  /// Totals over finished requests for one span name.
  struct NameTotals {
    int64_t self_ns = 0;
    uint64_t requests = 0;  ///< Requests with at least one such span.
  };
  /// Totals over finished requests for one root span name.
  struct RootTotals {
    int64_t duration_ns = 0;
    int64_t covered_ns = 0;  ///< Part of the root its children cover.
  };

  /// Keeps at most `dump_cap` spans for WriteTsv; the totals always cover
  /// every finished request.
  explicit Tracer(size_t dump_cap) : dump_cap_(dump_cap) {}

  void Begin(uint64_t request) {
    request_ = request;
    open_.clear();
  }
  /// Records a span of the open request; returns its index (a parent for
  /// later spans). The first span of a request is its root.
  int32_t Add(const char* name, int32_t parent, int64_t start_ns,
              int64_t end_ns) {
    open_.push_back(Span{name, request_, parent, start_ns, end_ns});
    return static_cast<int32_t>(open_.size() - 1);
  }
  /// Closes a span opened with an unknown end (a root whose children are
  /// recorded before it ends).
  void SetEnd(int32_t span, int64_t end_ns) {
    open_[static_cast<size_t>(span)].end_ns = end_ns;
  }
  /// Folds the open request's self times into the totals.
  void End() {
    if (open_.empty()) return;
    std::map<std::string, int64_t> self;
    for (size_t i = 0; i < open_.size(); ++i) {
      self[open_[i].name] += SelfTimeNs(open_, i);
    }
    for (const auto& [name, ns] : self) {
      NameTotals& t = names_[name];
      t.self_ns += ns;
      ++t.requests;
    }
    RootTotals& root = roots_[open_[0].name];
    root.duration_ns += open_[0].duration_ns();
    root.covered_ns += open_[0].duration_ns() - SelfTimeNs(open_, 0);
    for (size_t i = 0; i < open_.size(); ++i) {
      if (dump_.size() < dump_cap_) {
        dump_.emplace_back(static_cast<int32_t>(i), open_[i]);
      } else {
        ++dropped_;
      }
    }
    open_.clear();
  }

  void Merge(const Tracer& other) {
    for (const auto& [name, t] : other.names_) {
      names_[name].self_ns += t.self_ns;
      names_[name].requests += t.requests;
    }
    for (const auto& [name, r] : other.roots_) {
      roots_[name].duration_ns += r.duration_ns;
      roots_[name].covered_ns += r.covered_ns;
    }
    for (const auto& s : other.dump_) {
      if (dump_.size() < dump_cap_) {
        dump_.push_back(s);
      } else {
        ++dropped_;
      }
    }
    dropped_ += other.dropped_;
  }

  /// Mean self time per request carrying `name`, in microseconds; 0 when
  /// no such span was recorded.
  double MeanSelfUs(const std::string& name) const {
    auto it = names_.find(name);
    if (it == names_.end() || it->second.requests == 0) return 0.0;
    return static_cast<double>(it->second.self_ns) / 1e3 /
           static_cast<double>(it->second.requests);
  }
  /// Share of root `name`'s total duration that child spans cover.
  double Coverage(const std::string& name) const {
    auto it = roots_.find(name);
    if (it == roots_.end() || it->second.duration_ns == 0) return 0.0;
    return static_cast<double>(it->second.covered_ns) /
           static_cast<double>(it->second.duration_ns);
  }

  /// One line per kept span: request, span index within the request,
  /// parent index (-1 = root), name, start and end in ns relative to
  /// `base_ns`. Returns false if the file cannot be written.
  bool WriteTsv(const std::string& path, int64_t base_ns) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fprintf(f, "request\tspan\tparent\tname\tstart_ns\tend_ns\n");
    for (const auto& [index, s] : dump_) {
      std::fprintf(f, "%llu\t%d\t%d\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.request), index, s.parent,
                   s.name, static_cast<long long>(s.start_ns - base_ns),
                   static_cast<long long>(s.end_ns - base_ns));
    }
    return std::fclose(f) == 0;
  }

  size_t kept() const { return dump_.size(); }
  uint64_t dropped() const { return dropped_; }

 private:
  size_t dump_cap_;
  uint64_t request_ = 0;
  std::vector<Span> open_;
  std::map<std::string, NameTotals> names_;
  std::map<std::string, RootTotals> roots_;
  std::vector<std::pair<int32_t, Span>> dump_;  ///< (index in request, span)
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACE_H_
