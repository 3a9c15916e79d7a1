// perfbench/trace.h -- in-memory span recorder for the traced benchmark run.
//
// A span is (name, layer, start, end, parent, request id). Spans are opened
// only around the benchmark's own calls into the library's public API, so
// each span's layer is the module it calls into. The recorder is owned by
// the single generator thread and never shared: no locking. When disabled
// it records nothing and never reads the clock.
//
// Self time of a span = its duration minus the time its direct children
// cover. Sampled spans (per-update submit calls) carry a weight -- the
// inverse sampling rate -- and count weight times toward both their layer's
// self time and their parent's covered time, so sampled layers are
// estimated, not dropped.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t { kBench, kGen, kDyn, kGraph, kServe, kCkpt, kCount };

inline const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kGen: return "gen";
    case Layer::kDyn: return "dyn";
    case Layer::kGraph: return "graph";
    case Layer::kServe: return "serve";
    case Layer::kCkpt: return "ckpt";
    default: return "?";
  }
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  std::uint32_t weight = 1;   // inverse sampling rate
  std::int32_t parent = -1;   // index into Tracer::spans(), -1 = root
  std::uint64_t req = 0;      // request id (step or submit index)
  std::uint64_t start = 0, end = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 16);
  }

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled). Spans must close in LIFO order.
  std::int32_t open(const char* name, Layer layer) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(std::int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = now_ns();
    stack_.pop_back();
  }

  // Records an already-timed leaf span under the innermost open one.
  void leaf(const char* name, Layer layer, std::uint64_t req,
            std::uint64_t start, std::uint64_t end, std::uint32_t weight = 1) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.layer = layer;
    s.weight = weight;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.req = req;
    s.start = start;
    s.end = end;
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per-layer self time in nanoseconds (weighted).
  std::vector<double> self_ns() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        covered[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end - s.start) * s.weight;
    std::vector<double> out(static_cast<std::size_t>(Layer::kCount), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      double self = static_cast<double>(s.end - s.start) - covered[i];
      if (self < 0) self = 0;  // sampled children may over-estimate
      out[static_cast<std::size_t>(s.layer)] += self * s.weight;
    }
    return out;
  }

  // Writes every span as one tab-separated line:
  // index, parent, layer, name, request id, start_ns, end_ns, weight.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "idx\tparent\tlayer\tname\treq\tstart_ns\tend_ns\tweight\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%s\t%llu\t%llu\t%llu\t%u\n", i, s.parent,
                   layer_name(s.layer), s.name,
                   static_cast<unsigned long long>(s.req),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end), s.weight);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// RAII span; records only when the tracer is enabled.
class Scope {
 public:
  Scope(Tracer& t, const char* name, Layer layer)
      : t_(t), idx_(t.open(name, layer)) {}
  ~Scope() { t_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t idx_;
};

}  // namespace perfbench
