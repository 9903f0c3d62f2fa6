#include "probes.hpp"

#include <algorithm>
#include <iterator>

namespace perfbench {

namespace {

// 2^16 four-byte keys: 256 KiB, resident in a core's L2 once loaded.
constexpr std::size_t kHeapKeys = std::size_t{1} << 16;
constexpr int kChurnOps = 20000;

std::uint32_t pristine_heap[kHeapKeys];
std::uint32_t work_heap[kHeapKeys];
volatile std::uint32_t kernel_sink;  // keeps the kernel's work observable

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Replaces the heap's top kChurnOps times, from the pristine heap, so
/// every pass does the same work.
void churn() {
  std::copy(std::begin(pristine_heap), std::end(pristine_heap), work_heap);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < kChurnOps; ++i) {
    std::pop_heap(std::begin(work_heap), std::end(work_heap));
    work_heap[kHeapKeys - 1] = static_cast<std::uint32_t>(xorshift(x));
    std::push_heap(std::begin(work_heap), std::end(work_heap));
  }
  kernel_sink = work_heap[0];
}

}  // namespace

double calibration_kernel_s() {
  static const bool ready = [] {
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t& key : pristine_heap) {
      key = static_cast<std::uint32_t>(xorshift(x));
    }
    std::make_heap(std::begin(pristine_heap), std::end(pristine_heap));
    return true;
  }();
  (void)ready;
  churn();  // loads both buffers into cache
  const auto t0 = Clock::now();
  churn();
  return seconds_between(t0, Clock::now());
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start, s.end);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = seconds_between(spans_[i].start, spans_[i].end);
    Totals& t = out[spans_[i].name];
    t.count += 1;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, s.name, s.parent, seconds_between(origin, s.start),
                 seconds_between(origin, s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
