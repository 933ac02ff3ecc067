#include "telemetry/trace.hpp"

#if GREEM_TELEMETRY_ENABLED

#include <chrono>

#include "telemetry/flight_recorder.hpp"

namespace greem::telemetry {
namespace {

thread_local int tl_pid = kHostTrack;

}  // namespace

int set_trace_rank(int r) {
  const int prev = tl_pid;
  tl_pid = r;
  return prev;
}

int current_trace_rank() { return tl_pid; }

std::int64_t trace_now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch).count();
}

void Span::finish() { flight_record_span(name_, start_ns_, trace_now_ns() - start_ns_); }

}  // namespace greem::telemetry

#endif  // GREEM_TELEMETRY_ENABLED
