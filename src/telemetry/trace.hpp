#pragma once
// Low-overhead RAII spans on the flight-recorder timeline.
//
// A Span's constructor takes one steady-clock sample and its destructor
// records a complete ("ph":"X") event into the calling thread's
// flight-recorder ring (flight_recorder.hpp) -- no allocation, no locking,
// no formatting on the hot path.  The ring is the only span store:
// dump_flight_recorder() writes spans, transport frames and marks into one
// Chrome trace-format file that https://ui.perfetto.dev loads directly.
//
// Track identity: parx rank threads call set_trace_rank(r) so their events
// land on a per-rank track ("rank r" process row in Perfetto); other
// threads default to the host track (pid kHostTrack).
//
// Span names must be string literals (or otherwise outlive the recorder):
// only the pointer is stored.
//
// With GREEM_TELEMETRY=OFF everything here is an empty inline no-op.

#include <cstdint>

#include "telemetry/telemetry.hpp"  // GREEM_TELEMETRY_ENABLED

namespace greem::telemetry {

/// pid used for events recorded outside any parx rank.
inline constexpr int kHostTrack = -1;

#if GREEM_TELEMETRY_ENABLED

/// Route this thread's subsequent events to the track of world rank `r`
/// (kHostTrack restores the default).  Returns the previous setting so
/// scoped users can restore it.
int set_trace_rank(int r);

/// The rank track this thread currently records to (kHostTrack outside
/// parx rank threads).
int current_trace_rank();

/// Nanoseconds since the process-wide trace epoch -- the time base of
/// every span, frame event and mark in a flight-recorder dump.
std::int64_t trace_now_ns();

/// RAII complete-event span.  `name` must have static storage duration.
class Span {
 public:
  explicit Span(const char* name) : name_(name), start_ns_(trace_now_ns()) {}
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span early (destructor becomes a no-op).
  void end() {
    if (name_) finish();
    name_ = nullptr;
  }

 private:
  void finish();

  const char* name_;
  std::int64_t start_ns_;
};

#else

inline int set_trace_rank(int) { return kHostTrack; }
inline int current_trace_rank() { return kHostTrack; }
inline std::int64_t trace_now_ns() { return 0; }

class Span {
 public:
  explicit Span(const char*) {}
  void end() {}
};

#endif  // GREEM_TELEMETRY_ENABLED

}  // namespace greem::telemetry
