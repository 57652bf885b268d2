// Span recorder for the traced run.  Spans are taken in the benchmark's own
// code around calls into the library's public functions (nothing inside
// src/ is instrumented), kept in memory per lane (one lane per thread that
// records, so recording takes no lock), and written out at the end as
// Chrome trace-event JSON that Perfetto and chrome://tracing open.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace framebench {

/// One recorded span: a layer call for one frame of one stream.
struct SpanRecord {
  const char* name = "";  ///< layer metric name, e.g. "data.render_ms"
  int stream = 0;
  long frame = 0;         ///< frame sequence number within the stream
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t dur_ns = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// `lanes` recording threads; lane i is written only by its own thread.
  explicit Tracer(int lanes);

  /// Times `fn()` as one span on `lane` and returns what it returns.
  template <typename Fn>
  auto span(int lane, const char* name, int stream, long frame, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    struct Record {
      Tracer* tracer;
      int lane;
      const char* name;
      int stream;
      long frame;
      Clock::time_point t0;
      ~Record() {
        tracer->record(lane, name, stream, frame, t0, Clock::now());
      }
    } rec{this, lane, name, stream, frame, t0};
    return fn();
  }

  void record(int lane, const char* name, int stream, long frame,
              Clock::time_point t0, Clock::time_point t1);

  /// Sum of span durations per name, in ms, over every lane.
  std::map<std::string, double> total_ms() const;

  /// Number of recorded spans over every lane.
  std::size_t span_count() const;

  /// The spans as Chrome trace-event JSON ("X" complete events; ts/dur in
  /// whole microseconds; pid 1, tid = lane; args carry stream and frame).
  std::string chrome_json() const;

 private:
  Clock::time_point origin_;
  std::vector<std::vector<SpanRecord>> lanes_;
};

}  // namespace framebench
