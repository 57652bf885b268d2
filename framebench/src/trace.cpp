#include "trace.h"

#include "util/json.h"

namespace framebench {

Tracer::Tracer(int lanes)
    : origin_(Clock::now()),
      lanes_(static_cast<std::size_t>(lanes < 1 ? 1 : lanes)) {
  for (auto& lane : lanes_) lane.reserve(1 << 16);
}

void Tracer::record(int lane, const char* name, int stream, long frame,
                    Clock::time_point t0, Clock::time_point t1) {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  SpanRecord r;
  r.name = name;
  r.stream = stream;
  r.frame = frame;
  r.start_ns = duration_cast<nanoseconds>(t0 - origin_).count();
  r.dur_ns = duration_cast<nanoseconds>(t1 - t0).count();
  lanes_.at(static_cast<std::size_t>(lane)).push_back(r);
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> totals;
  for (const auto& lane : lanes_)
    for (const SpanRecord& r : lane)
      totals[r.name] += static_cast<double>(r.dur_ns) * 1e-6;
  return totals;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.size();
  return n;
}

std::string Tracer::chrome_json() const {
  ada::JsonWriter w;
  w.begin_object().key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (std::size_t tid = 0; tid < lanes_.size(); ++tid) {
    for (const SpanRecord& r : lanes_[tid]) {
      w.begin_object();
      w.key("name").value(r.name);
      w.key("ph").value("X");
      w.key("pid").value(1);
      w.key("tid").value(static_cast<int>(tid));
      w.key("ts").value(static_cast<long long>(r.start_ns / 1000));
      w.key("dur").value(static_cast<long long>(r.dur_ns / 1000));
      w.key("args").begin_object();
      w.key("stream").value(r.stream);
      w.key("frame").value(static_cast<long long>(r.frame));
      w.end_object();
      w.end_object();
    }
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace framebench
