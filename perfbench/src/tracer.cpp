#include "tracer.hpp"

#include <algorithm>
#include <cstdio>

#include "util/json.hpp"

namespace perfbench {

Tracer* Tracer::active_ = nullptr;

namespace {

/// Per-thread stack of open spans (indices) and the thread's index.
struct ThreadState {
  std::vector<int> open;
  int index = -1;
};
thread_local ThreadState tls;

} // namespace

int Tracer::open(const char* name, int trial, int parent) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  if (tls.index < 0) tls.index = threads_++;
  SpanRecord s;
  s.name = name;
  s.startUs = now;
  s.parent = parent >= 0 ? parent : tls.open.empty() ? -1 : tls.open.back();
  // A span inherits its parent's trial unless it names its own.
  s.trial = trial >= 0 || s.parent < 0 ? trial : spans_[s.parent].trial;
  s.thread = tls.index;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  tls.open.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].endUs = now;
  if (!tls.open.empty() && tls.open.back() == id) tls.open.pop_back();
}

std::vector<const SpanRecord*> Tracer::named(const std::string& name) const {
  std::vector<const SpanRecord*> out;
  for (const SpanRecord& s : spans_)
    if (s.name == name) out.push_back(&s);
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.name == name) sum += s.ms();
  return sum;
}

std::map<std::string, double> Tracer::layer_self_ms() const {
  // Children on worker threads overlap each other, so subtract the length of
  // the union of the children's intervals, not the sum of their durations.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.startUs, s.endUs);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<double, double>>& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0;
    double reach = spans_[i].startUs;
    for (const auto& [start, end] : c) {
      const double from = std::max(start, reach);
      const double to = std::min(end, spans_[i].endUs);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    out[spans_[i].layer()] += spans_[i].ms() - covered * 1e-3;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) out += ",";
    out += "\n{\"name\":";
    nvff::json::append_escaped(out, s.name); // adds the quotes
    out += ",\"cat\":";
    nvff::json::append_escaped(out, s.layer());
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.thread) +
           ",\"ts\":" + nvff::json::num(s.startUs) +
           ",\"dur\":" + nvff::json::num(s.endUs - s.startUs) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"trial\":" + std::to_string(s.trial) + "}}";
  }
  out += "\n]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
