/// \file spans.cpp
/// \brief Span store, self-time aggregation and the spans JSON dump.

#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace adept::e2e {

std::size_t SpanRecorder::open(const char* name, std::size_t parent,
                               std::size_t request) {
  const Clock::time_point now = Clock::now();
  return add(name, now, now, parent, request);
}

void SpanRecorder::close(std::size_t id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = now;
}

std::size_t SpanRecorder::add(const char* name, Clock::time_point start,
                              Clock::time_point end, std::size_t parent,
                              std::size_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, request});
  return spans_.size() - 1;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double LayerTimes::total(const std::string& name) const {
  const auto found = total_ms.find(name);
  return found == total_ms.end() ? 0.0 : found->second;
}

double LayerTimes::self(const std::string& name) const {
  const auto found = self_ms.find(name);
  return found == self_ms.end() ? 0.0 : found->second;
}

LayerTimes aggregate(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  LayerTimes out;
  for (std::size_t id = 0; id < spans.size(); ++id) {
    if (spans[id].parent == kNoParent)
      ++out.requests;
    else
      children[spans[id].parent].push_back(id);
  }
  for (std::size_t id = 0; id < spans.size(); ++id) {
    const Span& span = spans[id];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const std::size_t child : children[id])
      covered.emplace_back(std::max(spans[child].start, span.start),
                           std::min(spans[child].end, span.end));
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    Clock::time_point reach = span.start;
    for (const auto& [from, to] : covered) {
      const Clock::time_point begin = std::max(from, reach);
      if (to > begin) {
        covered_ms += ms_between(begin, to);
        reach = to;
      }
    }
    const double duration = ms_between(span.start, span.end);
    out.total_ms[span.name] += duration;
    out.self_ms[span.name] += duration - covered_ms;
  }
  if (out.requests > 0) {
    const double n = static_cast<double>(out.requests);
    for (auto& [name, value] : out.total_ms) value /= n;
    for (auto& [name, value] : out.self_ms) value /= n;
  }
  return out;
}

void write_spans_json(const std::string& path, const std::string& workload,
                      unsigned long long seed, const std::vector<Span>& spans) {
  Clock::time_point epoch = spans.empty() ? Clock::now() : spans.front().start;
  for (const Span& span : spans) epoch = std::min(epoch, span.start);
  auto us = [&epoch](Clock::time_point t) {
    return json::Value(ms_between(epoch, t) * 1000.0);
  };
  json::Value list = json::Value::array();
  for (const Span& span : spans) {
    json::Value entry = json::Value::object();
    entry.set("name", span.name);
    entry.set("start_us", us(span.start));
    entry.set("end_us", us(span.end));
    entry.set("parent", span.parent == kNoParent ? json::Value(nullptr)
                                                 : json::Value(span.parent));
    entry.set("request", span.request);
    list.push_back(std::move(entry));
  }
  json::Value doc = json::Value::object();
  doc.set("workload", workload);
  doc.set("seed", static_cast<std::size_t>(seed));
  doc.set("spans", std::move(list));
  std::ofstream out(path);
  out << doc.dump() << '\n';
  ADEPT_CHECK(out.good(), "cannot write spans to '" + path + "'");
}

}  // namespace adept::e2e
