#include "trace.hpp"

#include <cstdio>
#include <numeric>

namespace roundbench {

namespace {
constexpr const char* kNames[kSpanNames] = {
    "core.round",        "core.fill",          "data.sample",
    "models.loss",       "models.gradient",    "models.clip",
    "dp.noise",          "attacks.forge",      "aggregation.aggregate",
    "core.apply",        "models.eval",        "campaign.pass",
    "campaign.setup",    "campaign.cell",      "core.train",
    "privacy.mi",        "privacy.inversion",  "campaign.persist",
    "campaign.artifacts"};
}  // namespace

const char* span_name(SpanName name) { return kNames[name]; }

std::string span_layer(SpanName name) {
  const std::string full = kNames[name];
  return full.substr(0, full.find('.'));
}

const std::vector<std::string>& layers() {
  static const std::vector<std::string> kLayers = {
      "data", "models", "dp", "attacks", "aggregation",
      "core", "net",    "privacy", "campaign"};
  return kLayers;
}

void SpanStats::fold(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    durations_ns[s.name].push_back(dur);
    const double self = dur - child_ns[i];
    if (s.parent < 0) {
      unattributed_ns += self;
    } else {
      self_ns[s.name] += self;
    }
    if (s.name == kRound) round_ns += dur;
  }
}

double SpanStats::median_ns(SpanName name) const {
  return durations_ns[name].empty() ? 0.0 : median(durations_ns[name]);
}

double SpanStats::total_ns(SpanName name) const {
  return std::accumulate(durations_ns[name].begin(), durations_ns[name].end(), 0.0);
}

std::vector<double> SpanStats::layer_self_ns() const {
  std::vector<double> out(layers().size(), 0.0);
  for (size_t n = 0; n < kSpanNames; ++n) {
    const std::string layer = span_layer(static_cast<SpanName>(n));
    for (size_t l = 0; l < layers().size(); ++l)
      if (layers()[l] == layer) out[l] += self_ns[n];
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace roundbench
