// Folds an NDJSON trace — the driver's own spans around public calls plus
// the spans the program emits (engine.solve, serve.request,
// mdp.value_iteration, net.run, ...) — into per-layer calls, total and
// self time. A span's layer is its name up to the first '.'. Total time
// counts only spans whose parent lies in another layer, so nested spans
// of one layer are not counted twice; self time is a span's duration
// minus the union of its children's intervals.
#include "fold.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/json.hpp"

namespace perfbench {

namespace {

struct SpanRecord {
  std::string layer;
  std::string parent;
  double start = 0.0;
  double end = 0.0;
};

std::string string_field(const serve::Json& line, const char* key) {
  const serve::Json* value = line.find(key);
  return value == nullptr ? std::string() : value->as_string();
}

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      total += end - start;
      cursor = end;
    }
  }
  return total;
}

}  // namespace

Metrics fold_trace(const std::string& path,
                   const std::vector<std::string>& layers) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read trace " + path);
  std::unordered_map<std::string, SpanRecord> spans;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty()) continue;
    const serve::Json line = serve::Json::parse(text);
    const std::string name = string_field(line, "span");
    SpanRecord span;
    span.layer = name.substr(0, name.find('.'));
    span.parent = string_field(line, "parent_id");
    span.start = line.find("start")->as_number();
    span.end = line.find("end")->as_number();
    spans[string_field(line, "span_id")] = std::move(span);
  }

  std::unordered_map<std::string, std::vector<std::pair<double, double>>>
      children;
  for (const auto& [id, span] : spans) {
    if (!span.parent.empty()) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }

  struct Fold {
    double calls = 0.0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Fold> folds;
  for (const auto& [id, span] : spans) {
    Fold& fold = folds[span.layer];
    fold.calls += 1.0;
    const auto parent = spans.find(span.parent);
    if (parent == spans.end() || parent->second.layer != span.layer) {
      fold.total += span.end - span.start;
    }
    const auto kids = children.find(id);
    const double busy =
        kids == children.end()
            ? 0.0
            : covered(kids->second, span.start, span.end);
    fold.self += (span.end - span.start) - busy;
  }

  Metrics metrics;
  for (const std::string& layer : layers) {
    const Fold fold = folds.count(layer) != 0 ? folds[layer] : Fold{};
    metrics["span." + layer + ".calls"] = {fold.calls, "count"};
    metrics["span." + layer + ".total_s"] = {fold.total, "s"};
    metrics["span." + layer + ".self_s"] = {fold.self, "s"};
  }
  return metrics;
}

}  // namespace perfbench
