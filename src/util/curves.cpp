#include "util/curves.hpp"

#include <algorithm>
#include <cmath>

#include "util/numeric.hpp"

namespace metas::util {

double Confusion::precision() const {
  return (tp + fp) == 0 ? 0.0
                        : static_cast<double>(tp) / static_cast<double>(tp + fp);
}

double Confusion::recall() const {
  return (tp + fn) == 0 ? 0.0
                        : static_cast<double>(tp) / static_cast<double>(tp + fn);
}

double Confusion::f_score() const {
  double p = precision(), r = recall();
  return mac::exact_zero(p + r) ? 0.0 : 2.0 * p * r / (p + r);
}

Confusion confusion_at(const std::vector<Scored>& data, double threshold) {
  Confusion c;
  for (const auto& s : data) {
    bool predicted = s.score >= threshold;
    if (predicted && s.positive) ++c.tp;
    else if (predicted && !s.positive) ++c.fp;
    else if (!predicted && s.positive) ++c.fn;
    else ++c.tn;
  }
  return c;
}

namespace {

// Sort descending by score; walk thresholds from high to low accumulating
// tp/fp counts. Shared skeleton for PR and ROC.
std::vector<Scored> sorted_desc(std::vector<Scored> data) {
  std::sort(data.begin(), data.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });
  return data;
}

}  // namespace

std::vector<CurvePoint> pr_curve(const std::vector<Scored>& input) {
  auto data = sorted_desc(input);
  std::size_t total_pos = 0;
  for (const auto& s : data)
    if (s.positive) ++total_pos;
  std::vector<CurvePoint> pts;
  if (total_pos == 0 || data.empty()) return pts;
  std::size_t tp = 0, fp = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i].positive) ++tp; else ++fp;
    // Only emit at distinct-score boundaries to keep the curve well defined.
    if (i + 1 < data.size() && mac::exact_eq(data[i + 1].score, data[i].score)) continue;
    CurvePoint p;
    p.threshold = data[i].score;
    p.x = static_cast<double>(tp) / static_cast<double>(total_pos);
    p.y = static_cast<double>(tp) / static_cast<double>(tp + fp);
    pts.push_back(p);
  }
  return pts;
}

std::vector<CurvePoint> roc_curve(const std::vector<Scored>& input) {
  auto data = sorted_desc(input);
  std::size_t total_pos = 0, total_neg = 0;
  for (const auto& s : data) (s.positive ? total_pos : total_neg)++;
  std::vector<CurvePoint> pts;
  if (total_pos == 0 || total_neg == 0) return pts;
  std::size_t tp = 0, fp = 0;
  pts.push_back({data.front().score + 1.0, 0.0, 0.0});
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i].positive) ++tp; else ++fp;
    if (i + 1 < data.size() && mac::exact_eq(data[i + 1].score, data[i].score)) continue;
    CurvePoint p;
    p.threshold = data[i].score;
    p.x = static_cast<double>(fp) / static_cast<double>(total_neg);
    p.y = static_cast<double>(tp) / static_cast<double>(total_pos);
    pts.push_back(p);
  }
  return pts;
}

double auprc(const std::vector<Scored>& data) {
  auto pts = pr_curve(data);
  if (pts.empty()) return 0.0;
  // Average-precision style integration: step in recall, hold precision.
  double area = 0.0;
  double prev_recall = 0.0;
  for (const auto& p : pts) {
    area += (p.x - prev_recall) * p.y;
    prev_recall = p.x;
  }
  return area;
}

double auc(const std::vector<Scored>& data) {
  auto pts = roc_curve(data);
  if (pts.empty()) return 0.0;
  double area = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    double dx = pts[i].x - pts[i - 1].x;
    area += dx * 0.5 * (pts[i].y + pts[i - 1].y);
  }
  // Close the curve at (1,1) if the sweep stopped early.
  if (pts.back().x < 1.0) area += (1.0 - pts.back().x) * pts.back().y;
  return area;
}

}  // namespace metas::util
