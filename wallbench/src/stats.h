// Small helpers shared by the benchmark's modes: nearest-rank quantiles and
// a one-line JSON object writer.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "obs/json.h"

namespace wallbench {

/// Nearest-rank quantile of `v` (0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// Builds `{"k": v, ...}` in insertion order.
class JsonLine {
 public:
  void Num(const std::string& key, double v) {
    Key(key);
    body_ += sjoin::obs::JsonNumber(v);
  }
  void Str(const std::string& key, const std::string& v) {
    Key(key);
    sjoin::obs::AppendJsonString(body_, v);
  }
  void Raw(const std::string& key, const std::string& json) {
    Key(key);
    body_ += json;
  }
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ", ";
    sjoin::obs::AppendJsonString(body_, key);
    body_ += ": ";
  }
  std::string body_;
};

}  // namespace wallbench
