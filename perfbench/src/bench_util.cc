#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "dataset/schema.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double MedianOf(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Median();
}

double PeakRssMib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

coverage::Dataset MakeBinaryRows(std::size_t n, int d, std::uint64_t seed) {
  using coverage::Attribute;
  using coverage::Value;
  std::vector<Attribute> attrs;
  std::vector<double> rates;
  for (int i = 0; i < d; ++i) {
    Attribute a;
    a.name = "a" + std::to_string(i + 1);
    a.value_names = {"no", "yes"};
    attrs.push_back(std::move(a));
    // Log-uniform over [0.02, 0.5], shuffled by a stride coprime to 36 so
    // neighbouring attributes get distant rates.
    const int slot = (i * 17) % 36;
    const double t = static_cast<double>(slot) / 35.0;
    rates.push_back(std::exp(std::log(0.5) + t * (std::log(0.02) - std::log(0.5))));
  }
  coverage::Dataset data{coverage::Schema(std::move(attrs))};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Value> row(static_cast<std::size_t>(d));
  for (std::size_t r = 0; r < n; ++r) {
    for (int i = 0; i < d; ++i) {
      row[static_cast<std::size_t>(i)] =
          unit(rng) < rates[static_cast<std::size_t>(i)] ? Value{1} : Value{0};
    }
    data.AppendRow(row);
  }
  return data;
}

coverage::Dataset Slice(const coverage::Dataset& data, std::size_t begin,
                        std::size_t end) {
  coverage::Dataset out(data.schema());
  for (std::size_t r = begin; r < end && r < data.num_rows(); ++r) {
    out.AppendRow(data.row(r));
  }
  return out;
}

coverage::Pattern RandomProbe(const coverage::Dataset& data, int level,
                              std::mt19937_64& rng) {
  const int d = data.num_attributes();
  std::uniform_int_distribution<std::size_t> pick_row(0, data.num_rows() - 1);
  const auto row = data.row(pick_row(rng));
  std::vector<int> attrs(static_cast<std::size_t>(d));
  std::iota(attrs.begin(), attrs.end(), 0);
  std::shuffle(attrs.begin(), attrs.end(), rng);
  std::vector<coverage::Value> cells(static_cast<std::size_t>(d),
                                     coverage::kWildcard);
  for (int k = 0; k < level && k < d; ++k) {
    const auto a = static_cast<std::size_t>(attrs[static_cast<std::size_t>(k)]);
    cells[a] = row[a];
  }
  return coverage::Pattern(std::move(cells));
}

std::vector<std::string> PatternStrings(
    const std::vector<coverage::Pattern>& patterns) {
  std::vector<std::string> out;
  out.reserve(patterns.size());
  for (const auto& p : patterns) out.push_back(p.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

int Tracer::Begin(const std::string& name) {
  SpanRecord s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = NowSeconds();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void RunResult::Mismatch(const std::string& what) {
  correct = false;
  ++failed;
  if (mismatches.size() < 20) mismatches.push_back(what);
}

void WriteSpans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) return;
  const double t0 = tracer.spans().empty() ? 0.0 : tracer.spans()[0].start;
  out << "[";
  bool first = true;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const auto& s = tracer.spans()[i];
    out << (first ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_s\": " << (s.start - t0)
        << ", \"end_s\": " << (s.end - t0) << ", \"parent\": " << s.parent
        << "}";
    first = false;
  }
  out << "\n]\n";
}

}  // namespace perfbench
