#ifndef COVERAGE_BENCH_BENCH_COMMON_H_
#define COVERAGE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "coverage_lib.h"

namespace coverage {
namespace bench {

/// Paper-scale runs (n = 1M, full parameter grids) are enabled with
/// REPRO_FULL=1 in the environment; the default scale keeps the whole bench
/// suite within a few minutes while preserving every qualitative shape.
inline bool FullScale() {
  const char* env = std::getenv("REPRO_FULL");
  return env != nullptr && env[0] == '1';
}

/// Default data size stand-in for the paper's 1M-row AirBnB experiments.
inline std::size_t AirbnbRows() { return FullScale() ? 1000000u : 200000u; }

/// Prints the standard experiment banner.
inline void Banner(const std::string& figure, const std::string& setting) {
  std::cout << "==============================================================="
               "=\n"
            << figure << "\n"
            << setting << (FullScale() ? "  [REPRO_FULL]" : "  [default scale"
                                                            "; REPRO_FULL=1 "
                                                            "for paper scale]")
            << "\n"
            << "==============================================================="
               "=\n";
}

/// Runs one MUP identification algorithm and returns its stats (the result
/// itself is discarded; `num_mups` lands in the stats). Returns seconds < 0
/// when the algorithm refused the workload (resource guard) — printed as
/// "DNF" by the tables.
inline MupSearchStats TimeMupSearch(MupAlgorithm algorithm,
                                    const BitmapCoverage& oracle,
                                    const MupSearchOptions& options) {
  MupSearchStats stats;
  auto result = FindMups(algorithm, oracle, options, &stats);
  if (!result.ok()) {
    stats.seconds = -1.0;
  }
  return stats;
}

/// "DNF" for guarded refusals, otherwise seconds with 4 digits.
inline std::string SecondsCell(double seconds) {
  if (seconds < 0) return "DNF";
  return FormatDouble(seconds, 4);
}

/// Machine-readable companion to the printed tables: collects rows of
/// key/value fields and writes them as a JSON array of objects to
/// `BENCH_<name>.json` (in $BENCH_JSON_DIR if set, else the working
/// directory) when flushed or destroyed. Gives every bench run a durable
/// record so perf trajectories can be compared across commits.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}
  ~BenchJson() { Flush(); }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  class RowBuilder {
   public:
    explicit RowBuilder(BenchJson* owner) : owner_(owner) {}
    RowBuilder& Field(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, Quote(value));
      return *this;
    }
    RowBuilder& Field(const std::string& key, const char* value) {
      return Field(key, std::string(value));
    }
    RowBuilder& Field(const std::string& key, double value) {
      fields_.emplace_back(key, FormatDouble(value, 6));
      return *this;
    }
    RowBuilder& Field(const std::string& key, std::uint64_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    RowBuilder& Field(const std::string& key, int value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    /// Commits the row to the report.
    void Done() { owner_->rows_.push_back(std::move(fields_)); }

   private:
    static std::string Quote(const std::string& s) {
      std::string out = "\"";
      for (const char c : s) {
        if (c == '"' || c == '\\') {
          out += '\\';
          out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          // RFC 8259: control characters must be escaped.
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
      }
      out += '"';
      return out;
    }

    BenchJson* owner_;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  RowBuilder Row() { return RowBuilder(this); }

  void Flush() {
    if (flushed_) return;
    flushed_ = true;
    const char* dir = std::getenv("BENCH_JSON_DIR");
    const std::string path =
        (dir != nullptr ? std::string(dir) + "/" : std::string()) + "BENCH_" +
        name_ + ".json";
    std::ofstream out(path);
    if (!out.good()) {
      std::cerr << "BenchJson: cannot open " << path << "; dropping "
                << rows_.size() << " rows\n";
      return;
    }
    out << "[\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << "  {";
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        if (f > 0) out << ", ";
        out << "\"" << rows_[r][f].first << "\": " << rows_[r][f].second;
      }
      out << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    std::cout << "wrote " << path << " (" << rows_.size() << " rows)\n";
  }

 private:
  friend class RowBuilder;
  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  bool flushed_ = false;
};

}  // namespace bench
}  // namespace coverage

#endif  // COVERAGE_BENCH_BENCH_COMMON_H_
