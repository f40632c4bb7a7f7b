// Regenerates Figure 15: MUP identification on AirBnB varying the number of
// attributes (paper: n = 1M, τ = 0.1%, d = 5 … 17). Expected shape: the
// number of MUPs and all runtimes grow exponentially with d, yet remain
// tractable through d = 17.

#include "bench_common.h"

int main() {
  using namespace coverage;
  const std::size_t n = bench::FullScale() ? 1000000 : 100000;
  bench::Banner("Figure 15: MUP identification vs dimensions (AirBnB)",
                "n = " + FormatCount(n) + ", tau = 0.1%");

  const int d_max = bench::FullScale() ? 17 : 15;
  const Dataset full = datagen::MakeAirbnb(n, d_max);
  MupSearchOptions options;
  options.tau = std::max<std::uint64_t>(1, n / 1000);
  options.enumeration_limit = 1u << 26;

  bench::BenchJson json("fig15_airbnb_dimensions");
  TablePrinter table({"d", "P-BREAKER (s)", "P-COMBINER (s)", "DEEPDIVER (s)",
                      "# MUPs"});
  for (int d = 5; d <= d_max; d += 2) {
    std::vector<int> attrs;
    for (int i = 0; i < d; ++i) attrs.push_back(i);
    const Dataset data = full.Project(attrs);
    const AggregatedData agg(data);
    const BitmapCoverage oracle(agg);
    const auto breaker =
        bench::TimeMupSearch(MupAlgorithm::kPatternBreaker, oracle, options);
    const auto combiner =
        bench::TimeMupSearch(MupAlgorithm::kPatternCombiner, oracle, options);
    const auto diver =
        bench::TimeMupSearch(MupAlgorithm::kDeepDiver, oracle, options);
    table.Row()
        .Cell(d)
        .Cell(bench::SecondsCell(breaker.seconds))
        .Cell(bench::SecondsCell(combiner.seconds))
        .Cell(bench::SecondsCell(diver.seconds))
        .Cell(static_cast<std::uint64_t>(diver.num_mups))
        .Done();
    json.Row()
        .Field("n", static_cast<std::uint64_t>(n))
        .Field("d", d)
        .Field("pattern_breaker_seconds", breaker.seconds)
        .Field("pattern_combiner_seconds", combiner.seconds)
        .Field("deep_diver_seconds", diver.seconds)
        .Field("num_mups", static_cast<std::uint64_t>(diver.num_mups))
        .Done();
  }
  table.Print(std::cout);
  std::cout << "expected shape: #MUPs and runtimes grow exponentially in d; "
               "everything\nfinishes in reasonable time through d = 17\n";
  return 0;
}
