// Section 5's selectivity claim: the paper evaluates selectivities in the
// 5-60 % range and reports that results for bands other than 10-15 % "appear
// to be similar". This bench sweeps the band and prints T2 vs R+-tree cost
// at each, so the claim can be checked directly.

#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchReporter reporter("selectivity_sweep", &argc, argv);
  std::printf("=== Selectivity sweep (N=4000, small objects, k=3) ===\n");

  DatasetConfig config;
  config.n = 4000;
  config.size = ObjectSize::kSmall;
  config.k = 3;
  Dataset ds = BuildDataset(config);

  const std::vector<std::pair<double, double>> bands = {
      {0.05, 0.10}, {0.10, 0.15}, {0.15, 0.25},
      {0.25, 0.40}, {0.40, 0.60},
  };

  for (SelectionType type : {SelectionType::kExist, SelectionType::kAll}) {
    PrintTableHeader(
        std::string(type == SelectionType::kExist ? "EXIST" : "ALL") +
            " - avg index page accesses per query",
        {"band", "realized", "R+tree", "T2 k=3", "R+/T2"});
    for (const auto& [lo, hi] : bands) {
      Rng rng(31000 + static_cast<uint64_t>(lo * 1000));
      auto qs = MakeQueries(*ds.relation, type, 6, lo, hi, &rng);
      Measurement t2 = MeasureDual(&ds, qs, QueryMethod::kT2);
      Measurement rt = MeasureRTree(&ds, qs);
      bool exist = type == SelectionType::kExist;
      BenchReporter::Params params = {{"sel_lo", lo},
                                      {"sel_hi", hi},
                                      {"exist", exist ? 1.0 : 0.0}};
      reporter.Add(exist ? "t2/exist" : "t2/all", params, t2);
      reporter.Add(exist ? "rtree/exist" : "rtree/all", params, rt);
      PrintTableRow({Fmt(lo * 100, 0) + "-" + Fmt(hi * 100, 0) + "%",
                     Fmt(t2.selectivity * 100, 1) + "%",
                     Fmt(rt.index_fetches), Fmt(t2.index_fetches),
                     Fmt(rt.index_fetches / t2.index_fetches, 2) + "x"});
    }
  }
  std::printf(
      "\nExpected shape: T2 beats the R+-tree across the whole band, with\n"
      "the ALL advantage consistently wider (paper Section 5).\n");

  // Refinement substrate + warm latency at the paper's headline band.
  Rng rrng(31999);
  auto refine_qs =
      MakeQueries(*ds.relation, SelectionType::kExist, 6, 0.10, 0.15, &rrng);
  auto refine_all =
      MakeQueries(*ds.relation, SelectionType::kAll, 6, 0.10, 0.15, &rrng);
  refine_qs.insert(refine_qs.end(), refine_all.begin(), refine_all.end());
  ReportRefineRows(&ds, refine_qs, &reporter, {}, /*warm=*/true);
  return reporter.Write() ? 0 : 1;
}
