// Ablation: the nonblocking RMA pipeline, stage by stage.
//
// Three workloads, three pipeline settings each:
//   blocking — the paper's §IV-B translation (eager issue, quiet per
//              statement);
//   nbi      — deferred completion only: nbi issue, per-conduit outstanding
//              tracker, flush at completion points;
//   agg      — nbi plus the write-combining stage: small puts to one image
//              coalesce into scatter messages carved from the managed slab.
//
// Workloads:
//   contig-8B×512  — 512 scalar puts to one partner (DHT-style counter
//                    updates);
//   strided sweep  — one strided statement of 256 runs of N bytes each
//                    (Himeno-halo-like, runs not adjacent remotely);
//   adjacent runs  — a fully contiguous section walked as runs: isolates
//                    the run-coalescing merge (ships as one message).
//
// `--json PATH` additionally writes the series as JSON (the CI bench-smoke
// artifact, BENCH_rma.json).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "caf_put_bench.hpp"

using namespace bench;

namespace {

constexpr net::Machine kMachine = net::Machine::kStampede;
constexpr driver::StackKind kKind = driver::StackKind::kShmemMvapich;

caf::RmaOptions nbi_opts() {
  caf::RmaOptions r;
  r.completion = caf::CompletionMode::kDeferred;
  return r;
}

caf::RmaOptions agg_opts() {
  caf::RmaOptions r = nbi_opts();
  r.write_combining = true;
  return r;
}

/// Contiguous scalar-put stream: `reps` puts of `bytes` to one partner.
double contig_bw(caf::RmaOptions rma, std::size_t bytes, int reps) {
  return caf_contig_bw(kKind, kMachine, bytes, /*pairs=*/1, reps, rma);
}

struct Row {
  std::string workload;
  std::size_t bytes;
  double blocking;
  double nbi;
  double agg;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = flag_value(argc, argv, "--json");

  std::printf("=== Ablation: nonblocking RMA pipeline ===\n\n");
  std::vector<Row> rows;

  std::printf("%-24s %14s %14s %14s %10s\n", "workload (MB/s)", "blocking",
              "nbi", "nbi+agg", "agg/blk");
  {
    const double b = contig_bw({}, 8, 512);
    const double n = contig_bw(nbi_opts(), 8, 512);
    const double a = contig_bw(agg_opts(), 8, 512);
    rows.push_back({"contig-8Bx512", 8, b, n, a});
    std::printf("%-24s %14.1f %14.1f %14.1f %9.2fx\n", "contig-8Bx512", b, n,
                a, a / b);
  }
  for (std::size_t bytes : {std::size_t{16}, std::size_t{64},
                            std::size_t{256}, std::size_t{512}}) {
    const double b = caf_smallrun_bw(kKind, kMachine, caf::StridedAlgo::kNaive,
                                     bytes, 256, 1);
    const double n = caf_smallrun_bw(kKind, kMachine, caf::StridedAlgo::kNaive,
                                     bytes, 256, 1, nbi_opts());
    const double a =
        caf_smallrun_bw(kKind, kMachine, caf::StridedAlgo::kAggregate, bytes,
                        256, 1, agg_opts());
    char name[32];
    std::snprintf(name, sizeof name, "strided-%zuBx256", bytes);
    rows.push_back({name, bytes, b, n, a});
    std::printf("%-24s %14.1f %14.1f %14.1f %9.2fx\n", name, b, n, a, a / b);
  }
  {
    // Adjacent runs: stride == run length, so the remote runs touch and the
    // coalescer merges the whole statement into one transfer. The blocking
    // column disables coalescing to show the un-merged cost.
    caf::RmaOptions no_merge;  // eager
    no_merge.run_coalescing = false;
    const double b = caf_strided_bw(kKind, kMachine, caf::StridedAlgo::kNaive,
                                    /*stride=*/1, /*nelems=*/1024, 1,
                                    no_merge);
    const double n = caf_strided_bw(kKind, kMachine, caf::StridedAlgo::kNaive,
                                    1, 1024, 1, nbi_opts());
    const double a = caf_strided_bw(kKind, kMachine, caf::StridedAlgo::kNaive,
                                    1, 1024, 1);  // eager + coalescing
    rows.push_back({"adjacent-4Bx1024", 4, b, n, a});
    std::printf("%-24s %14.1f %14.1f %14.1f %9.2fx   (agg column = run "
                "coalescing)\n",
                "adjacent-4Bx1024", b, n, a, a / b);
  }

  std::vector<double> aggs, blks;
  for (const auto& r : rows) {
    if (r.workload.rfind("strided-", 0) == 0) {
      aggs.push_back(r.agg);
      blks.push_back(r.blocking);
    }
  }
  std::printf("\nsummary: aggregated vs blocking, small strided puts "
              "(geomean) = %.2fx\n",
              geomean_ratio(aggs, blks));

  if (json_path) {
    Record series = Record::array();
    for (const Row& r : rows) {
      series.push(Record().add("workload", r.workload).add("bytes", r.bytes)
                      .add("blocking", r.blocking, 2).add("nbi", r.nbi, 2)
                      .add("agg", r.agg, 2));
    }
    Record().add("bench", "rma_pipeline").add("machine", "stampede")
        .add("unit", "MB/s").add("rows", std::move(series))
        .add("agg_vs_blocking_geomean", geomean_ratio(aggs, blks), 3)
        .write(json_path);
  }
  return 0;
}
