// Ablation: the topology-aware hierarchical collectives engine, arm by arm.
//
// Two workloads over an image sweep, four engine settings each:
//   baseline — forced binomial tree with per_target_completion off: the
//              pre-engine sequence (data put, full quiet, flag put), so one
//              slow target stalls the whole fan-out;
//   binomial — the same tree with per-target fences (data-then-flag pairs
//              riding in-order same-pair delivery);
//   flat     — root-centric linear fan-out/gather, the conformance
//              reference arm;
//   auto     — the selector: two-level node-leader trees / recursive
//              doubling for small payloads, pipelined streaming above one
//              staging slot, priced off the SwProfile.
//
// Workloads:
//   allreduce-8B — one co_sum scalar per round (Himeno's residual
//                  reduction), latency-bound: the hierarchy and the
//                  per-target fences are the whole story;
//   bcast-1MiB   — a 1 MiB co_broadcast (model/table distribution),
//                  bandwidth-bound: the pipelined arm streams chunks
//                  through a contiguous binary tree instead of
//                  store-and-forwarding whole slots.
//
// Machines: Stampede/MVAPICH2-X (16 cores/node) and XC30/Cray-SHMEM
// (24 cores/node) — the paper's two main platforms, both with the
// node-local transport on, so intra-node stages ride its shared-segment
// rings. Native collective mappings are disabled so the engine itself is
// measured on both stacks.
//
// `--json PATH` writes the series plus the @64-image speedups
// (BENCH_coll.json); its baseline's "bounds" block floors them at 2x
// (allreduce-8B) and 1.5x (bcast-1MiB).
#include <cstdio>
#include <string>
#include <vector>

#include "apps/driver.hpp"
#include "bench_util.hpp"

namespace {

enum class Arm { kBaseline, kBinomial, kFlat, kAutoSel };

caf::Options arm_opts(Arm a) {
  caf::Options o;
  o.use_native_collectives = false;  // measure the engine on every stack
  o.node.enabled = true;
  switch (a) {
    case Arm::kBaseline:
      o.coll.broadcast = caf::CollAlgo::kBinomial;
      o.coll.reduce = caf::CollAlgo::kBinomial;
      o.coll.per_target_completion = false;
      break;
    case Arm::kBinomial:
      o.coll.broadcast = caf::CollAlgo::kBinomial;
      o.coll.reduce = caf::CollAlgo::kBinomial;
      break;
    case Arm::kFlat:
      o.coll.broadcast = caf::CollAlgo::kFlat;
      o.coll.reduce = caf::CollAlgo::kFlat;
      break;
    case Arm::kAutoSel:
      break;  // kAuto everywhere: selector + pipelined large payloads
  }
  return o;
}

struct Platform {
  driver::StackKind kind;
  net::Machine machine;
  const char* name;
};

constexpr Platform kPlatforms[] = {
    {driver::StackKind::kShmemMvapich, net::Machine::kStampede, "stampede"},
    {driver::StackKind::kShmemCray, net::Machine::kXC30, "xc30"},
};

/// Virtual time for `reps` rounds of an 8-byte co_sum across `images`.
sim::Time allreduce8_time(const Platform& p, Arm arm, int images) {
  driver::Stack stack(p.kind, images, p.machine, 2 << 20, arm_opts(arm));
  std::vector<sim::Time> elapsed(static_cast<std::size_t>(images), 0);
  stack.run([&](caf::Runtime& rt) {
    rt.sync_all();
    const sim::Time t0 = sim::Engine::current()->now();
    std::int64_t v = rt.this_image();
    for (int r = 0; r < 32; ++r) {
      std::int64_t x = v;
      rt.co_sum(&x, 1);
    }
    elapsed[static_cast<std::size_t>(rt.this_image() - 1)] =
        sim::Engine::current()->now() - t0;
  });
  sim::Time worst = 1;
  for (const sim::Time t : elapsed) worst = std::max(worst, t);
  return worst;
}

/// Virtual time for `reps` rounds of a 1 MiB co_broadcast from image 1.
sim::Time bcast1m_time(const Platform& p, Arm arm, int images) {
  constexpr std::size_t kElems = (1 << 20) / sizeof(std::int64_t);
  driver::Stack stack(p.kind, images, p.machine, (4 << 20), arm_opts(arm));
  std::vector<sim::Time> elapsed(static_cast<std::size_t>(images), 0);
  stack.run([&](caf::Runtime& rt) {
    std::vector<std::int64_t> data(kElems, rt.this_image());
    rt.sync_all();
    const sim::Time t0 = sim::Engine::current()->now();
    for (int r = 0; r < 4; ++r) {
      rt.co_broadcast(data.data(), kElems, 1);
    }
    elapsed[static_cast<std::size_t>(rt.this_image() - 1)] =
        sim::Engine::current()->now() - t0;
  });
  sim::Time worst = 1;
  for (const sim::Time t : elapsed) worst = std::max(worst, t);
  return worst;
}

struct Row {
  std::string platform;
  std::string workload;
  int images;
  sim::Time t[4];  // indexed by Arm
};

constexpr Arm kArms[] = {Arm::kBaseline, Arm::kBinomial, Arm::kFlat,
                         Arm::kAutoSel};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::flag_value(argc, argv, "--json");

  std::printf("=== Ablation: hierarchical collectives engine ===\n\n");
  std::vector<Row> rows;
  double allreduce_speedup_64 = 0;
  double bcast_speedup_64 = 0;

  for (const Platform& p : kPlatforms) {
    std::printf("-- %s --\n", p.name);
    std::printf("%-14s %-7s %12s %12s %12s %12s %10s\n", "workload", "images",
                "baseline", "binomial", "flat", "auto", "auto/base");
    for (const int images : {2, 8, 16, 32, 64}) {
      Row row{p.name, "allreduce-8B", images, {}};
      for (int a = 0; a < 4; ++a) {
        row.t[a] = allreduce8_time(p, kArms[a], images);
      }
      rows.push_back(row);
      const double sp = static_cast<double>(row.t[0]) /
                        static_cast<double>(row.t[3]);
      std::printf("%-14s %-7d %12s %12s %12s %12s %9.2fx\n", row.workload.c_str(),
                  images, sim::format_time(row.t[0]).c_str(),
                  sim::format_time(row.t[1]).c_str(),
                  sim::format_time(row.t[2]).c_str(),
                  sim::format_time(row.t[3]).c_str(), sp);
      if (images == 64 && p.kind == driver::StackKind::kShmemMvapich) {
        allreduce_speedup_64 = sp;
      }
    }
    for (const int images : {8, 32, 64}) {
      Row row{p.name, "bcast-1MiB", images, {}};
      for (int a = 0; a < 4; ++a) {
        row.t[a] = bcast1m_time(p, kArms[a], images);
      }
      rows.push_back(row);
      const double sp = static_cast<double>(row.t[0]) /
                        static_cast<double>(row.t[3]);
      std::printf("%-14s %-7d %12s %12s %12s %12s %9.2fx\n", row.workload.c_str(),
                  images, sim::format_time(row.t[0]).c_str(),
                  sim::format_time(row.t[1]).c_str(),
                  sim::format_time(row.t[2]).c_str(),
                  sim::format_time(row.t[3]).c_str(), sp);
      if (images == 64 && p.kind == driver::StackKind::kShmemMvapich) {
        bcast_speedup_64 = sp;
      }
    }
    std::printf("\n");
  }

  std::printf("summary @64 images (stampede): allreduce-8B auto/baseline = "
              "%.2fx, bcast-1MiB auto/baseline = %.2fx\n",
              allreduce_speedup_64, bcast_speedup_64);

  if (json_path) {
    bench::Record series = bench::Record::array();
    for (const Row& r : rows) {
      series.push(bench::Record().add("platform", r.platform)
                      .add("workload", r.workload).add("images", r.images)
                      .add("baseline", r.t[0]).add("binomial", r.t[1])
                      .add("flat", r.t[2]).add("auto", r.t[3]));
    }
    bench::Record().add("bench", "hierarchical_collectives").add("unit", "ns")
        .add("rows", std::move(series))
        .add("allreduce8_speedup_64", allreduce_speedup_64, 3)
        .add("bcast_1m_speedup_64", bcast_speedup_64, 3)
        .write(json_path);
  }
  return 0;
}
