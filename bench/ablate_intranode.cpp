// Ablation: the node-local shared-segment transport (per-node shared
// symmetric heap + SPSC rings + NUMA-aware placement) against the fabric
// path it replaces, for the three intra-node patterns the runtime leans on:
//
//   allreduce-8B   — one-node co_sum scalar per round (Himeno's residual
//                    reduction): latency-bound small puts + flag waits, the
//                    pattern the rings exist for;
//   lock-handoff   — all images hammer one MCS lock: the handoff is a
//                    same-node put + local spin, per-handoff time reported;
//   hot-get-64B    — every image reads 64-byte records from one hot owner
//                    (the DHT hot-shard serving pattern); p99 over all gets.
//
// Both of the paper's main platforms (Stampede/MVAPICH2-X, XC30/Cray-SHMEM)
// run every workload with the transport off (fabric loopback) and on
// (shared segment). A NUMA-placement mini-sweep shows what first-touch
// buys over a naive single-arena heap.
//
// `--json PATH` writes BENCH_intranode.json. Its baseline's "bounds" block
// floors the minimum speedups across both machines (8-byte allreduce >= 2x,
// lock handoff and hot-get p99 >= 1.5x); scripts/bench_diff.py enforces it.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/driver.hpp"
#include "bench_util.hpp"
#include "net/node_channel.hpp"

namespace {

struct Platform {
  driver::StackKind kind;
  net::Machine machine;
  const char* name;
  int images;  ///< one full node
};

constexpr Platform kPlatforms[] = {
    {driver::StackKind::kShmemMvapich, net::Machine::kStampede, "stampede", 16},
    {driver::StackKind::kShmemCray, net::Machine::kXC30, "xc30", 24},
};

caf::Options transport(bool on,
                       net::NumaPlacement placement =
                           net::NumaPlacement::kLocalDomain) {
  caf::Options o;
  o.node.enabled = on;
  o.node.placement = placement;
  return o;
}

/// Worst-image virtual time for 32 rounds of an 8-byte co_sum.
sim::Time allreduce8_time(const Platform& p, const caf::Options& opts) {
  driver::Stack stack(p.kind, p.images, p.machine, 2 << 20, opts);
  std::vector<sim::Time> elapsed(static_cast<std::size_t>(p.images), 0);
  stack.run([&](caf::Runtime& rt) {
    rt.sync_all();
    const sim::Time t0 = sim::Engine::current()->now();
    for (int r = 0; r < 32; ++r) {
      std::int64_t x = rt.this_image();
      rt.co_sum(&x, 1);
    }
    elapsed[static_cast<std::size_t>(rt.this_image() - 1)] =
        sim::Engine::current()->now() - t0;
  });
  sim::Time worst = 1;
  for (const sim::Time t : elapsed) worst = std::max(worst, t);
  return worst;
}

/// Mean per-handoff virtual time of an all-images MCS lock storm.
sim::Time lock_handoff_time(const Platform& p, const caf::Options& opts) {
  constexpr int kRounds = 8;
  driver::Stack stack(p.kind, p.images, p.machine, 2 << 20, opts);
  const sim::Time total = stack.run([&](caf::Runtime& rt) {
    caf::CoLock lck = rt.make_lock();
    for (int r = 0; r < kRounds; ++r) {
      rt.lock(lck, 1);
      rt.unlock(lck, 1);
    }
    rt.sync_all();
  });
  return std::max<sim::Time>(1, total / (p.images * kRounds));
}

/// p99 latency of 64-byte gets from one hot owner image (DHT hot shard).
sim::Time hot_get_p99(const Platform& p, const caf::Options& opts) {
  constexpr int kGets = 64;
  driver::Stack stack(p.kind, p.images, p.machine, 2 << 20, opts);
  std::vector<sim::Time> samples;
  samples.reserve(static_cast<std::size_t>(p.images) * kGets);
  std::vector<std::vector<sim::Time>> per_image(
      static_cast<std::size_t>(p.images));
  stack.run([&](caf::Runtime& rt) {
    const std::uint64_t off = rt.allocate_coarray_bytes(64 * kGets);
    if (rt.this_image() == 1) {
      std::memset(rt.local_addr(off), 0x5a, 64 * kGets);
    }
    rt.sync_all();
    if (rt.this_image() == 1) return;  // the hot owner only serves
    auto& mine = per_image[static_cast<std::size_t>(rt.this_image() - 1)];
    char rec[64];
    for (int i = 0; i < kGets; ++i) {
      // Spread arrivals so the sample is per-op latency, not queueing.
      sim::Engine::current()->advance(2'000 + 137 * rt.this_image());
      const sim::Time t0 = sim::Engine::current()->now();
      rt.get_bytes(rec, 1, off + 64 * static_cast<std::uint64_t>(i), 64);
      mine.push_back(sim::Engine::current()->now() - t0);
    }
  });
  for (const auto& v : per_image) samples.insert(samples.end(), v.begin(), v.end());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() * 99 / 100];
}

struct Row {
  std::string platform;
  std::string workload;
  sim::Time fabric;
  sim::Time node;
  double speedup() const {
    return static_cast<double>(fabric) / static_cast<double>(node);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::flag_value(argc, argv, "--json");

  std::printf("=== Ablation: node-local shared-segment transport ===\n\n");
  std::vector<Row> rows;
  double allreduce_min = 1e9, lock_min = 1e9, get_min = 1e9;

  for (const Platform& p : kPlatforms) {
    std::printf("-- %s (%d images, one node) --\n", p.name, p.images);
    std::printf("%-14s %14s %14s %10s\n", "workload", "fabric", "node-local",
                "speedup");
    Row ar{p.name, "allreduce-8B",
           allreduce8_time(p, transport(false)),
           allreduce8_time(p, transport(true))};
    Row lk{p.name, "lock-handoff",
           lock_handoff_time(p, transport(false)),
           lock_handoff_time(p, transport(true))};
    Row hg{p.name, "hot-get-64B-p99",
           hot_get_p99(p, transport(false)),
           hot_get_p99(p, transport(true))};
    for (const Row& r : {ar, lk, hg}) {
      rows.push_back(r);
      std::printf("%-14s %14s %14s %9.2fx\n", r.workload.c_str(),
                  sim::format_time(r.fabric).c_str(),
                  sim::format_time(r.node).c_str(), r.speedup());
    }
    allreduce_min = std::min(allreduce_min, ar.speedup());
    lock_min = std::min(lock_min, lk.speedup());
    get_min = std::min(get_min, hg.speedup());

    // NUMA placement: what the first-touch shared heap buys over a naive
    // one-arena allocation (every slice on domain 0).
    const sim::Time ft =
        allreduce8_time(p, transport(true, net::NumaPlacement::kLocalDomain));
    const sim::Time il =
        allreduce8_time(p, transport(true, net::NumaPlacement::kInterleave));
    const sim::Time d0 =
        allreduce8_time(p, transport(true, net::NumaPlacement::kDomain0));
    std::printf("placement (allreduce-8B): first-touch %s, interleave %s, "
                "domain0 %s\n\n",
                sim::format_time(ft).c_str(), sim::format_time(il).c_str(),
                sim::format_time(d0).c_str());
  }

  std::printf("minimum speedups across machines: allreduce-8B %.2fx, "
              "lock-handoff %.2fx, hot-get p99 %.2fx\n",
              allreduce_min, lock_min, get_min);

  if (json_path) {
    bench::Record series = bench::Record::array();
    for (const Row& r : rows) {
      series.push(bench::Record().add("platform", r.platform)
                      .add("workload", r.workload).add("fabric", r.fabric)
                      .add("node", r.node).add("speedup", r.speedup(), 3));
    }
    bench::Record().add("bench", "intranode_transport").add("unit", "ns")
        .add("rows", std::move(series))
        .add("allreduce8_speedup_min", allreduce_min, 3)
        .add("lock_handoff_speedup_min", lock_min, 3)
        .add("hot_get_p99_speedup_min", get_min, 3)
        .write(json_path);
  }
  return 0;
}
