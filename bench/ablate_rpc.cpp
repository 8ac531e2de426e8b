// Ablation: the asynchronous remote-execution layer (DESIGN.md §4f).
//
//   rtt-8B        — one image round-trips a scalar RPC to a cross-node
//                   target 64 times; mean ns per operation. This is the
//                   floor cost of shipping an operation instead of data.
//   ff-throughput — 256 fire-and-forget increments to one cross-node
//                   target, completion confirmed by a trailing round-trip
//                   probe; ns per operation (the pipelined send cost).
//   dht-insert    — the paper's §V-C DHT update stream, RPC design
//                   (apps/dht_rpc.hpp: operation shipped to the owner)
//                   against a pure-AMO design (atomic_fetch_add on a
//                   counts-only slice, same key stream); ns per update.
//
// The RPC arms run on both mailbox-transport platforms (Stampede/MVAPICH2-X,
// XC30/Cray SHMEM) and, for the latency/throughput pair, the GASNet AM
// transport too — the paper's portability claim restated for remote
// execution.
//
// `--json PATH` writes BENCH_rpc.json, which scripts/bench_diff.py diffs
// against the checked-in baseline (it carries per-metric tolerance
// overrides). The harness is self-checking: it exits non-zero when
// fire-and-forget stops pipelining (0 < ff/op < rtt on every platform),
// when the AM transport loses the best round trip to a mailbox, or when a
// DHT-insert cost is not positive.
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/dht_rpc.hpp"
#include "apps/driver.hpp"
#include "bench_util.hpp"
#include "caf/rpc.hpp"
#include "sim/rng.hpp"

namespace {

struct Platform {
  driver::StackKind kind;
  net::Machine machine;
  const char* name;
  const char* transport;  ///< "mailbox" or "am"
};

constexpr Platform kPlatforms[] = {
    {driver::StackKind::kShmemMvapich, net::Machine::kStampede,
     "stampede-mvapich", "mailbox"},
    {driver::StackKind::kShmemCray, net::Machine::kXC30, "xc30-cray-shmem",
     "mailbox"},
    {driver::StackKind::kGasnet, net::Machine::kXC30, "xc30-gasnet", "am"},
};

caf::Options rpc_opts(const Platform& p) {
  caf::Options o;
  o.rpc.enabled = true;
  o.rpc.transport = std::strcmp(p.transport, "am") == 0
                        ? caf::RpcOptions::Transport::kAm
                        : caf::RpcOptions::Transport::kMailbox;
  return o;
}

/// Two images per run beyond one node so image 1 -> image `n` crosses the
/// node boundary (the interesting case for an RPC layer).
int cross_node_images(const Platform& p) {
  return net::machine_profile(p.machine).cores_per_node + 2;
}

constexpr int kRttReps = 64;
constexpr int kFfOps = 256;

/// Mean ns of one 8-byte-argument, 8-byte-return RPC round trip across the
/// node boundary. The target sits parked in the closing barrier, so every
/// request is drained from the doorbell completion (the no-progress-thread
/// path the mailbox transport is designed around).
sim::Time rpc_rtt_8b(const Platform& p) {
  driver::Stack stack(p.kind, cross_node_images(p), p.machine, 4 << 20,
                      rpc_opts(p));
  sim::Time mean = 0;
  stack.run([&](caf::Runtime& rt) {
    rt.sync_all();
    if (rt.this_image() == 1) {
      const int target = rt.num_images();
      // One warm-up trip so the measured ops see a steady-state ring.
      caf::rpc(
          rt, target, [](std::int64_t x) -> std::int64_t { return x; },
          std::int64_t{0})
          .get();
      const sim::Time t0 = sim::Engine::current()->now();
      for (int i = 0; i < kRttReps; ++i) {
        auto fut = caf::rpc(
            rt, target, [](std::int64_t x) -> std::int64_t { return x + 1; },
            static_cast<std::int64_t>(i));
        (void)fut.get();
      }
      mean = (sim::Engine::current()->now() - t0) / kRttReps;
    }
    rt.sync_all();
  });
  return mean;
}

/// ns per fire-and-forget operation: pipelined one-way sends (ring
/// backpressure included), completion bounded by a round-trip probe that
/// reads the target-side counter. The mailbox ring is FIFO so one probe
/// suffices; the AM path may reorder, so the probe polls.
sim::Time rpc_ff_per_op(const Platform& p) {
  driver::Stack stack(p.kind, cross_node_images(p), p.machine, 4 << 20,
                      rpc_opts(p));
  sim::Time per_op = 0;
  stack.run([&](caf::Runtime& rt) {
    const std::uint64_t off = rt.allocate_coarray_bytes(8);
    std::memset(rt.local_addr(off), 0, 8);
    rt.sync_all();
    if (rt.this_image() == 1) {
      const int target = rt.num_images();
      const caf::sym_view<std::int64_t> cell{off, 1};
      const sim::Time t0 = sim::Engine::current()->now();
      for (int i = 0; i < kFfOps; ++i) {
        caf::rpc_ff(
            rt, target, [](caf::sym_view<std::int64_t> c) { c[0] += 1; },
            cell);
      }
      for (;;) {
        auto probe = caf::rpc(
            rt, target,
            [](caf::sym_view<std::int64_t> c) -> std::int64_t { return c[0]; },
            cell);
        if (probe.get() >= kFfOps) break;
      }
      per_op = (sim::Engine::current()->now() - t0) / kFfOps;
    }
    rt.sync_all();
  });
  return per_op;
}

// ---------------------------------------------------------------------------
// DHT insert: RPC design vs pure-AMO design, same key stream
// ---------------------------------------------------------------------------

apps::dht::Config dht_bench_cfg() {
  apps::dht::Config cfg;
  cfg.buckets_per_image = 64;
  cfg.updates_per_image = 128;
  cfg.locks_per_image = 8;
  cfg.seed = 0xB4B4;
  cfg.hot_percent = 25;
  cfg.hot_keys = 4;
  return cfg;
}

sim::Time dht_insert_rpc(const Platform& p, const apps::dht::Config& cfg) {
  driver::Stack stack(p.kind, cross_node_images(p), p.machine, 4 << 20,
                      rpc_opts(p));
  const int images = cross_node_images(p);
  const sim::Time total = stack.run([&](caf::Runtime& rt) {
    auto table = apps::dhtrpc::make_rpc_table(rt, cfg);
    table.run_updates();
    rt.sync_all();
  });
  return total / (static_cast<sim::Time>(cfg.updates_per_image) * images);
}

/// The same update stream as counter bumps: the count lives in a plain
/// int64 slice and the "insert" is one atomic_fetch_add at the owner. No
/// key storage, no reply payload — the cheapest correct one-sided design,
/// i.e. the strongest baseline the RPC arm can be compared against.
sim::Time dht_insert_amo(const Platform& p, const apps::dht::Config& cfg) {
  driver::Stack stack(p.kind, cross_node_images(p), p.machine, 4 << 20);
  const int images = cross_node_images(p);
  const sim::Time total = stack.run([&](caf::Runtime& rt) {
    const int me = rt.this_image();
    const int n = rt.num_images();
    const std::size_t bytes =
        static_cast<std::size_t>(cfg.buckets_per_image) * 8;
    const std::uint64_t off = rt.allocate_coarray_bytes(bytes);
    std::memset(rt.local_addr(off), 0, bytes);
    rt.sync_all();
    sim::Rng rng(cfg.seed * 1000003u + static_cast<std::uint64_t>(me));
    const std::int64_t global_buckets =
        cfg.buckets_per_image * static_cast<std::int64_t>(n);
    for (int u = 0; u < cfg.updates_per_image; ++u) {
      const bool hot =
          rng.below(100) < static_cast<std::uint64_t>(cfg.hot_percent);
      const std::int64_t key = static_cast<std::int64_t>(
          hot ? rng.below(static_cast<std::uint64_t>(cfg.hot_keys))
              : rng.below(static_cast<std::uint64_t>(global_buckets)));
      const int owner = static_cast<int>(key / cfg.buckets_per_image) + 1;
      const std::int64_t bucket = key % cfg.buckets_per_image;
      (void)rt.atomic_fetch_add(
          owner, off + static_cast<std::uint64_t>(bucket) * 8, 1);
    }
    rt.sync_all();
  });
  return total / (static_cast<sim::Time>(cfg.updates_per_image) * images);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::flag_value(argc, argv, "--json");

  std::printf("=== Ablation: asynchronous remote execution (RPC) ===\n\n");
  std::printf("%-18s %-9s %14s %14s\n", "platform", "transport", "rtt-8B",
              "ff/op");

  struct LatRow {
    const Platform* p;
    sim::Time rtt, ff;
  };
  std::vector<LatRow> lat;
  for (const Platform& p : kPlatforms) {
    LatRow r{&p, rpc_rtt_8b(p), rpc_ff_per_op(p)};
    lat.push_back(r);
    std::printf("%-18s %-9s %14s %14s\n", p.name, p.transport,
                sim::format_time(r.rtt).c_str(),
                sim::format_time(r.ff).c_str());
  }

  std::printf("\n-- DHT insert, per update (RPC vs pure-AMO baseline) --\n");
  std::printf("%-18s %14s %14s %10s\n", "platform", "rpc", "amo", "rpc/amo");
  struct DhtRow {
    const Platform* p;
    sim::Time rpc, amo;
  };
  std::vector<DhtRow> dht;
  const apps::dht::Config cfg = dht_bench_cfg();
  for (const Platform& p : kPlatforms) {
    if (std::strcmp(p.transport, "mailbox") != 0) continue;  // paper machines
    DhtRow r{&p, dht_insert_rpc(p, cfg), dht_insert_amo(p, cfg)};
    dht.push_back(r);
    std::printf("%-18s %14s %14s %9.2fx\n", p.name,
                sim::format_time(r.rpc).c_str(),
                sim::format_time(r.amo).c_str(),
                static_cast<double>(r.rpc) / static_cast<double>(r.amo));
  }

  // Shape invariants: pipelined fire-and-forget beats a full round trip on
  // every platform, and the AM transport's implicit handler progress holds
  // the best round trip over the mailboxes' parked-drain polling.
  sim::Time best_am = 0, best_mailbox = 0;
  for (const LatRow& r : lat) {
    bench::check(r.ff > 0 && r.ff < r.rtt, r.p->name,
                 "fire-and-forget pipelines: 0 < ff_ns_per_op < rtt_8b_ns");
    sim::Time& best =
        std::strcmp(r.p->transport, "am") == 0 ? best_am : best_mailbox;
    if (best == 0 || r.rtt < best) best = r.rtt;
  }
  bench::check(best_am < best_mailbox, "am vs mailbox",
               "AM transport holds the best rtt_8b_ns");
  for (const DhtRow& r : dht) {
    bench::check(r.rpc > 0 && r.amo > 0, r.p->name,
                 "DHT insert costs are positive");
  }

  if (json_path) {
    bench::Record platforms = bench::Record::array();
    for (const LatRow& r : lat) {
      platforms.push(bench::Record().add("platform", r.p->name)
                         .add("transport", r.p->transport)
                         .add("rtt_8b_ns", r.rtt).add("ff_ns_per_op", r.ff));
    }
    bench::Record inserts = bench::Record::array();
    for (const DhtRow& r : dht) {
      inserts.push(bench::Record().add("platform", r.p->name)
                       .add("rpc_ns_per_update", r.rpc)
                       .add("amo_ns_per_update", r.amo));
    }
    bench::Record().add("bench", "rpc").add("unit", "ns")
        .add("platforms", std::move(platforms))
        .add("dht_insert", std::move(inserts))
        .write(json_path);
  }
  if (bench::check_failures() > 0) {
    std::printf("RPC ABLATION FAILED: %d invariant violations\n",
                bench::check_failures());
    return 1;
  }
  return 0;
}
