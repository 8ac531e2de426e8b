// google-benchmark microbenchmarks of the simulation substrate itself:
// event-queue throughput, fiber context-switch cost, allocator hot paths,
// and end-to-end simulated-barrier cost. These are *host* performance
// numbers (how fast the simulator runs), not simulated results.
//
// `--json PATH` switches to the CI gate mode: fixed-shape measurements of
// the engine core (queue events/sec, fiber switches/sec, steady-state heap
// traffic) plus the two 16k-image at-scale smokes (barrier storm, Himeno),
// written as BENCH_engine.json and compared against the checked-in baseline
// by scripts/bench_diff.py. The simulated metrics (event counts, MFLOPS)
// double as determinism checks; the wall times gate host throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "apps/driver.hpp"
#include "apps/himeno.hpp"
#include "bench_util.hpp"
#include "net/profiles.hpp"
#include "shmem/heap.hpp"
#include "shmem/world.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

void noop_event(void*, std::uint64_t, std::uint64_t) {}

void BM_EventQueueThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) {
      eng.schedule_raw(i, &noop_event, nullptr);
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1'000)->Arg(100'000);

// One dissemination round as the event core sees it: N deliveries share one
// nanosecond, and each schedules a same-time follow-up (the woken image's
// turn) and a send about 150 ns later (its next round's put). Unlike the
// throughput leg's one event per nanosecond, this is the burst shape that
// `sync all`, barriers and Himeno's halo rounds give the queue.
void round_delivery(void* eng_ptr, std::uint64_t i, std::uint64_t) {
  auto& eng = *static_cast<sim::Engine*>(eng_ptr);
  eng.schedule_raw(eng.sim_now(), &noop_event, nullptr);
  eng.schedule_raw(eng.sim_now() + 150 + static_cast<sim::Time>(i % 16),
                   &noop_event, nullptr);
}

void BM_DisseminationRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) {
      eng.schedule_raw(1'000, &round_delivery, &eng, i);
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n * 3);
}
BENCHMARK(BM_DisseminationRound)->Arg(1'024)->Arg(16'384);

void BM_FiberSwitch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng(16 * 1024);
    eng.spawn(0, [] {
      for (int i = 0; i < 1'000; ++i) sim::this_pe::advance(1);
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1'000 * 2);  // out + in
}
BENCHMARK(BM_FiberSwitch);

void BM_AllocatorChurn(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) {
    shmem::FreeListAllocator a(0, 1 << 22);
    std::vector<std::uint64_t> live;
    for (int i = 0; i < 2'000; ++i) {
      if (live.empty() || rng.below(100) < 60) {
        if (auto off = a.allocate(16 + rng.below(2048))) live.push_back(*off);
      } else {
        const std::size_t k = rng.below(live.size());
        a.release(live[k]);
        live[k] = live.back();
        live.pop_back();
      }
    }
    for (auto off : live) a.release(off);
    benchmark::DoNotOptimize(a.bytes_in_use());
  }
  state.SetItemsProcessed(state.iterations() * 2'000);
}
BENCHMARK(BM_AllocatorChurn);

void BM_SimulatedBarrier(benchmark::State& state) {
  const int pes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng(32 * 1024);
    net::Fabric fabric(net::machine_profile(net::Machine::kXC30), pes);
    shmem::World world(eng, fabric,
                       net::sw_profile(net::Library::kShmemCray,
                                       net::Machine::kXC30),
                       512 << 10);
    world.launch([&] {
      for (int i = 0; i < 4; ++i) world.barrier_all();
    });
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * pes * 4);
}
BENCHMARK(BM_SimulatedBarrier)->Arg(16)->Arg(256);

// ---- --json gate mode ----

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct QueueResult {
  double events_per_sec = 0;
  std::uint64_t steady_heap_slabs = 0;  ///< slab mallocs after warm-up
};

QueueResult measure_queue(int n, int reps) {
  QueueResult out;
  double best_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    sim::Engine eng;
    for (int i = 0; i < n; ++i) eng.schedule_raw(i, &noop_event, nullptr);
    eng.run();
    best_ms = std::min(best_ms, ms_since(t0));
    // Once the thread-local slab cache is warm (first rep), a run must not
    // touch the heap for event storage at all. bench_diff enforces the
    // baseline's 0 exactly.
    if (r > 0) out.steady_heap_slabs += eng.stats().event_slab_allocs;
  }
  out.events_per_sec = 1000.0 * n / best_ms;
  return out;
}

double measure_switches(int n, int reps) {
  double best_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    sim::Engine eng(16 * 1024);
    eng.spawn(0, [n] {
      for (int i = 0; i < n; ++i) sim::this_pe::advance(1);
    });
    eng.run();
    best_ms = std::min(best_ms, ms_since(t0));
  }
  return 1000.0 * (2.0 * n) / best_ms;  // out + in
}

struct StormResult {
  double wall_ms = 0;
  std::uint64_t events = 0;
};

StormResult barrier_storm(int pes, int reps) {
  const auto t0 = Clock::now();
  sim::Engine eng(16 * 1024);
  net::Fabric fabric(net::machine_profile(net::Machine::kXC30), pes);
  shmem::World world(eng, fabric,
                     net::sw_profile(net::Library::kShmemCray,
                                     net::Machine::kXC30),
                     160 << 10);
  world.launch([&] {
    for (int i = 0; i < reps; ++i) world.barrier_all();
  });
  eng.run();
  return {ms_since(t0), eng.events_processed()};
}

struct HimenoResult {
  double wall_ms = 0;
  std::uint64_t events = 0;
  double mflops = 0;
};

HimenoResult himeno_smoke(int images) {
  const auto t0 = Clock::now();
  apps::himeno::Config base;
  base.gx = 32;
  base.gy = 128;
  base.gz = 128;
  base.iters = 1;
  const auto cfg = apps::himeno::decompose(base, images);
  caf::Options opts;
  opts.strided = caf::StridedAlgo::kNaive;
  opts.nonsym_slab_bytes = 64 << 10;
  const std::size_t p_bytes = static_cast<std::size_t>(cfg.gx) *
                              (cfg.gy / cfg.py + 2) * (cfg.gz / cfg.pz + 2) *
                              sizeof(double);
  driver::Stack stack(driver::StackKind::kShmemMvapich, images,
                      net::Machine::kStampede, p_bytes + (1 << 20), opts);
  apps::himeno::Result result{};
  stack.run([&](caf::Runtime& rt) {
    apps::himeno::Solver solver(rt, cfg);
    result = solver.run();
    rt.sync_all();
  });
  return {ms_since(t0), stack.engine().events_processed(), result.mflops};
}

int run_json(const char* path) {
  constexpr int kScale = 16 * 1024;
  const QueueResult q = measure_queue(100'000, 3);
  const double sw = measure_switches(100'000, 3);
  // Each leg's line is flushed as soon as it is known, so a later leg that
  // aborts does not take the earlier numbers with it.
  std::printf("queue: %.2fM events/s, %llu steady heap slabs\n",
              q.events_per_sec / 1e6,
              static_cast<unsigned long long>(q.steady_heap_slabs));
  std::printf("fiber: %.2fM switches/s\n", sw / 1e6);
  std::fflush(stdout);
  const StormResult storm = barrier_storm(kScale, 4);
  std::printf("barrier_storm @%d: %.1f ms, %llu events\n", kScale,
              storm.wall_ms, static_cast<unsigned long long>(storm.events));
  std::fflush(stdout);
  const HimenoResult him = himeno_smoke(kScale);
  std::printf("himeno_smoke @%d: %.1f ms, %llu events, %.1f mflops\n", kScale,
              him.wall_ms, static_cast<unsigned long long>(him.events),
              him.mflops);
  std::fflush(stdout);
  using bench::Record;
  Record().add("bench", "engine_micro").add("unit", "mixed")
      .add("higher_is_better",
           Record::array().push("events_per_sec").push("switches_per_sec"))
      .add("queue", Record().add("nevents", 100000)
                        .add("events_per_sec", q.events_per_sec, 0)
                        .add("steady_heap_slabs", q.steady_heap_slabs))
      .add("fiber", Record().add("switches_per_sec", sw, 0))
      .add("barrier_storm", Record().add("images", kScale).add("reps", 4)
                                .add("wall_ms", storm.wall_ms, 1)
                                .add("events", storm.events))
      .add("himeno_smoke", Record().add("images", kScale)
                               .add("wall_ms", him.wall_ms, 1)
                               .add("events", him.events)
                               .add("mflops", him.mflops, 1))
      .write(path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* path = bench::flag_value(argc, argv, "--json")) {
    return run_json(path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
