// Engine-at-scale tests: 16k lazily-stacked fibers synchronizing through a
// pure-sim barrier, stack-pool recycling, kills landing before a fiber's
// first switch-in (no stack ever materializes), and event-node recycling in
// steady state. These ride the Sanitize CI leg too, where the fiber layer
// falls back to the instrumented swapcontext path — same behavior, checked
// twice.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../closure_events.hpp"

using namespace sim;

namespace {

// Raw-event chain for the steady-state recycling test: one live event at a
// time, each firing schedules the next out of the just-released node.
struct Chain {
  Engine* eng;
  int n = 0;
  int limit = 0;
};

void chain_fire(void* ctx, std::uint64_t, std::uint64_t) {
  auto* c = static_cast<Chain*>(ctx);
  if (++c->n < c->limit) {
    c->eng->schedule_raw(c->eng->sim_now() + 1, &chain_fire, c);
  }
}

}  // namespace

TEST(EngineScale, SixteenKFibersBarrierUnder16KiBStacks) {
  constexpr int kN = 16 * 1024;
  Engine eng(16 * 1024);  // 16 KiB requested stacks
  int arrived = 0;
  long done = 0;
  std::vector<Fiber*> waiters;
  waiters.reserve(kN);
  eng.spawn_pes(kN, [&](int pe) {
    this_pe::advance(Time{pe % 97});
    Engine* e = Engine::current();
    if (++arrived == kN) {
      // Last arriver releases the barrier.
      for (Fiber* f : waiters) e->resume(*f, e->now());
    } else {
      waiters.push_back(e->current_fiber());
      e->block();
    }
    ++done;
  });
  eng.run();
  EXPECT_EQ(done, kN);
  EXPECT_EQ(eng.fibers_unfinished(), 0);
  const EngineStats s = eng.stats();
  // Stacks are lazy but every fiber did run, so each acquired exactly one.
  EXPECT_EQ(s.stack_acquires, static_cast<std::uint64_t>(kN));
  // All 16k block at the barrier simultaneously, so the peak is 16k live
  // stacks: exactly the requested 16 KiB each (already page-aligned).
  EXPECT_EQ(s.stack_bytes_peak, std::uint64_t{kN} * 16 * 1024);
}

TEST(EngineScale, StackPoolRecyclesRunToCompletionFibers) {
  constexpr int kN = 512;
  Engine eng(16 * 1024);
  long sum = 0;
  // Each fiber runs to completion inside its own resume event, so its stack
  // returns to the pool before the next fiber's first switch-in: the whole
  // wave runs on a handful of mappings.
  eng.spawn_pes(kN, [&](int pe) { sum += pe; });
  eng.run();
  EXPECT_EQ(sum, static_cast<long>(kN) * (kN - 1) / 2);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.stack_acquires, static_cast<std::uint64_t>(kN));
  EXPECT_GE(s.stack_reuses, static_cast<std::uint64_t>(kN - 1));
  EXPECT_EQ(s.stack_bytes_peak, std::uint64_t{16} * 1024);
  EXPECT_EQ(s.stack_bytes_mapped, std::uint64_t{16} * 1024);
}

TEST(EngineScale, KillBeforeFirstSwitchInAllocatesNoStack) {
  Engine eng(16 * 1024);
  simtest::Closures ev(eng);
  bool victim_ran = false;
  // The kill event is scheduled before the fibers are spawned, so at equal
  // time its sequence number wins and the victim is still kCreated — it
  // must be retired without a stack ever being mapped.
  ev.schedule(0, [&] { eng.kill_pe(1); });
  eng.spawn(0, [&] { this_pe::advance(Time{10}); });
  eng.spawn(1, [&] { victim_ran = true; });
  eng.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(eng.pe_failed(1));
  EXPECT_EQ(eng.fibers_unfinished(), 0);
  EXPECT_EQ(eng.stats().stack_acquires, 1u);  // pe 0 only
}

TEST(EngineScale, MassKillDuringLazyStacksRetiresCleanly) {
  constexpr int kN = 4096;
  constexpr int kKilled = 64;
  Engine eng(16 * 1024);
  simtest::Closures ev(eng);
  long ran = 0;
  ev.schedule(0, [&] {
    for (int pe = 0; pe < kKilled; ++pe) eng.kill_pe(pe);
  });
  eng.spawn_pes(kN, [&](int) {
    this_pe::advance(Time{5});
    ++ran;
  });
  eng.run();
  EXPECT_EQ(ran, static_cast<long>(kN - kKilled));
  EXPECT_EQ(eng.fibers_unfinished(), 0);
  EXPECT_EQ(eng.stats().stack_acquires,
            static_cast<std::uint64_t>(kN - kKilled));
}

TEST(EngineScale, SteadyStateEventChainRecyclesNodes) {
  Engine eng;
  Chain c{&eng, 0, 100'000};
  eng.schedule_raw(0, &chain_fire, &c);
  eng.run();
  EXPECT_EQ(c.n, c.limit);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.events, static_cast<std::uint64_t>(c.limit));
  // One live event at a time: after the first node, every schedule is a
  // pool hit. Steady-state scheduling never touches the heap.
  EXPECT_LE(s.event_pool_misses, 2u);
  EXPECT_GE(s.event_pool_hits, s.events - 2);
  EXPECT_LE(s.event_slab_allocs, 1u);
}
