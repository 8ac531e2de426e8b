// Unit tests for the discrete-event engine: event ordering, fiber lifecycle,
// virtual-clock semantics, blocking/resume, deadlock detection, determinism.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../closure_events.hpp"

using namespace sim;
using namespace sim::literals;
using simtest::Closures;

TEST(Engine, EventsRunInTimeOrder) {
  Engine eng;
  Closures ev(eng);
  std::vector<int> order;
  ev.schedule(30_ns, [&] { order.push_back(3); });
  ev.schedule(10_ns, [&] { order.push_back(1); });
  ev.schedule(20_ns, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine eng;
  Closures ev(eng);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    ev.schedule(5_ns, [&, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, PastEventsClampToNow) {
  Engine eng;
  Closures ev(eng);
  Time seen = -1;
  ev.schedule(100_ns, [&] {
    ev.schedule(1_ns, [&] { seen = eng.sim_now(); });
  });
  eng.run();
  EXPECT_EQ(seen, 100_ns);
}

TEST(Engine, FiberAdvancesOwnClock) {
  Engine eng;
  Time t0 = -1, t1 = -1;
  eng.spawn(0, [&] {
    t0 = this_pe::now();
    this_pe::advance(250_ns);
    t1 = this_pe::now();
  });
  eng.run();
  EXPECT_EQ(t0, 0);
  EXPECT_EQ(t1, 250_ns);
  EXPECT_EQ(eng.fibers_unfinished(), 0);
}

TEST(Engine, AdvanceYieldsToEarlierEvents) {
  // A fiber advancing past t=50 must let a t=50 event run before it resumes.
  Engine eng;
  Closures ev(eng);
  std::vector<int> order;
  ev.schedule(50_ns, [&] { order.push_back(1); });
  eng.spawn(0, [&] {
    this_pe::advance(100_ns);
    order.push_back(2);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, TickDoesNotYield) {
  Engine eng;
  Closures ev(eng);
  std::vector<int> order;
  ev.schedule(50_ns, [&] { order.push_back(1); });
  eng.spawn(0, [&] {
    Engine::current()->tick(100_ns);
    order.push_back(2);  // runs before the t=50 event: tick never yields
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Engine, BlockAndResume) {
  Engine eng;
  Closures ev(eng);
  Time resumed_at = -1;
  Fiber* waiter = nullptr;
  eng.spawn(0, [&] {
    waiter = Engine::current()->current_fiber();
    Engine::current()->block();
    resumed_at = this_pe::now();
  });
  ev.schedule(10_ns, [&] { eng.resume(*waiter, 70_ns); });
  eng.run();
  EXPECT_EQ(resumed_at, 70_ns);
}

TEST(Engine, ResumeNeverMovesClockBackwards) {
  Engine eng;
  Closures ev(eng);
  Time resumed_at = -1;
  Fiber* waiter = nullptr;
  eng.spawn(0, [&] {
    this_pe::advance(500_ns);
    waiter = Engine::current()->current_fiber();
    Engine::current()->block();
    resumed_at = this_pe::now();
  });
  ev.schedule(600_ns, [&] { eng.resume(*waiter, 100_ns); });
  eng.run();
  EXPECT_EQ(resumed_at, 500_ns);  // clock stays at max(own, resume time)
}

namespace {

// A gate that declines `declines` times, taking a turn `step` later each
// time, and records where it ran.
struct Turns {
  Engine* eng = nullptr;
  Fiber* fiber = nullptr;
  int declines = 0;
  Time step = 0;
  std::vector<bool> on_fiber;

  static bool gate(void* ctx, std::uint64_t) {
    auto* t = static_cast<Turns*>(ctx);
    t->on_fiber.push_back(t->eng->current_fiber() != nullptr);
    if (static_cast<int>(t->on_fiber.size()) > t->declines) return true;
    if (t->step > 0) t->eng->resume(*t->fiber, t->fiber->clock() + t->step);
    return false;
  }
};

}  // namespace

TEST(Engine, ParkRunsGateOnSchedulerAndSwitchesInOnce) {
  Engine eng;
  Turns turns{&eng, nullptr, 2, 100_ns, {}};
  Time admitted_at = -1;
  eng.spawn(0, [&] {
    turns.fiber = eng.current_fiber();
    eng.park(&Turns::gate, &turns, 0);
    admitted_at = this_pe::now();
  });
  eng.run();
  EXPECT_EQ(admitted_at, 200_ns);
  EXPECT_EQ(turns.on_fiber, (std::vector<bool>{true, false, false}));
  EXPECT_EQ(eng.events_processed(), 3u);  // start + two turns
  EXPECT_EQ(eng.stats().switches, 2u);    // start + the admitting turn
}

TEST(Engine, ParkedFiberWokenByResumeRerunsGate) {
  Engine eng;
  Closures ev(eng);
  Turns turns{&eng, nullptr, 2, 0, {}};
  Time admitted_at = -1;
  eng.spawn(0, [&] {
    turns.fiber = eng.current_fiber();
    eng.park(&Turns::gate, &turns, 0);
    admitted_at = this_pe::now();
  });
  ev.schedule(40_ns, [&] { eng.resume(*turns.fiber, 40_ns); });
  ev.schedule(60_ns, [&] { eng.resume(*turns.fiber, 60_ns); });
  eng.run();
  EXPECT_EQ(admitted_at, 60_ns);
  EXPECT_EQ(turns.on_fiber.size(), 3u);
  EXPECT_EQ(eng.stats().switches, 2u);
}

TEST(Engine, KilledParkedFiberUnwindsWithoutItsGate) {
  // Waiting for a wake-up (kBlocked): the kill's own wake-up unwinds it.
  // With a turn pending (kRunnable): it unwinds at that turn.
  for (const Time step : {Time{0}, 100_ns}) {
    Engine eng;
    Closures ev(eng);
    Turns turns{&eng, nullptr, 5, step, {}};
    Time unwound_at = -1;
    struct Stamp {
      Engine& eng;
      Time& at;
      ~Stamp() { at = eng.now(); }
    };
    eng.spawn(0, [&] {
      Stamp stamp{eng, unwound_at};
      turns.fiber = eng.current_fiber();
      eng.park(&Turns::gate, &turns, 0);
      ADD_FAILURE() << "a killed fiber must not be admitted";
    });
    ev.schedule(30_ns, [&] { eng.kill_pe(0); });
    eng.run();
    EXPECT_EQ(unwound_at, step == 0 ? 30_ns : 100_ns);
    EXPECT_EQ(turns.on_fiber.size(), 1u);
  }
}

TEST(Engine, ManyFibersInterleaveDeterministically) {
  auto run_once = [] {
    Engine eng;
    std::vector<int> order;
    eng.spawn_pes(16, [&](int pe) {
      for (int r = 0; r < 4; ++r) {
        this_pe::advance(Time{10} * (pe + 1));
        order.push_back(pe * 100 + r);
      }
    });
    eng.run();
    return order;
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
}

TEST(Engine, DeadlockIsReported) {
  Engine eng;
  eng.spawn(0, [&] { Engine::current()->block(); });
  EXPECT_THROW(eng.run(), DeadlockError);
}

TEST(Engine, FiberExceptionPropagates) {
  Engine eng;
  eng.spawn(0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, SpawnManyFibers) {
  Engine eng(64 * 1024);
  long sum = 0;
  const int n = 2048;
  eng.spawn_pes(n, [&](int pe) {
    this_pe::advance(Time{pe});
    sum += pe;
  });
  eng.run();
  EXPECT_EQ(sum, static_cast<long>(n) * (n - 1) / 2);
  EXPECT_EQ(eng.fibers_unfinished(), 0);
}

TEST(Engine, UnfinishedCounterMatchesScan) {
  // The live counter must track the O(n) recount through spawns, staggered
  // finishes, and a mid-run kill.
  Engine eng;
  Closures ev(eng);
  std::vector<std::pair<int, int>> probes;
  eng.spawn_pes(8, [&](int pe) { this_pe::advance(Time{10} * (pe + 1)); });
  for (Time t = 0; t <= 100; t += 25) {
    ev.schedule(t, [&] {
      probes.emplace_back(eng.fibers_unfinished(), eng.fibers_unfinished_scan());
    });
  }
  // pe 7 is mid-advance (finishes at t=80) when the kill lands at t=35: it
  // stays counted until its pending resume unwinds it via FiberKilled.
  ev.schedule(35_ns, [&] { eng.kill_pe(7); });
  EXPECT_EQ(eng.fibers_unfinished(), eng.fibers_unfinished_scan());
  eng.run();  // every fiber retires (7 normally, one unwound), so no error
  ASSERT_EQ(probes.size(), 5u);
  for (const auto& [live, scan] : probes) EXPECT_EQ(live, scan);
  EXPECT_EQ(eng.fibers_unfinished(), eng.fibers_unfinished_scan());
}

TEST(Engine, NestedSchedulingFromFibers) {
  Engine eng;
  Closures ev(eng);
  int hits = 0;
  eng.spawn(0, [&] {
    Engine* e = Engine::current();
    ev.schedule(e->now() + 5_ns, [&] { ++hits; });
    this_pe::advance(10_ns);
    EXPECT_EQ(hits, 1);
  });
  eng.run();
  EXPECT_EQ(hits, 1);
}

TEST(Time, Formatting) {
  EXPECT_EQ(format_time(12_ns), "12 ns");
  EXPECT_EQ(format_time(12'340_ns), "12.340 us");
  EXPECT_EQ(format_time(12'340'000_ns), "12.340 ms");
  EXPECT_EQ(format_time(2'500'000'000_ns), "2.500000 s");
}
