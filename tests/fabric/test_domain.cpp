// Integration tests for fabric::Domain: data actually moves between PE
// segments at the right virtual times, with correct completion semantics.
#include "fabric/domain.hpp"

#include <gtest/gtest.h>

#include "fabric/dmapp.hpp"
#include "fabric/verbs.hpp"

#include <cstring>
#include <numeric>

#include "net/fault.hpp"
#include "net/profiles.hpp"

using namespace fabric;
using namespace sim::literals;

namespace {

void kill_pe0(void* engine, std::uint64_t, std::uint64_t) {
  static_cast<sim::Engine*>(engine)->kill_pe(0);
}

struct World {
  sim::Engine engine;
  net::Fabric fabric;
  Domain domain;

  explicit World(int npes = 32,
                 net::Machine m = net::Machine::kStampede,
                 net::Library lib = net::Library::kShmemMvapich,
                 std::size_t seg = 1 << 20)
      : fabric(net::machine_profile(m), npes),
        domain(engine, fabric, net::sw_profile(lib, m), seg) {}
};

}  // namespace

TEST(Domain, PutMovesBytes) {
  World w;
  w.engine.spawn(0, [&] {
    int v = 424242;
    w.domain.put(16, 64, &v, sizeof v);
    w.domain.quiet();
  });
  w.engine.run();
  int got = 0;
  std::memcpy(&got, w.domain.segment(16) + 64, sizeof got);
  EXPECT_EQ(got, 424242);
}

TEST(Domain, PutCapturesSourceAtIssue) {
  // Local completion: mutating the source after put() returns must not
  // affect the delivered data (paper Figure 4 semantics).
  World w;
  w.engine.spawn(0, [&] {
    int v = 3;
    w.domain.put(16, 0, &v, sizeof v);
    v = 0;  // reuse immediately
    w.domain.quiet();
  });
  w.engine.run();
  int got = 0;
  std::memcpy(&got, w.domain.segment(16), sizeof got);
  EXPECT_EQ(got, 3);
}

TEST(Domain, DeliveryHappensAtModelTime) {
  World w;
  sim::Time t_after_quiet = -1;
  w.engine.spawn(0, [&] {
    int v = 7;
    w.domain.put(16, 0, &v, sizeof v);
    // Before quiet, virtual time is only the local completion.
    EXPECT_EQ(w.engine.now(), w.domain.sw().put_overhead);
    w.domain.quiet();
    t_after_quiet = w.engine.now();
  });
  w.engine.run();
  const auto& mp = w.fabric.profile();
  EXPECT_GE(t_after_quiet, w.domain.sw().put_overhead + mp.hw_latency);
}

TEST(Domain, GetReadsRemoteData) {
  World w;
  int got = 0;
  // PE 16 initializes its own segment locally at t=0 (plain host store);
  // PE 0 gets it.
  std::memcpy(w.domain.segment(16) + 128, "\xef\xbe\xad\xde", 4);
  w.engine.spawn(0, [&] {
    w.domain.get(&got, 16, 128, sizeof got);
    EXPECT_GT(w.engine.now(), 0);
  });
  w.engine.run();
  EXPECT_EQ(got, static_cast<int>(0xdeadbeef));
}

TEST(Domain, GetSnapshotsAtServiceTime) {
  // A put delivered before the get's service time must be visible; the
  // event ordering of the DES guarantees it.
  World w;
  int got = 0;
  w.engine.spawn(0, [&] {
    int v = 55;
    w.domain.put(16, 0, &v, sizeof v);
    w.domain.quiet();  // ensure delivery before the get below
    w.domain.get(&got, 16, 0, sizeof got);
  });
  w.engine.run();
  EXPECT_EQ(got, 55);
}

TEST(Domain, AmoFetchAddAccumulatesAcrossPes) {
  World w(48, net::Machine::kTitan, net::Library::kShmemCray);
  std::vector<std::uint64_t> fetched(48, ~0ull);
  for (int pe = 0; pe < 48; ++pe) {
    w.engine.spawn(pe, [&, pe] {
      fetched[pe] = w.domain.amo(AmoOp::kFetchAdd, 0, 0, 1);
    });
  }
  w.engine.run();
  std::uint64_t final = 0;
  std::memcpy(&final, w.domain.segment(0), sizeof final);
  EXPECT_EQ(final, 48u);
  // Fetched values are a permutation of 0..47 (atomicity).
  std::sort(fetched.begin(), fetched.end());
  for (std::uint64_t i = 0; i < 48; ++i) EXPECT_EQ(fetched[i], i);
}

TEST(Domain, AmoCompareSwapOnlyOneWinner) {
  World w(32, net::Machine::kTitan, net::Library::kShmemCray);
  int winners = 0;
  for (int pe = 0; pe < 32; ++pe) {
    w.engine.spawn(pe, [&, pe] {
      const std::uint64_t old =
          w.domain.amo(AmoOp::kCompareSwap, 0, 8, pe + 1, 0);
      if (old == 0) ++winners;
    });
  }
  w.engine.run();
  EXPECT_EQ(winners, 1);
}

TEST(Domain, AmoBitwiseOps) {
  World w;
  w.engine.spawn(0, [&] {
    w.domain.amo(AmoOp::kFetchOr, 16, 0, 0b1010);
    w.domain.amo(AmoOp::kFetchAnd, 16, 0, 0b0110);
    const std::uint64_t before = w.domain.amo(AmoOp::kFetchXor, 16, 0, 0b0011);
    EXPECT_EQ(before, 0b0010u);
  });
  w.engine.run();
  std::uint64_t final = 0;
  std::memcpy(&final, w.domain.segment(16), sizeof final);
  EXPECT_EQ(final, 0b0001u);
}

namespace {

void store_i64(Domain& d, int pe, std::uint64_t off, std::int64_t v) {
  std::memcpy(d.segment(pe) + off, &v, sizeof v);
}

void preset_words(void* domain, std::uint64_t, std::uint64_t) {
  // Satisfies PE 17's and PE 19's waits behind the Domain's back: no
  // delivery touches these words, so only a wrong wake can return them.
  auto& d = *static_cast<Domain*>(domain);
  store_i64(d, 17, 48, 1);
  store_i64(d, 19, 40, 1);
}

}  // namespace

// Deliveries wake Domain waiters: the waiter whose word the write overlaps,
// on the written PE, at the delivery time, and no other. PE 16's word lies
// inside put A's range [32, 48); PE 17's word at 48 lies just past put B's
// range [32, 48); PE 19's word sits at PE 16's offset on an unwritten PE;
// PE 18's word takes the AMO. PE 17 and PE 19 are released by later puts of
// their own.
TEST(Domain, DeliveriesWakeOverlappingWaiters) {
  World w;
  net::PutCompletion a{}, b{}, c{}, d{};
  sim::Time amo_done = -1;
  sim::Time woke[20] = {};
  w.engine.spawn(0, [&] {
    const std::int64_t v[2] = {1, 2};
    a = w.domain.put(16, 32, v, sizeof v, /*pipelined=*/true);
    b = w.domain.put(17, 32, v, sizeof v, /*pipelined=*/true);
    w.domain.amo(AmoOp::kFetchAdd, 18, 0, 5);
    amo_done = w.engine.now();
    const std::int64_t one = 1;
    c = w.domain.put(17, 48, &one, sizeof one);
    d = w.domain.put(19, 40, &one, sizeof one);
    w.domain.quiet();
  });
  const struct {
    int pe;
    std::uint64_t off;
    Cmp cmp;
    std::int64_t value;
  } waits[] = {{16, 40, Cmp::kEq, 2},
               {17, 48, Cmp::kNe, 0},
               {18, 0, Cmp::kEq, 5},
               {19, 40, Cmp::kNe, 0}};
  for (const auto& wt : waits) {
    w.engine.spawn(wt.pe, [&w, &woke, wt] {
      w.domain.wait_until(wt.pe, wt.off, wt.cmp, wt.value, "test_wait");
      woke[wt.pe] = w.engine.now();
    });
  }
  w.engine.schedule_raw(1_ns, &preset_words, &w.domain);
  w.engine.run();
  EXPECT_EQ(woke[16], a.delivered);
  EXPECT_LT(b.delivered, c.delivered);
  EXPECT_EQ(woke[17], c.delivered);
  EXPECT_GT(woke[18], 0);
  EXPECT_LT(woke[18], amo_done);
  EXPECT_LT(a.delivered, d.delivered);
  EXPECT_EQ(woke[19], d.delivered);
}

TEST(Domain, HwStridedPutScattersCorrectly) {
  World w(32, net::Machine::kXC30, net::Library::kShmemCray);
  w.engine.spawn(0, [&] {
    std::vector<int> src(10);
    std::iota(src.begin(), src.end(), 100);
    // Source stride 1 element, destination stride 3 elements.
    w.domain.iput_hw(16, 0, 3, src.data(), 1, sizeof(int), 10);
    w.domain.quiet();
  });
  w.engine.run();
  for (int i = 0; i < 10; ++i) {
    int got = 0;
    std::memcpy(&got, w.domain.segment(16) + i * 3 * sizeof(int), sizeof got);
    EXPECT_EQ(got, 100 + i);
  }
}

TEST(Domain, HwStridedGetGathersCorrectly) {
  World w(32, net::Machine::kXC30, net::Library::kShmemCray);
  for (int i = 0; i < 8; ++i) {
    const int v = 7 * i;
    std::memcpy(w.domain.segment(16) + i * 2 * sizeof(int), &v, sizeof v);
  }
  std::vector<int> dst(8, -1);
  w.engine.spawn(0, [&] {
    w.domain.iget_hw(dst.data(), 1, 16, 0, 2, sizeof(int), 8);
  });
  w.engine.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], 7 * i);
}

TEST(Domain, QuietWaitsForAllOutstanding) {
  World w;
  w.engine.spawn(0, [&] {
    std::vector<char> buf(1 << 16, 'x');
    sim::Time last_local = 0;
    for (int i = 0; i < 8; ++i) {
      w.domain.put(16 + i, 0, buf.data(), buf.size(), /*pipelined=*/true);
      last_local = w.engine.now();
    }
    w.domain.quiet();
    EXPECT_GT(w.engine.now(), last_local);
    EXPECT_GE(w.engine.now(), w.domain.outstanding(0));
  });
  w.engine.run();
}

TEST(Domain, OutOfRangeAccessThrows) {
  World w(32, net::Machine::kStampede, net::Library::kShmemMvapich, 4096);
  w.engine.spawn(0, [&] {
    char c = 0;
    EXPECT_THROW(w.domain.put(16, 4096, &c, 1), std::out_of_range);
    EXPECT_THROW(w.domain.get(&c, 16, 5000, 1), std::out_of_range);
  });
  w.engine.run();
}

// A read's reply reaches an initiator that was killed while the request was
// in flight. The initiator's frame has unwound, and with it the vector the
// reply was headed for: the completion must not copy into it.
TEST(Domain, GetToKilledInitiatorWritesNoFreedMemory) {
  World w;
  bool returned = false;
  w.engine.spawn(0, [&] {
    std::vector<std::byte> dst(4096);
    w.domain.get(dst.data(), 16, 0, 4096);
    returned = true;
  });
  w.engine.schedule_raw(100_ns, &kill_pe0, &w.engine);
  w.engine.run();
  EXPECT_FALSE(returned);
  EXPECT_TRUE(w.engine.pe_failed(0));
}

TEST(Domain, StridedGetToKilledInitiatorWritesNoFreedMemory) {
  World w(32, net::Machine::kXC30, net::Library::kShmemCray);
  bool returned = false;
  w.engine.spawn(0, [&] {
    std::vector<std::byte> dst(4096);
    w.domain.iget_hw(dst.data(), 2, 24, 0, 1, 64, 32);
    returned = true;
  });
  w.engine.schedule_raw(100_ns, &kill_pe0, &w.engine);
  w.engine.run();
  EXPECT_FALSE(returned);
  EXPECT_TRUE(w.engine.pe_failed(0));
}

// The request is on the wire when its initiator dies: the target still
// applies the AMO, at the same virtual time as when nobody dies. The kill
// comes either straight from the engine or from a fault plan, which the
// fabric knows about: the reply is then lost at the corpse, and the live
// target must neither lose the update nor be declared.
TEST(Domain, AmoFromKilledInitiatorStillUpdatesTarget) {
  enum class Kill { kNone, kEngine, kPlan };
  auto run = [](Kill kill) {
    World w;
    net::FaultPlan plan;
    plan.kill_pe(0, 100_ns);
    net::FaultInjector inj(plan, 32, w.fabric.profile().cores_per_node);
    if (kill == Kill::kPlan) {
      w.fabric.set_fault_injector(&inj);
      inj.arm(w.engine);
    }
    sim::Time updated_at = -1;
    w.engine.spawn(16, [&] {
      w.domain.wait_until(16, 8, Cmp::kEq, 5, "test_wait");
      updated_at = w.engine.now();
    });
    w.engine.spawn(0, [&] { w.domain.amo(AmoOp::kFetchAdd, 16, 8, 5); });
    if (kill == Kill::kEngine) {
      w.engine.schedule_raw(100_ns, &kill_pe0, &w.engine);
    }
    w.engine.run();
    std::uint64_t word = 0;
    std::memcpy(&word, w.domain.segment(16) + 8, sizeof word);
    EXPECT_EQ(word, 5u);
    EXPECT_EQ(w.engine.pe_failed(0), kill != Kill::kNone);
    EXPECT_FALSE(w.engine.pe_declared(16));
    EXPECT_LE(w.engine.declared_count(), 1);
    return updated_at;
  };
  const sim::Time clean = run(Kill::kNone);
  const sim::Time killed = run(Kill::kEngine);
  EXPECT_GT(killed, 100_ns);
  EXPECT_EQ(killed, clean);
  EXPECT_EQ(run(Kill::kPlan), clean);
}

TEST(Verbs, ApiRoundTrip) {
  sim::Engine engine;
  net::Fabric fab(net::machine_profile(net::Machine::kStampede), 32);
  fabric::verbs::Hca hca(engine, fab, 1 << 16);
  engine.spawn(0, [&] {
    std::uint64_t v = 99;
    hca.rdma_write(16, 0, &v, sizeof v);
    hca.poll_cq_drain();
    std::uint64_t r = 0;
    hca.rdma_read(&r, 16, 0, sizeof r);
    EXPECT_EQ(r, 99u);
    EXPECT_EQ(hca.atomic_fetch_add(16, 0, 1), 99u);
    EXPECT_EQ(hca.atomic_cmp_swap(16, 0, 100, 7), 100u);
    hca.rdma_read(&r, 16, 0, sizeof r);
    EXPECT_EQ(r, 7u);
  });
  engine.run();
}

TEST(Dmapp, ApiRoundTripWithStrided) {
  sim::Engine engine;
  net::Fabric fab(net::machine_profile(net::Machine::kXC30), 32);
  fabric::dmapp::Context ctx(engine, fab, 1 << 16);
  engine.spawn(0, [&] {
    std::vector<long> src{1, 2, 3, 4, 5};
    ctx.iput(16, 0, 2, src.data(), 1, sizeof(long), src.size());
    ctx.gsync_wait();
    std::vector<long> back(5, 0);
    ctx.iget(back.data(), 1, 16, 0, 2, sizeof(long), 5);
    EXPECT_EQ(back, src);
    EXPECT_EQ(ctx.afadd(16, 8 * 9, 5), 0u);
    EXPECT_EQ(ctx.aswap(16, 8 * 9, 11), 5u);
    EXPECT_EQ(ctx.acswap(16, 8 * 9, 11, 13), 11u);
    EXPECT_EQ(ctx.afax(fabric::AmoOp::kFetchAnd, 16, 8 * 9, 0xF), 13u);
  });
  engine.run();
}
