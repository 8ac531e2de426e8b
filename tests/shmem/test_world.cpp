// Integration tests for the OpenSHMEM implementation: symmetric allocation,
// RMA, strided RMA (both vendor behaviours), wait_until, atomics,
// collectives, and global locks.
#include "shmem/world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/profiles.hpp"

using namespace shmem;

namespace {

struct Harness {
  sim::Engine engine{64 * 1024};
  net::Fabric fabric;
  World world;

  explicit Harness(int npes, net::Machine m = net::Machine::kStampede,
                   net::Library lib = net::Library::kShmemMvapich,
                   std::size_t heap = 2 << 20)
      : fabric(net::machine_profile(m), npes),
        world(engine, fabric, net::sw_profile(lib, m), heap) {}

  void run(std::function<void()> pe_main) {
    world.launch(std::move(pe_main));
    engine.run();
  }
};

}  // namespace

TEST(ShmemWorld, PeIdentity) {
  Harness h(20);
  std::vector<int> seen(20, -1);
  h.run([&] {
    EXPECT_EQ(h.world.n_pes(), 20);
    seen[h.world.my_pe()] = h.world.my_pe();
  });
  for (int i = 0; i < 20; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ShmemWorld, ShmallocIsSymmetric) {
  Harness h(8);
  std::vector<std::uint64_t> offs(8);
  h.run([&] {
    auto* p = static_cast<int*>(h.world.shmalloc(64 * sizeof(int)));
    offs[h.world.my_pe()] = h.world.offset_of(p);
    auto* q = h.world.shmalloc(128);
    offs[h.world.my_pe()] += h.world.offset_of(q) << 20;  // mix both
    h.world.shfree(q);
    h.world.shfree(p);
  });
  for (int i = 1; i < 8; ++i) EXPECT_EQ(offs[i], offs[0]);
}

TEST(ShmemWorld, ShmallocMismatchDetected) {
  Harness h(2);
  EXPECT_THROW(
      h.run([&] {
        // PE 0 and PE 1 disagree on the size: a user error the collective
        // replay log must catch.
        (void)h.world.shmalloc(h.world.my_pe() == 0 ? 64 : 128);
      }),
      std::logic_error);
}

TEST(ShmemWorld, PutGetRoundTrip) {
  Harness h(32);
  h.run([&] {
    const int me = h.world.my_pe();
    const int n = h.world.n_pes();
    auto* buf = static_cast<int*>(h.world.shmalloc(4 * sizeof(int)));
    for (int i = 0; i < 4; ++i) buf[i] = me * 10 + i;
    h.world.barrier_all();
    // Put my values into my right neighbor's buffer; get from my left.
    const int right = (me + 1) % n;
    std::vector<int> mine(4);
    for (int i = 0; i < 4; ++i) mine[i] = me * 10 + i;
    // (puts target a scratch region to avoid racing the verification gets)
    auto* scratch = static_cast<int*>(h.world.shmalloc(4 * sizeof(int)));
    h.world.put(scratch, mine.data(), 4, right);
    h.world.quiet();
    h.world.barrier_all();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(scratch[i], ((me - 1 + n) % n) * 10 + i);
    }
    // And a get of the right neighbor's original buffer.
    std::vector<int> got(4);
    h.world.get(got.data(), buf, 4, right);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], right * 10 + i);
    h.world.barrier_all();
    h.world.shfree(scratch);
    h.world.shfree(buf);
  });
}

TEST(ShmemWorld, Figure1Program) {
  // The exact program of paper Figure 1 (right side), via the object API.
  Harness h(8);
  h.run([&] {
    auto* coarray_x = static_cast<int*>(h.world.shmalloc(4 * sizeof(int)));
    auto* coarray_y = static_cast<int*>(h.world.shmalloc(4 * sizeof(int)));
    const int my_image = h.world.my_pe() + 1;  // CAF images are 1-based
    for (int i = 0; i < 4; ++i) {
      coarray_x[i] = my_image;
      coarray_y[i] = 0;
    }
    h.world.barrier_all();
    // coarray_y(2) = coarray_x(3)[4] : get element 3 (1-based) from image 4.
    h.world.get(&coarray_y[1], &coarray_x[2], 1, 3);
    // coarray_x(1)[4] = coarray_y(2) : put element into image 4.
    h.world.put(&coarray_x[0], &coarray_y[1], 1, 3);
    h.world.quiet();
    h.world.barrier_all();
    EXPECT_EQ(coarray_y[1], 4);  // image 4 stored my_image == 4
    if (my_image == 4) {
      EXPECT_EQ(coarray_x[0], 4);
    }
  });
}

TEST(ShmemWorld, IputScattersForBothVendors) {
  for (auto [m, lib] : {std::pair{net::Machine::kStampede,
                                  net::Library::kShmemMvapich},
                        std::pair{net::Machine::kXC30,
                                  net::Library::kShmemCray}}) {
    Harness h(32, m, lib);
    h.run([&] {
      auto* dst = static_cast<int*>(h.world.shmalloc(64 * sizeof(int)));
      std::fill_n(dst, 64, -1);
      h.world.barrier_all();
      if (h.world.my_pe() == 0) {
        std::vector<int> src(16);
        std::iota(src.begin(), src.end(), 1000);
        h.world.iput(dst, src.data(), /*dst_stride=*/4, /*src_stride=*/1, 16,
                     /*pe=*/16);
        h.world.quiet();
      }
      h.world.barrier_all();
      if (h.world.my_pe() == 16) {
        for (int i = 0; i < 16; ++i) {
          EXPECT_EQ(dst[4 * i], 1000 + i) << "vendor " << h.world.sw().name;
          if (i % 4 != 0) {
            EXPECT_EQ(dst[4 * i + 1], -1);
          }
        }
      }
      h.world.barrier_all();
      h.world.shfree(dst);
    });
  }
}

TEST(ShmemWorld, IgetGathersForBothVendors) {
  for (auto [m, lib] : {std::pair{net::Machine::kStampede,
                                  net::Library::kShmemMvapich},
                        std::pair{net::Machine::kXC30,
                                  net::Library::kShmemCray}}) {
    Harness h(32, m, lib);
    h.run([&] {
      auto* src = static_cast<int*>(h.world.shmalloc(64 * sizeof(int)));
      for (int i = 0; i < 64; ++i) src[i] = h.world.my_pe() * 1000 + i;
      h.world.barrier_all();
      if (h.world.my_pe() == 0) {
        std::vector<int> dst(8, -1);
        h.world.iget(dst.data(), src, /*dst_stride=*/1, /*src_stride=*/8, 8,
                     16);
        for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], 16'000 + 8 * i);
      }
      h.world.barrier_all();
      h.world.shfree(src);
    });
  }
}

TEST(ShmemWorld, CraySingleIputFasterThanMvapichLoop) {
  // The core §V-B-2 observation: hardware iput vs software loop.
  auto run_time = [](net::Machine m, net::Library lib) {
    Harness h(32, m, lib);
    sim::Time elapsed = 0;
    h.run([&] {
      auto* dst = static_cast<int*>(h.world.shmalloc(4096 * sizeof(int)));
      h.world.barrier_all();
      if (h.world.my_pe() == 0) {
        std::vector<int> src(1024, 7);
        const sim::Time t0 = h.engine.now();
        h.world.iput(dst, src.data(), 4, 1, 1024, 16);
        h.world.quiet();
        elapsed = h.engine.now() - t0;
      }
      h.world.barrier_all();
    });
    return elapsed;
  };
  const sim::Time cray = run_time(net::Machine::kXC30, net::Library::kShmemCray);
  const sim::Time mvapich =
      run_time(net::Machine::kStampede, net::Library::kShmemMvapich);
  EXPECT_LT(cray * 3, mvapich);
}

TEST(ShmemWorld, WaitUntilBlocksUntilRemoteWrite) {
  Harness h(17);
  h.run([&] {
    auto* flag = static_cast<std::int64_t*>(h.world.shmalloc(8));
    *flag = 0;
    h.world.barrier_all();
    if (h.world.my_pe() == 16) {
      h.world.engine().advance(50'000);
      std::int64_t one = 1;
      h.world.put(flag, &one, 1, 0);
      h.world.quiet();
    } else if (h.world.my_pe() == 0) {
      h.world.wait_until(flag, Cmp::kEq, 1);
      EXPECT_GE(h.engine.now(), 50'000);
      EXPECT_EQ(*flag, 1);
    }
    h.world.barrier_all();
  });
}

TEST(ShmemWorld, AtomicsSerializeCorrectly) {
  Harness h(48, net::Machine::kTitan, net::Library::kShmemCray);
  h.run([&] {
    auto* ctr = static_cast<std::int64_t*>(h.world.shmalloc(8));
    *ctr = 0;
    h.world.barrier_all();
    h.world.add(ctr, 2, 0);
    h.world.inc(ctr, 0);
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      EXPECT_EQ(*ctr, 3 * 48);
    }
    h.world.barrier_all();
    // swap/cswap agreement: exactly one PE claims the token.
    auto* token = static_cast<std::int64_t*>(h.world.shmalloc(8));
    *token = 0;
    h.world.barrier_all();
    const std::int64_t prev =
        h.world.cswap(token, 0, h.world.my_pe() + 1, 0);
    static int winners = 0;
    if (prev == 0) ++winners;
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      EXPECT_EQ(winners, 1);
    }
  });
}

TEST(ShmemWorld, BarrierActuallySynchronizes) {
  Harness h(16);
  h.run([&] {
    // Each PE arrives at a staggered time; all must leave no earlier than
    // the last arrival.
    const sim::Time arrive = 1'000 * (h.world.my_pe() + 1);
    h.engine.advance(arrive);
    h.world.barrier_all();
    EXPECT_GE(h.engine.now(), 16'000);
  });
}

class ShmemCollectives : public ::testing::TestWithParam<int> {};

TEST_P(ShmemCollectives, BroadcastReachesAllPes) {
  const int n = GetParam();
  Harness h(n);
  h.run([&] {
    auto* buf = static_cast<int*>(h.world.shmalloc(8 * sizeof(int)));
    const int root = n > 3 ? 3 : 0;
    if (h.world.my_pe() == root) {
      for (int i = 0; i < 8; ++i) buf[i] = 777 + i;
    } else {
      std::fill_n(buf, 8, -1);
    }
    h.world.barrier_all();
    h.world.broadcast(buf, 8 * sizeof(int), root);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(buf[i], 777 + i);
    h.world.barrier_all();
    h.world.shfree(buf);
  });
}

TEST_P(ShmemCollectives, SumReductionMatchesSerial) {
  const int n = GetParam();
  Harness h(n);
  h.run([&] {
    const int me = h.world.my_pe();
    auto* dst = static_cast<long*>(h.world.shmalloc(4 * sizeof(long)));
    long src[4] = {me + 1L, 2L * me, -me, me * me * 1L};
    h.world.reduce(dst, src, 4, ReduceOp::kSum);
    long e0 = 0, e1 = 0, e2 = 0, e3 = 0;
    for (int p = 0; p < n; ++p) {
      e0 += p + 1;
      e1 += 2 * p;
      e2 += -p;
      e3 += p * p;
    }
    EXPECT_EQ(dst[0], e0);
    EXPECT_EQ(dst[1], e1);
    EXPECT_EQ(dst[2], e2);
    EXPECT_EQ(dst[3], e3);
    h.world.barrier_all();
    h.world.shfree(dst);
  });
}

TEST_P(ShmemCollectives, MinMaxReductions) {
  const int n = GetParam();
  Harness h(n);
  h.run([&] {
    const int me = h.world.my_pe();
    auto* out = static_cast<double*>(h.world.shmalloc(sizeof(double)));
    double v = (me * 37 % n) + 0.5;
    h.world.reduce(out, &v, 1, ReduceOp::kMax);
    double expect_max = 0;
    for (int p = 0; p < n; ++p) expect_max = std::max(expect_max, (p * 37 % n) + 0.5);
    EXPECT_DOUBLE_EQ(out[0], expect_max);
    h.world.reduce(out, &v, 1, ReduceOp::kMin);
    double expect_min = 1e30;
    for (int p = 0; p < n; ++p) expect_min = std::min(expect_min, (p * 37 % n) + 0.5);
    EXPECT_DOUBLE_EQ(out[0], expect_min);
    h.world.barrier_all();
    h.world.shfree(out);
  });
}

INSTANTIATE_TEST_SUITE_P(PeCounts, ShmemCollectives,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 17, 33, 64));

TEST(ShmemWorld, FcollectGathersInRankOrder) {
  Harness h(12);
  h.run([&] {
    auto* dst = static_cast<int*>(h.world.shmalloc(12 * sizeof(int)));
    const int mine = 100 + h.world.my_pe();
    h.world.fcollect(dst, &mine, sizeof(int));
    for (int p = 0; p < 12; ++p) EXPECT_EQ(dst[p], 100 + p);
    h.world.barrier_all();
    h.world.shfree(dst);
  });
}

TEST(ShmemWorld, GlobalLockMutualExclusion) {
  Harness h(24, net::Machine::kTitan, net::Library::kShmemCray);
  int counter = 0;  // host-side; protected only by the simulated lock
  h.run([&] {
    auto* lock = static_cast<std::int64_t*>(h.world.shmalloc(8));
    *lock = 0;
    h.world.barrier_all();
    for (int round = 0; round < 3; ++round) {
      h.world.set_lock(lock);
      const int snapshot = counter;
      h.engine.advance(500);  // critical section work
      counter = snapshot + 1;
      h.world.clear_lock(lock);
    }
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      EXPECT_EQ(counter, 24 * 3);
    }
  });
}

TEST(ShmemWorld, TestLockNonBlocking) {
  Harness h(2, net::Machine::kTitan, net::Library::kShmemCray);
  h.run([&] {
    auto* lock = static_cast<std::int64_t*>(h.world.shmalloc(8));
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      EXPECT_EQ(h.world.test_lock(lock), 0);  // acquired
      EXPECT_EQ(h.world.test_lock(lock), 1);  // already held
      h.world.clear_lock(lock);
    }
    h.world.barrier_all();
  });
}

TEST(ShmemWorld, ShmemPtrOnlyWithinNode) {
  Harness h(32);
  h.run([&] {
    auto* x = static_cast<int*>(h.world.shmalloc(sizeof(int)));
    *x = h.world.my_pe();
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      int* same_node = static_cast<int*>(h.world.ptr(x, 3));
      ASSERT_NE(same_node, nullptr);
      EXPECT_EQ(*same_node, 3);  // direct load from a same-node PE
      EXPECT_EQ(h.world.ptr(x, 16), nullptr);  // other node
    }
    h.world.barrier_all();
  });
}

TEST(ShmemWorld, QuietOrdersFigure4Sequence) {
  // Paper Figure 4: a(:)[2] = b(:) followed by c(:) = a(:)[2] requires
  // quiet between them; with quiet the get must see the put's data.
  Harness h(4);
  h.run([&] {
    auto* a = static_cast<int*>(h.world.shmalloc(16 * sizeof(int)));
    std::fill_n(a, 16, 0);
    std::vector<int> b(16, 9), c(16, -1);
    h.world.barrier_all();
    if (h.world.my_pe() == 0) {
      h.world.put(a, b.data(), 16, 1);
      h.world.quiet();  // remote completion before the read-back
      h.world.get(c.data(), a, 16, 1);
      for (int i = 0; i < 16; ++i) EXPECT_EQ(c[i], 9);
    }
    h.world.barrier_all();
  });
}

// ---- parked barriers and waits ----
//
// barrier_all's rounds and wait_until's flag test run as a gate on the
// scheduler (sim::Engine::park): a PE is switched in only when its barrier
// or wait is done. The pinned virtual times and event counts below were
// measured with the fiber running every round itself; parking must move
// nothing but the switch count.

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

void kill_event(void* engine, std::uint64_t pe, std::uint64_t) {
  static_cast<sim::Engine*>(engine)->kill_pe(static_cast<int>(pe));
}

constexpr int kStaggerPes = 64;
constexpr int kStaggerBarriers = 3;

struct StaggerCase {
  const char* name;
  net::Machine machine;
  net::Library lib;
  bool node_route;
  std::uint64_t exit_digest;  ///< FNV-1a over every PE's exit times
  sim::Time last_exit;
  std::size_t events;
};

}  // namespace

TEST(ShmemWorldParked, StaggeredBarriersExactWithOneSwitchInEach) {
  const StaggerCase cases[] = {
      {"stampede-mvapich fabric", net::Machine::kStampede,
       net::Library::kShmemMvapich, false, 14256472254089292914ull, 19'564,
       3'373},
      {"stampede-mvapich node", net::Machine::kStampede,
       net::Library::kShmemMvapich, true, 17004416080844299809ull, 18'550,
       3'359},
      {"titan-cray", net::Machine::kTitan, net::Library::kShmemCray, false,
       12601841774243863690ull, 22'724, 3'363},
  };
  for (const StaggerCase& c : cases) {
    SCOPED_TRACE(c.name);
    Harness h(kStaggerPes, c.machine, c.lib);
    if (c.node_route) {
      net::NodeTransportOptions opts;
      opts.enabled = true;
      h.world.domain().enable_node_transport(opts);
    }
    std::vector<sim::Time> exits(kStaggerPes * kStaggerBarriers, -1);
    h.run([&] {
      const int me = h.world.my_pe();
      h.engine.advance((me * 7919) % 5'000);  // staggered arrivals
      for (int b = 0; b < kStaggerBarriers; ++b) {
        h.world.barrier_all();
        exits[me * kStaggerBarriers + b] = h.engine.now();
      }
    });
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const sim::Time t : exits) digest = fnv1a(digest, t);
    EXPECT_EQ(digest, c.exit_digest);
    EXPECT_EQ(*std::max_element(exits.begin(), exits.end()), c.last_exit);
    EXPECT_EQ(h.engine.events_processed(), c.events);
    // Per PE: the first switch-in, the stagger's turn, one wake per barrier.
    EXPECT_LE(h.engine.stats().switches,
              static_cast<std::uint64_t>(kStaggerPes) *
                  (1 + 2 * kStaggerBarriers));
  }
}

TEST(ShmemWorldParked, KilledParkedPesUnwindOnTime) {
  // PE 0 arrives first and waits on a watcher for PE 63's round-0 flag when
  // it is killed; PE 40 is killed between its round-0 put and that put's
  // local completion, while its turn is pending.
  Harness h(kStaggerPes);
  std::vector<sim::Time> left(kStaggerPes, -1);
  struct LeaveStamp {
    Harness& h;
    sim::Time& at;
    ~LeaveStamp() { at = h.engine.now(); }
  };
  h.world.launch([&] {
    const int me = h.world.my_pe();
    h.engine.advance(me * 1'000);
    LeaveStamp stamp{h, left[me]};
    h.world.barrier_all();
  });
  h.engine.schedule_raw(10'000, &kill_event, &h.engine, 0);
  h.engine.schedule_raw(40'001, &kill_event, &h.engine, 40);
  std::string report;
  try {
    h.engine.run();
  } catch (const sim::FailedImageError& e) {
    report = e.what();
  }
  EXPECT_EQ(left[0], 10'000);  // unwound by the kill's own wake-up
  EXPECT_EQ(left[40], 40'090);  // unwound at its pending turn
  // Survivors whose rounds never needed the victims leave; the rest stall.
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const sim::Time t : left) digest = fnv1a(digest, t);
  EXPECT_EQ(digest, 14605605205566210793ull);
  EXPECT_EQ(h.engine.events_processed(), 816u);
  // The survivors' stall report still says what they wait in.
  EXPECT_NE(report.find("blocked in shmem_wait_until"), std::string::npos)
      << report;
  EXPECT_EQ(report.find("<untagged>"), std::string::npos) << report;
}

TEST(ShmemWorldParked, RoundPutToDeadPeerThrowsAtItsLocalCompletion) {
  // The round-0 put of `sender` targets `victim`, dead since 1 us: on the
  // fabric route (another node) the retransmit budget runs out; on the
  // node route the detached segment fails the one store.
  struct Leg {
    const char* name;
    bool node_route;
    int sender;
    int victim;
    int attempts;
    sim::Time give_up;
    sim::Time thrown_at;
    std::size_t events;
  };
  const Leg legs[] = {
      {"fabric", false, 15, 16, 11, 9'382'184, 5'090, 400},
      {"node", true, 0, 1, 1, 5'060, 5'010, 386},
  };
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.name);
    Harness h(32);
    if (leg.node_route) {
      net::NodeTransportOptions opts;
      opts.enabled = true;
      h.world.domain().enable_node_transport(opts);
    }
    net::FaultPlan plan;
    plan.with_seed(0xBA77).kill_pe(leg.victim, 1'000);
    net::FaultInjector inj(plan, 32, h.fabric.profile().cores_per_node);
    h.fabric.set_fault_injector(&inj);
    inj.arm(h.engine);
    int dst = -1;
    int attempts = 0;
    sim::Time give_up = -1;
    sim::Time thrown_at = -1;
    h.world.launch([&] {
      h.engine.advance(5'000);
      try {
        h.world.barrier_all();
      } catch (const fabric::PeerFailedError& e) {
        if (h.world.my_pe() != leg.sender) return;
        dst = e.dst_pe();
        attempts = e.attempts();
        give_up = e.time();
        thrown_at = h.engine.now();
      }
    });
    try {
      h.engine.run();
    } catch (const sim::DeadlockError&) {
      // The survivors stall in the barrier the victim never joins.
    }
    EXPECT_EQ(dst, leg.victim);
    EXPECT_EQ(attempts, leg.attempts);
    EXPECT_EQ(give_up, leg.give_up);
    EXPECT_EQ(thrown_at, leg.thrown_at);
    EXPECT_EQ(h.engine.events_processed(), leg.events);
  }
}

TEST(ShmemWorldParked, UnsatisfiedWakeStaysParked) {
  // PE 1 writes 1, 2, 3 into PE 0's flag; PE 0 waits for >= 3. The first
  // two writes wake the wait's gate, which re-arms the watcher without
  // switching PE 0 in: the wait costs one switch-in in all.
  auto run = [](bool wait, sim::Time* woke, std::size_t* events) {
    Harness h(2);
    h.run([&] {
      auto* flag = static_cast<std::int64_t*>(h.world.shmalloc(8));
      if (h.world.my_pe() == 0) {
        if (wait) h.world.wait_until(flag, Cmp::kGe, 3);
        *woke = h.engine.now();
        return;
      }
      for (std::int64_t v = 1; v <= 3; ++v) {
        h.engine.advance(1'000);
        h.world.p(flag, v, 0);
        h.world.quiet();
      }
    });
    *events = h.engine.events_processed();
    return h.engine.stats().switches;
  };
  sim::Time woke = -1;
  sim::Time idle = -1;
  std::size_t events = 0;
  std::size_t idle_events = 0;
  const std::uint64_t waiting = run(true, &woke, &events);
  const std::uint64_t not_waiting = run(false, &idle, &idle_events);
  EXPECT_EQ(woke, 4'324);
  EXPECT_EQ(events, 23u);
  EXPECT_EQ(waiting, not_waiting + 1);
}
