// The flag wait and dissemination barrier that fabric::Domain provides to
// all five runtimes (SHMEM, ARMCI, GASNet, MPI-3, Cray-CAF), seen through
// each runtime's own API: which writes wake a wait, what a stalled image's
// report names, and that parked barriers keep every virtual time.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "armci/armci.hpp"
#include "craycaf/craycaf.hpp"
#include "gasnet/gasnet.hpp"
#include "mpi3/rma.hpp"
#include "net/fault.hpp"
#include "net/profiles.hpp"
#include "shmem/world.hpp"

using fabric::Cmp;

namespace {

net::SwProfile stampede(net::Library lib) {
  return net::sw_profile(lib, net::Machine::kStampede);
}

/// Two PEs on one machine, the world every single-wait test below uses.
struct Pair {
  sim::Engine engine;
  net::Fabric fabric;
  explicit Pair(net::Machine m = net::Machine::kStampede)
      : fabric(net::machine_profile(m), 2) {}
};

constexpr std::int32_t kTail = 1;  // written at off + 4: the word becomes 2^32

}  // namespace

// A write covering only a watched word's tail bytes still changes the word,
// so it must wake the wait it satisfies: a waiter is woken by any write that
// overlaps its word, not only by one that covers its first byte. In each
// runtime, PE 1 waits for its word to become nonzero, and PE 0 writes the
// word's upper four bytes at 1 us.
TEST(TailWriteWakes, Shmem) {
  Pair p;
  shmem::World world(p.engine, p.fabric,
                     stampede(net::Library::kShmemMvapich), 1 << 20);
  sim::Time woke = -1;
  world.launch([&] {
    auto* flag = static_cast<std::int64_t*>(world.shmalloc(8));
    if (world.my_pe() == 1) {
      world.wait_until(flag, Cmp::kNe, 0);
      woke = p.engine.now();
      return;
    }
    p.engine.advance(1'000);
    world.putmem(reinterpret_cast<char*>(flag) + 4, &kTail, 4, 1);
  });
  p.engine.run();
  EXPECT_GT(woke, 1'000);
}

TEST(TailWriteWakes, Armci) {
  Pair p;
  armci::World world(p.engine, p.fabric, stampede(net::Library::kArmci),
                     1 << 20);
  sim::Time woke = -1;
  world.launch([&] {
    const std::uint64_t off = world.malloc_collective(8);
    if (world.me() == 1) {
      world.wait_until_local(off, Cmp::kNe, 0);
      woke = p.engine.now();
      return;
    }
    p.engine.advance(1'000);
    world.put(1, off + 4, &kTail, 4);
  });
  p.engine.run();
  EXPECT_GT(woke, 1'000);
}

TEST(TailWriteWakes, Gasnet) {
  Pair p;
  gasnet::World world(p.engine, p.fabric, stampede(net::Library::kGasnet),
                      1 << 20);
  const std::uint64_t off = gasnet::World::reserved_bytes() + 64;
  sim::Time woke = -1;
  world.launch([&] {
    if (world.mynode() == 1) {
      world.block_until(off, Cmp::kNe, 0);
      woke = p.engine.now();
      return;
    }
    p.engine.advance(1'000);
    world.put(1, off + 4, &kTail, 4);
  });
  p.engine.run();
  EXPECT_GT(woke, 1'000);
}

TEST(TailWriteWakes, Mpi3) {
  Pair p;
  mpi3::Window win(p.engine, p.fabric, stampede(net::Library::kMpi3), 1 << 20);
  sim::Time woke = -1;
  win.launch([&] {
    const std::uint64_t off = win.allocate_collective(8);
    if (win.rank() == 1) {
      win.wait_until_local(off, Cmp::kNe, 0);
      woke = p.engine.now();
      return;
    }
    p.engine.advance(1'000);
    win.put(&kTail, 4, 1, off + 4);
    win.flush_all();
  });
  p.engine.run();
  EXPECT_GT(woke, 1'000);
}

TEST(TailWriteWakes, CrayCaf) {
  // Cray-CAF waits only inside its own sync_all and collectives. Image 2's
  // sync_all waits on its round-0 flag, the first word of its segment;
  // image 1 never joins the barrier and writes that word's tail instead,
  // which satisfies the wait for generation 1.
  Pair p(net::Machine::kXC30);
  craycaf::Runtime rt(p.engine, p.fabric, 1 << 20);
  sim::Time woke = -1;
  rt.launch([&] {
    if (rt.this_image() == 2) {
      rt.sync_all();
      woke = p.engine.now();
      return;
    }
    p.engine.advance(1'000);
    rt.put_bytes(2, 4, &kTail, 4);
  });
  p.engine.run();
  EXPECT_GT(woke, 1'000);
}

namespace {

/// The deadlock report of `p`'s run, which must stall.
std::string stall_report(Pair& p) {
  try {
    p.engine.run();
  } catch (const sim::DeadlockError& e) {
    return e.what();
  }
  ADD_FAILURE() << "the run did not stall";
  return {};
}

net::SwProfile xc30(net::Library lib) {
  return net::sw_profile(lib, net::Machine::kXC30);
}

}  // namespace

// PE 0 enters its runtime's barrier and PE 1 never does: the stall report
// says PE 0 is blocked in the runtime's own wait.
TEST(StallReport, NamesEachRuntimesOwnWait) {
  std::vector<std::string> reports;
  {
    Pair p(net::Machine::kXC30);
    armci::World w(p.engine, p.fabric, xc30(net::Library::kArmci), 1 << 16);
    w.launch([&] {
      if (w.me() == 0) w.barrier();
    });
    reports.push_back(stall_report(p));
    EXPECT_NE(reports.back().find("blocked in armci_wait_until"),
              std::string::npos);
  }
  {
    Pair p(net::Machine::kXC30);
    gasnet::World w(p.engine, p.fabric, xc30(net::Library::kGasnet), 1 << 16);
    w.launch([&] {
      if (w.mynode() == 0) w.barrier();
    });
    reports.push_back(stall_report(p));
    EXPECT_NE(reports.back().find("blocked in gasnet_block_until"),
              std::string::npos);
  }
  {
    Pair p(net::Machine::kXC30);
    mpi3::Window w(p.engine, p.fabric, xc30(net::Library::kMpi3), 1 << 16);
    w.launch([&] {
      if (w.rank() == 0) w.barrier();
    });
    reports.push_back(stall_report(p));
    EXPECT_NE(reports.back().find("blocked in mpi3_wait_until"),
              std::string::npos);
  }
  {
    Pair p(net::Machine::kXC30);
    craycaf::Runtime rt(p.engine, p.fabric, 1 << 20);
    rt.launch([&] {
      if (rt.this_image() == 1) rt.sync_all();
    });
    reports.push_back(stall_report(p));
    EXPECT_NE(reports.back().find("blocked in craycaf_wait_until"),
              std::string::npos);
  }
  for (const std::string& r : reports) {
    EXPECT_NE(r.find("[pe 0]"), std::string::npos) << r;
    EXPECT_EQ(r.find("[pe 1]"), std::string::npos) << r;
    EXPECT_EQ(r.find("<untagged>"), std::string::npos) << r;
  }
}

// ---- parked barriers beyond SHMEM ----
//
// GASNet's barrier sends its round flags as active messages, MPI-3's as
// blocking puts; both run on the Domain's parked dissemination barrier. The
// pinned virtual times and event counts were measured with each fiber
// running every round itself; parking must move nothing but the switch
// count.

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr int kStaggerRanks = 64;
constexpr int kStaggerBarriers = 3;

struct StaggerResult {
  std::uint64_t digest = 0xcbf29ce484222325ull;  ///< FNV-1a of exit times
  sim::Time last_exit = -1;
  std::size_t events = 0;
  std::uint64_t switches = 0;
};

/// 64 ranks arrive staggered and run three back-to-back barriers.
template <typename Rt>
StaggerResult staggered(sim::Engine& engine, Rt& rt, auto rank,
                        auto barrier) {
  std::vector<sim::Time> exits(kStaggerRanks * kStaggerBarriers, -1);
  rt.launch([&] {
    const int me = rank();
    engine.advance((me * 7919) % 5'000);
    for (int b = 0; b < kStaggerBarriers; ++b) {
      barrier();
      exits[me * kStaggerBarriers + b] = engine.now();
    }
  });
  engine.run();
  StaggerResult r;
  for (const sim::Time t : exits) r.digest = fnv1a(r.digest, t);
  r.last_exit = *std::max_element(exits.begin(), exits.end());
  r.events = engine.events_processed();
  r.switches = engine.stats().switches;
  return r;
}

// Per rank: the first switch-in, the stagger's turn, one wake per barrier.
constexpr std::uint64_t kSwitchBound =
    static_cast<std::uint64_t>(kStaggerRanks) * (1 + 2 * kStaggerBarriers);

}  // namespace

TEST(ParkedBarrier, GasnetAmFlagsExactWithOneSwitchInEach) {
  sim::Engine engine{64 * 1024};
  net::Fabric fabric(net::machine_profile(net::Machine::kStampede),
                     kStaggerRanks);
  gasnet::World world(engine, fabric, stampede(net::Library::kGasnet),
                      1 << 16);
  const StaggerResult r = staggered(
      engine, world, [&] { return world.mynode(); }, [&] { world.barrier(); });
  EXPECT_EQ(r.digest, 2685368723370953902ull);
  EXPECT_EQ(r.last_exit, 32'281);
  EXPECT_EQ(r.events, 3'217u);
  EXPECT_LE(r.switches, kSwitchBound);
}

TEST(ParkedBarrier, Mpi3BlockingPutFlagsExactWithOneSwitchInEach) {
  sim::Engine engine{64 * 1024};
  net::Fabric fabric(net::machine_profile(net::Machine::kStampede),
                     kStaggerRanks);
  mpi3::Window win(engine, fabric, stampede(net::Library::kMpi3), 1 << 16);
  const StaggerResult r = staggered(
      engine, win, [&] { return win.rank(); }, [&] { win.barrier(); });
  EXPECT_EQ(r.digest, 1769445610742502221ull);
  EXPECT_EQ(r.last_exit, 30'764);
  EXPECT_EQ(r.events, 3'366u);
  EXPECT_LE(r.switches, kSwitchBound);
}

TEST(ParkedBarrier, GasnetFlagAmToDeadPeerThrowsAtItsInjection) {
  // Node 15's round-0 flag AM targets node 16 (the next node of 16 cores),
  // dead since 1 us: the retransmit budget runs out, and the barrier throws
  // the request's PeerFailedError once its injection is done.
  sim::Engine engine{64 * 1024};
  net::Fabric fabric(net::machine_profile(net::Machine::kStampede), 32);
  gasnet::World world(engine, fabric, stampede(net::Library::kGasnet),
                      1 << 16);
  net::FaultPlan plan;
  plan.with_seed(0xBA77).kill_pe(16, 1'000);
  net::FaultInjector inj(plan, 32, fabric.profile().cores_per_node);
  fabric.set_fault_injector(&inj);
  inj.arm(engine);
  std::string op;
  int dst = -1;
  int attempts = 0;
  sim::Time give_up = -1;
  sim::Time thrown_at = -1;
  world.launch([&] {
    engine.advance(5'000);
    try {
      world.barrier();
    } catch (const fabric::PeerFailedError& e) {
      if (world.mynode() != 15) return;
      op = e.op();
      dst = e.dst_pe();
      attempts = e.attempts();
      give_up = e.time();
      thrown_at = engine.now();
    }
  });
  try {
    engine.run();
  } catch (const sim::DeadlockError&) {
    // The survivors stall in the barrier the dead node never joins.
  }
  EXPECT_EQ(op, "am");
  EXPECT_EQ(dst, 16);
  EXPECT_EQ(attempts, 11);
  EXPECT_EQ(give_up, 10'821'029);
  EXPECT_EQ(thrown_at, 5'300);
  EXPECT_EQ(engine.events_processed(), 395u);
}
