// Tests for the GASNet-like conduit: put/get semantics, nbi + sync, active
// messages (fire-and-forget and reply), AM-emulated atomics, barrier.
#include "gasnet/gasnet.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "net/fault.hpp"
#include "net/profiles.hpp"

using namespace gasnet;

namespace {

struct Harness {
  sim::Engine engine{64 * 1024};
  net::Fabric fabric;
  World world;

  explicit Harness(int nodes, net::Machine m = net::Machine::kStampede,
                   std::size_t seg = 1 << 20)
      : fabric(net::machine_profile(m), nodes),
        world(engine, fabric, net::sw_profile(net::Library::kGasnet, m), seg) {}

  void run(std::function<void()> main) {
    world.launch(std::move(main));
    engine.run();
  }
};

constexpr std::uint64_t kOff = gasnet::World::reserved_bytes() + 64;

void kill_node0(void* engine, std::uint64_t, std::uint64_t) {
  static_cast<sim::Engine*>(engine)->kill_pe(0);
}

/// How node 0 dies at 100 ns, after injection: not at all, straight from
/// the engine, or from a fault plan the fabric knows about.
enum class Kill { kNone, kEngine, kPlan };

/// Node 0 sends one AM (with a reply when `reply`) to node 16 and is killed
/// per `kill`. Returns the handler's start time at the target, or -1 when
/// it never ran.
sim::Time am_to_16(bool reply, Kill kill) {
  Harness h(32);
  net::FaultPlan plan;
  plan.kill_pe(0, 100);
  net::FaultInjector inj(plan, 32, h.fabric.profile().cores_per_node);
  if (kill == Kill::kPlan) {
    h.fabric.set_fault_injector(&inj);
    inj.arm(h.engine);
  }
  sim::Time ran_at = -1;
  const int hidx = h.world.register_handler(
      [&](const Token& tok, std::span<const std::byte> payload,
          std::uint64_t a0, std::uint64_t) -> std::uint64_t {
        EXPECT_EQ(tok.src_node, 0);
        EXPECT_EQ(tok.dst_node, 16);
        EXPECT_EQ(a0, 7u);
        EXPECT_EQ(payload.size(), 3u);
        ran_at = tok.when;
        return 42;
      });
  h.world.launch([&] {
    if (h.world.mynode() != 0) return;
    const char pay[3] = {'a', 'b', 'c'};
    if (reply) {
      std::uint64_t got = h.world.am_request_reply(16, hidx, 7, 0, pay, 3);
      EXPECT_EQ(got, 42u);
    } else {
      h.world.am_request(16, hidx, 7, 0, pay, 3);
    }
  });
  if (kill == Kill::kEngine) h.engine.schedule_raw(100, &kill_node0, &h.engine);
  h.engine.run();
  EXPECT_EQ(h.engine.pe_failed(0), kill != Kill::kNone);
  // Only the corpse may be declared, never the live target.
  EXPECT_FALSE(h.engine.pe_declared(16));
  EXPECT_LE(h.engine.declared_count(), 1);
  return ran_at;
}

}  // namespace

TEST(Gasnet, BlockingPutIsRemotelyComplete) {
  Harness h(32);
  h.run([&] {
    if (h.world.mynode() == 0) {
      const std::int64_t v = 1234;
      const sim::Time t0 = h.engine.now();
      h.world.put(16, kOff, &v, sizeof v);
      // gasnet_put blocks for the full delivery (≥ wire latency).
      EXPECT_GE(h.engine.now() - t0, h.fabric.profile().hw_latency);
      // Data is already visible at the target without any further sync.
      std::int64_t check = 0;
      std::memcpy(&check, h.world.seg(16) + kOff, sizeof check);
      EXPECT_EQ(check, 1234);
    }
  });
}

TEST(Gasnet, NbiPutsCompleteAtSync) {
  Harness h(32);
  h.run([&] {
    if (h.world.mynode() == 0) {
      std::vector<char> buf(4096, 'a');
      for (int i = 0; i < 10; ++i) {
        h.world.put_nbi(16, kOff + i * 4096, buf.data(), buf.size());
      }
      h.world.wait_syncnbi_puts();
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(static_cast<char>(*(h.world.seg(16) + kOff + i * 4096)), 'a');
      }
    }
  });
}

TEST(Gasnet, GetReadsRemote) {
  Harness h(32);
  h.run([&] {
    if (h.world.mynode() == 16) {
      const std::int64_t v = 77;
      std::memcpy(h.world.seg(16) + kOff, &v, sizeof v);
    }
    h.world.barrier();
    if (h.world.mynode() == 0) {
      std::int64_t got = 0;
      h.world.get(&got, 16, kOff, sizeof got);
      EXPECT_EQ(got, 77);
    }
  });
}

TEST(Gasnet, AmRequestRunsHandlerOnTarget) {
  Harness h(32);
  int handler_runs = 0;
  const int hidx = h.world.register_handler(
      [&](const Token& tok, std::span<const std::byte> payload,
          std::uint64_t a0, std::uint64_t a1) -> std::uint64_t {
        ++handler_runs;
        EXPECT_EQ(tok.src_node, 0);
        EXPECT_EQ(a0, 5u);
        EXPECT_EQ(a1, 6u);
        EXPECT_EQ(payload.size(), 3u);
        return 0;
      });
  h.run([&] {
    if (h.world.mynode() == 0) {
      const char pay[3] = {'x', 'y', 'z'};
      h.world.am_request(16, hidx, 5, 6, pay, sizeof pay);
    }
    h.world.barrier();
  });
  EXPECT_EQ(handler_runs, 1);
}

TEST(Gasnet, AmFromKilledSenderStillRunsHandler) {
  const sim::Time clean = am_to_16(false, Kill::kNone);
  const sim::Time killed = am_to_16(false, Kill::kEngine);
  EXPECT_GT(killed, 100);
  EXPECT_EQ(killed, clean);
  EXPECT_EQ(am_to_16(false, Kill::kPlan), clean);
}

TEST(Gasnet, AmReplyToKilledRequesterStillRunsHandler) {
  const sim::Time clean = am_to_16(true, Kill::kNone);
  const sim::Time killed = am_to_16(true, Kill::kEngine);
  EXPECT_GT(killed, 100);
  EXPECT_EQ(killed, clean);
}

TEST(Gasnet, AmReplyEmulatesFetchAdd) {
  // The exact pattern the CAF-over-GASNet conduit uses for atomics.
  Harness h(32);
  const int fadd = h.world.register_handler(
      [&](const Token& tok, std::span<const std::byte>, std::uint64_t off,
          std::uint64_t add) -> std::uint64_t {
        // The handler runs on the target: read-modify-write its segment.
        std::int64_t v = 0;
        std::memcpy(&v, h.world.seg(16) + off, sizeof v);
        const std::int64_t neu = v + static_cast<std::int64_t>(add);
        tok.world.domain().poke(16, off, &neu, sizeof neu, tok.when);
        return static_cast<std::uint64_t>(v);
      });
  h.run([&] {
    if (h.world.mynode() != 16) {
      (void)h.world.am_request_reply(16, fadd, kOff, 1);
    }
    h.world.barrier();
    if (h.world.mynode() == 0) {
      std::int64_t v = 0;
      std::memcpy(&v, h.world.seg(16) + kOff, sizeof v);
      EXPECT_EQ(v, 31);  // 31 requesters
    }
  });
}

TEST(Gasnet, AmAtomicsSlowerThanShmemNicAtomics) {
  // §III: remote atomics give SHMEM an edge over GASNet. Measure one
  // emulated fetch-add round trip vs the fabric's NIC AMO timing.
  Harness h(32, net::Machine::kTitan);
  const int noop = h.world.register_handler(
      [](const Token&, std::span<const std::byte>, std::uint64_t,
         std::uint64_t) -> std::uint64_t { return 0; });
  sim::Time am_rt = 0;
  h.run([&] {
    if (h.world.mynode() == 0) {
      const sim::Time t0 = h.engine.now();
      (void)h.world.am_request_reply(16, noop, 0, 0);
      am_rt = h.engine.now() - t0;
    }
  });
  net::Fabric f2(net::machine_profile(net::Machine::kTitan), 32);
  const auto nic = f2.submit_amo(
      0, 16, net::sw_profile(net::Library::kShmemCray, net::Machine::kTitan), 0);
  EXPECT_GT(am_rt, nic.complete);
}

TEST(Gasnet, BarrierSynchronizesStaggeredNodes) {
  Harness h(24);
  h.run([&] {
    h.engine.advance(1'000 * (h.world.mynode() + 1));
    h.world.barrier();
    EXPECT_GE(h.engine.now(), 24'000);
  });
}

TEST(Gasnet, BlockUntilWakesOnAmPoke) {
  Harness h(2);
  const int setter = h.world.register_handler(
      [&](const Token& tok, std::span<const std::byte>, std::uint64_t off,
          std::uint64_t val) -> std::uint64_t {
        const std::int64_t v = static_cast<std::int64_t>(val);
        tok.world.domain().poke(1, off, &v, sizeof v, tok.when);
        return 0;
      });
  h.run([&] {
    if (h.world.mynode() == 1) {
      h.world.block_until(kOff, fabric::Cmp::kEq, 42);
      EXPECT_GT(h.engine.now(), 0);
    } else {
      h.engine.advance(10'000);
      h.world.am_request(1, setter, kOff, 42);
    }
  });
}
