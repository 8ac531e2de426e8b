// Integration tests for the node-local shared-segment transport
// (caf::Options::node -> fabric::Domain -> net::NodeChannel):
//
//   * the acceptance property — with every image on one node, a whole run
//     completes with ZERO fabric messages, every same-node op counted in
//     the node.elided_msgs family;
//   * cross-conduit conformance at non-pow2 image counts, transport on;
//   * SPSC ring backpressure/wraparound visible through the obs counters;
//   * same-node peer kill mid-put surfaces as kStatFailedImage on every
//     conduit;
//   * same-seed reruns stay byte-identical with the transport on, and the
//     on/off choice is itself observable in the recorded state;
//   * the same-node query (Conduit::direct_reachable) and the node and NUMA
//     topology seen through Domain::node_transport().
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>

#include "caf_test_util.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"

using namespace caf;
using caftest::Harness;
using caftest::Stack;

namespace {

caf::Options node_on() {
  caf::Options o;
  o.node.enabled = true;
  return o;
}

std::uint64_t counter_total(const char* name, int npes) {
  std::uint64_t total = 0;
  for (int pe = 0; pe < npes; ++pe) total += obs::registry().value(pe, name);
  return total;
}

std::uint64_t wire_records_total(int npes) {
  std::uint64_t total = 0;
  for (int pe = 0; pe < npes; ++pe) {
    total += obs::detail::session().wire_ring(pe).total();
  }
  return total;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

// The acceptance criterion of the transport: all 8 images share an XC30
// node, so every put/get/AMO — including the ones inside barriers and the
// collective allocator — must complete via the shared segment, with not a
// single message entering the fabric.
TEST(NodeTransport, SingleNodeRunElidesEveryFabricMessage) {
  const int images = 8;
  sim::Time sent_at = 0;
  obs::enable({});  // record kMsgWire events (there must be none)
  {
    Harness h(Stack::kShmemCray, images, node_on());
    h.run([&] {
      Conduit& c = h.rt().conduit();
      const std::uint64_t off = c.allocate(256);
      c.barrier();
      if (c.rank() == 0) {
        const std::uint64_t puts0 = obs::registry().value(0, "node.puts");
        const std::uint64_t gets0 = obs::registry().value(0, "node.gets");
        const std::uint64_t amos0 = obs::registry().value(0, "node.amos");
        const std::uint64_t strided0 = obs::registry().value(0, "node.strided");
        const std::uint64_t elided0 =
            obs::registry().value(0, "node.elided_msgs");
        std::int64_t v = 42;
        for (int i = 0; i < 5; ++i) {
          c.put(1, off + 8 * static_cast<std::uint64_t>(i), &v, sizeof v,
                /*nbi=*/false);
        }
        c.quiet();
        std::int64_t got = 0;
        for (int i = 0; i < 3; ++i) c.get(&got, 1, off, sizeof got);
        EXPECT_EQ(got, 42);
        (void)c.amo_fadd(2, off, 7);
        (void)c.amo_fadd(2, off, 7);
        // A strided put and get count as strided, not as a put or a get.
        const std::int64_t pair[2] = {5, 6};
        c.iput(1, off + 64, /*dst_stride=*/2, pair, /*src_stride=*/1,
               sizeof(std::int64_t), 2);
        c.quiet();
        std::int64_t back[2] = {};
        c.iget(back, /*dst_stride=*/1, 1, off + 64, /*src_stride=*/2,
               sizeof(std::int64_t), 2);
        EXPECT_EQ(back[0], 5);
        EXPECT_EQ(back[1], 6);
        EXPECT_EQ(obs::registry().value(0, "node.puts"), puts0 + 5);
        EXPECT_EQ(obs::registry().value(0, "node.gets"), gets0 + 3);
        EXPECT_EQ(obs::registry().value(0, "node.amos"), amos0 + 2);
        EXPECT_EQ(obs::registry().value(0, "node.strided"), strided0 + 2);
        // Every one of the 12 ops was one elided fabric message.
        EXPECT_EQ(obs::registry().value(0, "node.elided_msgs"), elided0 + 12);
      }
      c.barrier();
      if (c.rank() == 2) {
        std::int64_t acc = 0;
        std::memcpy(&acc, c.segment(2) + off, sizeof acc);
        EXPECT_EQ(acc, 14);
      }
      c.barrier();
      // A same-node store still wakes a waiter parked on the word it writes.
      const std::uint64_t flag = off + 128;
      if (c.rank() == 0) {
        h.engine().advance(10'000);
        sent_at = h.engine().now();
        const std::int64_t nine = 9;
        c.put(3, flag, &nine, sizeof nine, /*nbi=*/false);
      } else if (c.rank() == 3) {
        c.wait_until(flag, Cmp::kEq, 9);
        EXPECT_GE(h.engine().now(), sent_at);
      }
      c.barrier();
    });
    // Zero fabric messages for the entire run — barriers, the collective
    // allocator, and the explicit RMA above all rode the node transport.
    EXPECT_EQ(wire_records_total(images), 0u);
    EXPECT_GT(counter_total("node.elided_msgs", images), 0u);
    EXPECT_EQ(counter_total("node.elided_msgs", images),
              counter_total("node.puts", images) +
                  counter_total("node.gets", images) +
                  counter_total("node.amos", images) +
                  counter_total("node.scatters", images) +
                  counter_total("node.strided", images));
  }
  obs::disable();
}

// A multi-node layout still elides only the same-node pairs: traffic to the
// second node keeps using the fabric, costs the same as with the transport
// off, and reads back what was written on either path.
TEST(NodeTransport, CrossNodeTrafficStillUsesTheFabric) {
  const int images = 26;  // XC30: 24 images on node 0, 2 on node 1
  const int far = 24;     // first rank of node 1
  sim::Time far_put[2] = {0, 0};  // [transport on, transport off]
  obs::enable({});
  for (const bool on : {true, false}) {
    caf::Options opts;
    opts.node.enabled = on;
    Harness h(Stack::kShmemCray, images, opts);
    h.run([&] {
      Conduit& c = h.rt().conduit();
      const std::uint64_t off = c.allocate(64);
      c.barrier();
      if (c.rank() == 0) {
        EXPECT_EQ(c.direct_reachable(1), on);
        EXPECT_FALSE(c.direct_reachable(far));
        std::int64_t v = 9;
        c.put(1, off, &v, sizeof v, false);  // same node: elided
        const sim::Time t0 = h.engine().now();
        c.put(far, off, &v, sizeof v, false);  // node 1: fabric message
        far_put[on ? 0 : 1] = h.engine().now() - t0;
        c.quiet();
        for (const int peer : {1, far}) {
          std::int64_t got = 0;
          c.get(&got, peer, off, sizeof got);
          EXPECT_EQ(got, 9) << "peer " << peer;
        }

        // Strided and vectored puts: node 1 stays off the node counters.
        const std::uint64_t strided0 = obs::registry().value(0, "node.strided");
        const std::uint64_t scatters0 =
            obs::registry().value(0, "node.scatters");
        const int src[3] = {11, 22, 33};
        const std::uint64_t soff = off + 16;
        for (const int peer : {1, far}) {
          c.iput(peer, soff, /*dst_stride=*/2, src, /*src_stride=*/1,
                 sizeof(int), 3);
          c.quiet();
          int got[3] = {};
          c.iget(got, /*dst_stride=*/1, peer, soff, /*src_stride=*/2,
                 sizeof(int), 3);
          EXPECT_EQ(got[0], 11) << "peer " << peer;
          EXPECT_EQ(got[2], 33) << "peer " << peer;
          const int pay[2] = {7, 9};
          const fabric::ScatterRec recs[2] = {
              {soff + 4, sizeof(int), 0},
              {soff + 36, sizeof(int), sizeof(int)},
          };
          c.put_scatter(peer, recs, 2, pay, sizeof pay);
          c.quiet();
          int a = 0, b = 0;
          c.get(&a, peer, soff + 4, sizeof a);
          c.get(&b, peer, soff + 36, sizeof b);
          EXPECT_EQ(a, 7) << "peer " << peer;
          EXPECT_EQ(b, 9) << "peer " << peer;
        }
        // Cray SHMEM strides in hardware: the same-node iput and iget
        // count once each, the scatter once; node 1 added nothing.
        EXPECT_EQ(obs::registry().value(0, "node.strided"),
                  strided0 + (on ? 2 : 0));
        EXPECT_EQ(obs::registry().value(0, "node.scatters"),
                  scatters0 + (on ? 1 : 0));
      }
      c.barrier();
    });
    EXPECT_EQ(counter_total("node.elided_msgs", images) > 0, on);
    EXPECT_GT(wire_records_total(images), 0u);
  }
  obs::disable();
  EXPECT_GT(far_put[0], 0);
  EXPECT_EQ(far_put[0], far_put[1]) << "the transport moved a cross-node put";
}

// ---- cross-conduit conformance at non-pow2 image counts ----------------

class NodeConformance
    : public ::testing::TestWithParam<std::tuple<Stack, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Conduits, NodeConformance,
    ::testing::Combine(::testing::ValuesIn(caftest::kAllStacks),
                       ::testing::Values(6, 12)),
    [](const auto& info) {
      std::string s = caftest::to_string(std::get<0>(info.param));
      for (auto& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s + "_" + std::to_string(std::get<1>(info.param)) + "img";
    });

// Neighbor puts + a fetch-add fan-in + a runtime co_sum, all images on one
// node with the transport enabled: data must land exactly as on the fabric
// path, and the node path must actually have carried it.
TEST_P(NodeConformance, RingPutsAmoFanInAndCoSumMatch) {
  const auto [stack, images] = GetParam();
  Harness h(stack, images, node_on());
  h.run([&] {
    auto& rt = h.rt();
    Conduit& c = rt.conduit();
    const int me = c.rank();
    const std::uint64_t off = c.allocate(128);
    c.barrier();

    // Ring put: everyone stores its rank into the right neighbor's slot.
    const int right = (me + 1) % images;
    std::int64_t v = me;
    c.put(right, off, &v, sizeof v, false);
    c.quiet();
    c.barrier();
    std::int64_t left_val = -1;
    std::memcpy(&left_val, c.segment(me) + off, sizeof left_val);
    EXPECT_EQ(left_val, (me + images - 1) % images);

    // AMO fan-in onto rank 0's accumulator.
    (void)c.amo_fadd(0, off + 64, me + 1);
    c.barrier();
    if (me == 0) {
      std::int64_t acc = 0;
      std::memcpy(&acc, c.segment(0) + off + 64, sizeof acc);
      EXPECT_EQ(acc, static_cast<std::int64_t>(images) * (images + 1) / 2);
    }

    // Runtime-level collective over the transport.
    std::int64_t sum = rt.this_image();
    rt.co_sum(&sum, 1);
    EXPECT_EQ(sum, static_cast<std::int64_t>(images) * (images + 1) / 2);
    c.barrier();
  });
  fabric::Domain* d = h.rt().conduit().rma_domain();
  ASSERT_NE(d, nullptr);
  ASSERT_NE(d->node_transport(), nullptr);
  EXPECT_GT(counter_total("node.elided_msgs", images), 0u);
}

// ---- ring behavior under load ------------------------------------------

// A tiny ring flooded with back-to-back small puts must wrap and stall —
// backpressure is modeled, not assumed away — and still deliver in order.
TEST(NodeTransport, RingWrapsAndStallsUnderBackpressure) {
  caf::Options opts = node_on();
  opts.node.ring_slots = 2;
  opts.node.slot_bytes = 64;
  const int images = 4;
  Harness h(Stack::kShmemCray, images, opts);
  h.run([&] {
    Conduit& c = h.rt().conduit();
    const std::uint64_t off = c.allocate(1024);
    c.barrier();
    if (c.rank() == 0) {
      for (std::int64_t i = 0; i < 64; ++i) {
        c.put(1, off + 8 * static_cast<std::uint64_t>(i % 16), &i, sizeof i,
              /*nbi=*/true);
      }
      c.quiet();
    }
    c.barrier();
    if (c.rank() == 1) {
      std::int64_t last = 0;
      std::memcpy(&last, c.segment(1) + off + 8 * 15, sizeof last);
      EXPECT_EQ(last, 63);  // in-order: the final generation won
    }
    c.barrier();
  });
  const net::NodeChannel* ch = h.rt().conduit().rma_domain()->node_transport();
  ASSERT_NE(ch, nullptr);
  EXPECT_GT(ch->ring_wraps(), 0u);
  EXPECT_GT(ch->ring_stalls(), 0u);
  EXPECT_EQ(counter_total("node.ring_stalls", images), ch->ring_stalls());
}

// ---- failures on the node path -----------------------------------------

// Killing a same-node peer mid-stream: puts into the detached segment must
// surface as kStatFailedImage, not silently "succeed" through shared memory,
// on every conduit. The puts run after the kill but before the detector
// declares it (suspicion takes 4 missed 50 us heartbeats plus a 200 us
// grace), so the node path itself must see the dead segment.
TEST(NodeTransport, SameNodePeerKillFailsSubsequentPuts) {
  const int images = 8;
  for (const Stack stack : caftest::kAllStacks) {
    SCOPED_TRACE(caftest::to_string(stack));
    net::FaultPlan plan;
    plan.with_seed(0xA11CE);
    plan.kill_pe(2, 500'000);  // image 3, same node as everyone
    Harness h(stack, images, node_on(), 2 << 20, plan);
    h.run([&] {
      auto& rt = h.rt();
      Conduit& c = rt.conduit();
      const std::uint64_t off = c.allocate(64);
      if (c.rank() == 0) {
        std::int64_t v = 5;
        // Before the kill the put lands normally.
        ASSERT_LT(h.engine().now(), 500'000);
        EXPECT_EQ(rt.put_bytes_stat(3, off, &v, sizeof v), kStatOk);
        h.engine().advance_to(600'000);  // past the kill, not yet declared
        EXPECT_FALSE(h.engine().pe_declared(2));
        EXPECT_EQ(rt.put_bytes_stat(3, off, &v, sizeof v), kStatFailedImage);
        std::int64_t g = 0;
        EXPECT_EQ(rt.get_bytes_stat(&g, 3, off, sizeof g), kStatFailedImage);
        // A live same-node neighbor keeps working.
        EXPECT_EQ(rt.put_bytes_stat(2, off, &v, sizeof v), kStatOk);
      }
    });
  }
}

// ---- determinism --------------------------------------------------------

namespace {

// One fixed single-node workload; returns the FNV-1a hash of its Chrome
// trace. Counters are sampled before teardown so callers can also assert
// on the transport's footprint.
std::uint64_t traced_run_hash(bool transport_on, std::uint64_t* elided_out,
                              sim::Time* end_out = nullptr) {
  const int images = 24;  // one full XC30 node; non-pow2
  obs::enable({});
  caf::Options opts;
  opts.node.enabled = transport_on;
  std::uint64_t hash = 14695981039346656037ull;
  {
    Harness h(Stack::kShmemCray, images, opts);
    h.run([&] {
      auto& rt = h.rt();
      Conduit& c = rt.conduit();
      const int me = c.rank();
      const std::uint64_t off = c.allocate(256);
      c.barrier();
      for (int round = 0; round < 4; ++round) {
        std::int64_t v = me * 100 + round;
        c.put((me + 1) % images, off + 8 * static_cast<std::uint64_t>(round),
              &v, sizeof v, /*nbi=*/true);
        c.quiet();
        (void)c.amo_fadd((me + 5) % images, off + 64, 1);
        std::int64_t s = me;
        rt.co_sum(&s, 1);
      }
      c.barrier();
      if (me == 0 && end_out != nullptr) *end_out = h.engine().now();
    });
    const std::string trace = obs::chrome_trace_json();
    hash = fnv1a(hash, trace.data(), trace.size());
    if (elided_out != nullptr) {
      *elided_out = counter_total("node.elided_msgs", images);
    }
  }
  obs::disable();
  return hash;
}

}  // namespace

TEST(NodeTransport, SameSeedRerunsAreByteIdenticalAndOnOffIsObservable) {
  std::uint64_t elided_a = 0, elided_b = 0, elided_off = 0;
  sim::Time end_on = 0, end_off = 0;
  const std::uint64_t on_a = traced_run_hash(true, &elided_a, &end_on);
  const std::uint64_t on_b = traced_run_hash(true, &elided_b);
  const std::uint64_t off = traced_run_hash(false, &elided_off, &end_off);
  EXPECT_EQ(on_a, on_b) << "same-seed rerun diverged with the transport on";
  EXPECT_EQ(elided_a, elided_b);
  EXPECT_GT(elided_a, 0u);
  EXPECT_EQ(elided_off, 0u) << "transport off must not elide anything";
  EXPECT_NE(on_a, off)
      << "transport on/off must be distinguishable in the trace";
  EXPECT_LT(end_on, end_off) << "same-node traffic must be cheaper on the "
                                "transport than through the NIC";
}

// ---- node and NUMA topology through the Domain ------------------------

TEST(NodeTransport, DomainReportsSameNodeReachAndNumaTopology) {
  const int images = 26;  // node 0 holds 24 images, node 1 the last two
  Harness h(Stack::kShmemCray, images, node_on());
  h.run([&] {
    Conduit& c = h.rt().conduit();
    const std::uint64_t off = c.allocate(64);
    c.barrier();
    const net::NodeChannel* ch = c.rma_domain()->node_transport();
    ASSERT_NE(ch, nullptr);
    const net::Fabric& fab = c.rma_domain()->fabric();
    const std::int64_t magic = 0x5eed;
    if (c.rank() == 0) {
      // A store into a same-node sibling is one node put, no wire message.
      const std::uint64_t puts0 = obs::registry().value(0, "node.puts");
      c.put(1, off, &magic, sizeof magic, /*nbi=*/false);
      EXPECT_EQ(obs::registry().value(0, "node.puts"), puts0 + 1);
      EXPECT_TRUE(c.direct_reachable(23));
      EXPECT_FALSE(c.direct_reachable(24));
      EXPECT_EQ(ch->numa_domains(), 2);
      EXPECT_EQ(ch->domain_of(0), 0);
      EXPECT_EQ(ch->domain_of(23), 1);  // second socket
      EXPECT_TRUE(ch->numa_local(0, 1));
      EXPECT_FALSE(ch->numa_local(0, 23));
      EXPECT_GT(ch->copy_cost(0, 23, 4096), ch->copy_cost(0, 1, 4096));
      // Node 0 holds 12 images per socket; node 1 the last two.
      int per_domain[2] = {0, 0};
      int on_node1 = 0;
      for (int pe = 0; pe < images; ++pe) {
        if (fab.node_of(pe) == 0) {
          ++per_domain[ch->domain_of(pe)];
        } else {
          EXPECT_EQ(fab.node_of(pe), 1);
          ++on_node1;
        }
      }
      EXPECT_EQ(per_domain[0], 12);
      EXPECT_EQ(per_domain[1], 12);
      EXPECT_EQ(on_node1, 2);
    }
    c.barrier();
    if (c.rank() == 1) {
      std::int64_t got = 0;
      std::memcpy(&got, c.segment(1) + off, sizeof got);
      EXPECT_EQ(got, magic);
    }
    c.barrier();
  });
}

// Without the transport the Domain holds no channel: no peer is reachable
// by load/store and same-node RMA stays on the fabric path.
TEST(NodeTransport, DisabledTransportHasNoChannelAndReachesNoPeer) {
  const int images = 4;
  Harness h(Stack::kGasnet, images);
  h.run([&] {
    Conduit& c = h.rt().conduit();
    ASSERT_NE(c.rma_domain(), nullptr);
    EXPECT_EQ(c.rma_domain()->node_transport(), nullptr);
    EXPECT_FALSE(c.direct_reachable(1));
    const std::uint64_t off = c.allocate(64);
    if (c.rank() == 0) {
      const std::int64_t v = 3;
      c.put(1, off, &v, sizeof v, /*nbi=*/false);
    }
    c.barrier();
  });
  EXPECT_EQ(counter_total("node.puts", images), 0u);
  EXPECT_EQ(counter_total("node.elided_msgs", images), 0u);
}
