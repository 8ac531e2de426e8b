// RPC under failure: a target PE killed mid-RPC must surface
// STAT_FAILED_IMAGE through the initiator's future (on both the mailbox and
// the AM transport), the RPC completion order must replay bit-identically
// for the same seed under message loss, and a failure on one sender's path
// (killed or exhausted mid-send, or woken by an unrelated death while
// backpressured) must not stall other senders' requests to the same target.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "caf_test_util.hpp"
#include "net/fault.hpp"
#include "sim/engine.hpp"

using namespace caf;
using caftest::Harness;
using caftest::Stack;

namespace {

caf::Options rpc_opts() {
  caf::Options o;
  o.rpc.enabled = true;
  return o;
}

/// The last image busy-computes (never reaching a progress point) and is
/// killed at 1 ms; image 1 issues an RPC to it just before the kill, so the
/// request is in flight / undrained when the target dies. The future must
/// complete with kStatFailedImage once the failure detector declares the
/// death. The target sits on the second node: a same-node AM would be
/// delivered (and its handler run on the still-alive CPU) inside the
/// ~100 ns issue-to-kill window, while the cross-node hop guarantees
/// delivery lands after the kill on both transports.
void run_mid_rpc_kill(Stack s) {
  const int images = 26;  // XC30 packs 24 cores/node: images 25,26 spill over
  const int victim = images;
  net::FaultPlan plan;
  plan.with_seed(0xAB1E).kill_pe(/*pe=*/victim - 1, /*at=*/1'000'000);
  Harness h(s, images, rpc_opts(), 2 << 20, plan);
  bool checked = false;
  h.run([&] {
    auto& rt = h.rt();
    sim::Engine& eng = h.engine();
    const int me = rt.this_image();
    if (me == victim) {
      for (;;) eng.advance(50'000);  // killed mid-compute
    }
    if (me == 1) {
      // Issue as close to the kill as possible: the request is injected
      // while the target still counts as alive, and the reply never comes.
      while (eng.now() < 999'900) eng.advance(20);
      auto fut = rpc(
          rt, victim, [](std::int64_t x) -> std::int64_t { return x + 1; },
          std::int64_t{1});
      EXPECT_EQ(fut.wait(), kStatFailedImage);
      EXPECT_TRUE(fut.ready());
      EXPECT_EQ(fut.stat(), kStatFailedImage);
      // A future chained after the failure inherits the stat; the
      // continuation body is skipped.
      bool ran = false;
      auto chained = fut.then([&ran](std::int64_t) {
        ran = true;
        return std::int64_t{0};
      });
      EXPECT_EQ(chained.wait(), kStatFailedImage);
      EXPECT_FALSE(ran);
      checked = true;
    }
    // Every other image exits immediately; no global sync with the corpse.
  });
  EXPECT_TRUE(checked);
  EXPECT_EQ(h.engine().failed_count(), 1);
}

}  // namespace

TEST(RpcFaults, MidRpcKillSurfacesFailedImageMailbox) {
  run_mid_rpc_kill(Stack::kShmemCray);  // mailbox transport
}

TEST(RpcFaults, MidRpcKillSurfacesFailedImageAm) {
  run_mid_rpc_kill(Stack::kGasnet);  // AM transport
}

// ---------------------------------------------------------------------------
// Determinism under loss
// ---------------------------------------------------------------------------

namespace {

/// Every image issues a deterministic RPC stream across the node boundary
/// under 1% message loss and logs each operation's completion (in
/// completion order, as observed by then-continuations). Returns the
/// per-image logs.
std::vector<std::vector<std::uint64_t>> run_lossy_rpc(std::uint64_t seed) {
  const int images =
      net::machine_profile(net::Machine::kStampede).cores_per_node + 2;
  net::FaultPlan plan;
  plan.with_seed(seed).with_loss(0.01);
  Harness h(Stack::kShmemMvapich, images, rpc_opts(), 4 << 20, plan);
  std::vector<std::vector<std::uint64_t>> logs(
      static_cast<std::size_t>(images));
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const int n = rt.num_images();
    auto& log = logs[static_cast<std::size_t>(me - 1)];
    std::vector<future<void>> done;
    for (int u = 0; u < 40; ++u) {
      const int target = (me - 1 + u) % n + 1;
      auto fut = rpc(
          rt, target,
          [](std::int64_t a, std::int64_t b) -> std::int64_t {
            return a * 131 + b;
          },
          static_cast<std::int64_t>(target), static_cast<std::int64_t>(u));
      done.push_back(fut.then([&log, u](std::int64_t v) {
        log.push_back(static_cast<std::uint64_t>(u) << 32 |
                      static_cast<std::uint32_t>(v));
      }));
    }
    EXPECT_EQ(when_all(std::move(done)).wait(), kStatOk);
    rt.sync_all();
  });
  // Guard against vacuity: the lossy wire must actually have been used.
  EXPECT_GT(h.injector()->counters().judged, 0u);
  return logs;
}

}  // namespace

TEST(RpcFaults, CompletionOrderBitIdenticalUnderLoss) {
  const auto a = run_lossy_rpc(0xC0FFEE);
  const auto b = run_lossy_rpc(0xC0FFEE);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "completion log of image " << (i + 1);
  }
  // And the logs are complete: every operation's continuation ran.
  for (const auto& log : a) EXPECT_EQ(log.size(), 40u);
}

// ---------------------------------------------------------------------------
// One sender's failure must not stall other senders to the same target
// ---------------------------------------------------------------------------

namespace {

constexpr int kEdgeImages = 26;      // XC30: images 25 and 26 on node 1
constexpr int kRoundTrips = 8;       // per surviving sender, to image 1
constexpr sim::Time kEdgeDeadline = 20'000'000;  // 20 ms virtual
/// Image 26's 28th send puts its slot at 98.6 us and waits in quiet until
/// 99.5 us: the kill lands with that slot on the wire, before the doorbell
/// fetch-add is issued.
constexpr sim::Time kKillAt = 99'200;

/// Handler: counts one request from `src` in image 1's tally.
std::int64_t tally(sym_view<std::int64_t> counts, std::int64_t src) {
  counts[static_cast<std::size_t>(src)] += 1;
  return src;
}

/// Image 1 is the hot target. Image 26 runs `sender`, which streams
/// requests at it and may leave mailbox_send mid-send; images 2..24 (image
/// 1's node) each make kRoundTrips round trips to it and must all complete
/// kStatOk before the deadline. Image 1 keeps polling until it has served
/// all of them. Returns image 1's tally of image 26's requests.
std::int64_t run_hot_target_edge(net::FaultPlan plan, bool arm_injector,
                                 const std::function<void(Runtime&, sim::Engine&,
                                                          std::uint64_t)>&
                                     sender) {
  Harness h(Stack::kShmemCray, kEdgeImages, rpc_opts(), 4 << 20, plan,
            arm_injector);
  const int survivors = 23;  // images 2..24
  std::int64_t sender_tally = -1;
  int completed = 0;
  h.run([&] {
    auto& rt = h.rt();
    sim::Engine& eng = h.engine();
    const int me = rt.this_image();
    const std::size_t bytes = 8 * (kEdgeImages + 1);
    const std::uint64_t off = rt.allocate_coarray_bytes(bytes);
    std::memset(rt.local_addr(off), 0, bytes);
    rt.sync_all();
    const sym_view<std::int64_t> counts{off, kEdgeImages + 1};
    if (me == 1) {
      const auto* c = reinterpret_cast<const std::int64_t*>(rt.local_addr(off));
      for (;;) {
        rt.rpc_progress();
        std::int64_t served = 0;
        for (int s = 2; s <= 24; ++s) served += c[s];
        if (served == std::int64_t{survivors} * kRoundTrips) break;
        ASSERT_LT(eng.now(), kEdgeDeadline) << "served " << served;
        eng.advance(500);
      }
      sender_tally = c[kEdgeImages];
    } else if (me == kEdgeImages) {
      sender(rt, eng, off);
    } else if (me <= 24) {
      for (int u = 0; u < kRoundTrips; ++u) {
        // One request at a time: each reaches image 1 alone, so a doorbell
        // signal image 1 wrongly counts as served strands it for good.
        eng.advance_to(100'000 + u * 50'000 + me * 2'000);
        auto fut = rpc(rt, 1, &tally, counts, std::int64_t{me});
        ASSERT_EQ(fut.wait(), kStatOk) << "image " << me << " call " << u;
        EXPECT_EQ(fut.value(), me);
        EXPECT_LT(eng.now(), kEdgeDeadline);
        ++completed;
      }
    }
    // Image 25 idles; nobody syncs with a possibly-dead sender.
  });
  EXPECT_EQ(completed, survivors * kRoundTrips);
  return sender_tally;
}

}  // namespace

TEST(RpcFaults, SenderKilledWithSlotInFlightStallsNoOneElse) {
  net::FaultPlan plan;
  plan.with_seed(0x51A7).kill_pe(/*pe=*/kEdgeImages - 1, kKillAt);
  int returned = 0;
  const std::int64_t served = run_hot_target_edge(
      plan, /*arm_injector=*/true,
      [&](Runtime& rt, sim::Engine&, std::uint64_t off) {
        const sym_view<std::int64_t> counts{off, kEdgeImages + 1};
        for (;;) {
          rpc_ff(rt, 1, [](sym_view<std::int64_t> c, std::int64_t s) {
            tally(c, s);
          }, counts, std::int64_t{kEdgeImages});
          ++returned;
        }
      });
  // The kill landed between the slot put and the send's return: image 1
  // served one request more than the sender saw go out.
  EXPECT_EQ(served, returned + 1);
}

TEST(RpcFaults, PeerFailedErrorMidSendStallsNoOneElse) {
  // From 199.728 us a partition cuts image 26's node off from image 1's,
  // for longer than a one-retransmit budget. Image 26's 12th slot put has
  // landed by then (its quiet returns at 199.727 us), but the doorbell
  // fetch-add behind it exhausts and throws out of mailbox_send; every slot
  // put after it exhausts and throws too. With no failure detector armed,
  // exhaustion declares nobody: image 1 stays a live target for images
  // 2..24, whose traffic never leaves node 0. The unsignaled slot reaches
  // image 1 between two bursts of their requests, so if image 1 took it for
  // the signal of a later one, that later request would strand.
  net::FaultPlan plan;
  plan.with_seed(0xFA11).partition_nodes({1}, 199'728, 400'000);
  plan.retry.max_retransmits = 1;
  int issued = 0;
  int failed = 0;
  const std::int64_t served = run_hot_target_edge(
      plan, /*arm_injector=*/false,
      [&](Runtime& rt, sim::Engine& eng, std::uint64_t off) {
        const sym_view<std::int64_t> counts{off, kEdgeImages + 1};
        std::vector<future<std::int64_t>> futs;
        eng.advance_to(50'000);
        while (eng.now() < 300'000) {
          eng.advance(10'000);
          futs.push_back(rpc(rt, 1, &tally, counts, std::int64_t{kEdgeImages}));
          ++issued;
        }
        for (auto& f : futs) {
          if (f.ready() && f.stat() == kStatFailedImage) ++failed;
        }
      });
  EXPECT_GT(failed, 0) << "no slot put failed: the exception path went unused";
  // Every send that did not fail ran at image 1; so did the one whose
  // fetch-add failed after its slot landed.
  EXPECT_GE(served, issued - failed);
}

TEST(RpcFaults, UnrelatedDeathDoesNotOverwriteUnservedSlot) {
  // One-slot rings: image 2's second request waits for image 1, busy with
  // no progress point for 1.5 ms, to serve the first. Image 26 dies at
  // 50 us; its declaration wakes every fault-aware wait, image 2's
  // backpressure wait among them. Image 1 is alive, so image 2 must keep
  // waiting rather than put over the slot image 1 has not served yet.
  net::FaultPlan plan;
  plan.with_seed(0xBEEF).kill_pe(/*pe=*/kEdgeImages - 1, 50'000);
  caf::Options o = rpc_opts();
  o.rpc.slots_per_pair = 1;
  Harness h(Stack::kShmemCray, kEdgeImages, o, 4 << 20, plan);
  std::int64_t served = -1;
  h.run([&] {
    auto& rt = h.rt();
    sim::Engine& eng = h.engine();
    const int me = rt.this_image();
    const std::size_t bytes = 8 * (kEdgeImages + 1);
    const std::uint64_t off = rt.allocate_coarray_bytes(bytes);
    std::memset(rt.local_addr(off), 0, bytes);
    rt.sync_all();
    const sym_view<std::int64_t> counts{off, kEdgeImages + 1};
    if (me == 1) {
      eng.advance(1'500'000);
      const auto* c = reinterpret_cast<const std::int64_t*>(rt.local_addr(off));
      while (c[2] < 3 && eng.now() < kEdgeDeadline) {
        rt.rpc_progress();
        eng.advance(1'000);
      }
      served = c[2];
    } else if (me == 2) {
      for (int u = 0; u < 3; ++u) {
        rpc_ff(rt, 1, [](sym_view<std::int64_t> c, std::int64_t s) {
          tally(c, s);
        }, counts, std::int64_t{2});
      }
    } else if (me == kEdgeImages) {
      for (;;) eng.advance(10'000);  // killed mid-compute
    }
  });
  EXPECT_EQ(served, 3);
}
