// Grey-failure integration tests over the full CAF stack: the runtime's
// membership view now comes from the in-band heartbeat detector, so every
// failure here is *observed* (with detection latency), never oracle-fed.
// Covers: collectives completing across a healable partition with no
// declarations, mid-kill collectives converging on the detector's verdict,
// the retransmit-exhaustion path under a permanent partition (stat=, not a
// hang), watchdog reports carrying the suspicion-state snapshot, and the
// Options::fd plumbing into the injector.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "caf_test_util.hpp"
#include "net/detector.hpp"
#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

using caftest::Harness;
using caftest::Stack;

namespace {

int two_node_images() {
  return net::machine_profile(net::Machine::kXC30).cores_per_node + 2;
}

caf::Team full_team(int images) {
  caf::Team t;
  for (int i = 1; i <= images; ++i) t.members.push_back(i);
  return t;
}

}  // namespace

// A partition that heals inside the suspicion grace window: collectives
// crossing the cut stall on retransmits, the far side turns suspect, the
// heal beacon recovers it, and nobody is ever declared failed. Every round
// must complete kStatOk with the root's payload intact.
TEST(GreyCollectives, CompleteAcrossHealablePartition) {
  const int images = two_node_images();
  net::FaultPlan plan;
  plan.with_seed(0xC1);
  plan.partition_nodes({1}, 200'000, 500'000);
  Harness h(Stack::kShmemCray, images, {}, 2 << 20, plan);
  std::uint64_t inter_node = 0;
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const caf::Team all = full_team(images);
    for (int k = 0; k < 20; ++k) {
      h.engine().advance(40'000);
      int payload = me == 1 ? 500 + k : -1;
      ASSERT_EQ(rt.team_broadcast_bytes(all, &payload, sizeof payload, 1),
                caf::kStatOk);
      EXPECT_EQ(payload, 500 + k);
      std::int64_t v = me;
      ASSERT_EQ(rt.co_sum_team(all, &v, 1), caf::kStatOk);
      EXPECT_EQ(v, static_cast<std::int64_t>(images) * (images + 1) / 2);
    }
    EXPECT_EQ(rt.failed_images().size(), 0u);
    inter_node += rt.coll_engine()->telemetry().inter_node_msgs;
  });
  // The membership view never changed across the cut. (Suspicion dynamics
  // are unit-tested on a quiet rig; here piggybacked liveness evidence from
  // fibers that run ahead of the sweep events keeps chatty live PEs out of
  // suspect state entirely — which is exactly the conservative behaviour
  // the false-positive invariant wants.)
  EXPECT_EQ(h.engine().declared_count(), 0);
  EXPECT_EQ(obs::registry().counter(0, "fd.declared"), 0u);
  EXPECT_EQ(obs::registry().counter(0, "fd.false_positives"), 0u);
  EXPECT_GT(h.injector()->counters().partition_drops, 0u);  // cut was real
  // And the collectives engine's messages actually crossed the cut.
  EXPECT_GT(inter_node, 0u);
}

// A kill mid-collective: survivors keep completing rounds, see
// kStatFailedImage once the detector declares (strictly after the kill —
// detection has latency now), and the survivor team resumes clean tree
// collectives built from the new membership epoch.
TEST(GreyCollectives, KillConvergesOnDetectorVerdictAndTreeReforms) {
  const int images = two_node_images();
  const int victim = images - 1;  // node 1
  net::FaultPlan plan;
  plan.with_seed(0xC2);
  plan.kill_pe(victim - 1, 1'000'000);
  Harness h(Stack::kShmemCray, images, {}, 2 << 20, plan);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const caf::Team all = full_team(images);
    if (me == victim) {
      for (;;) {
        h.engine().advance(80'000);
        int payload = 0;
        (void)rt.team_broadcast_bytes(all, &payload, sizeof payload, 1);
      }
    }
    bool saw_failure = false;
    for (int k = 0; k < 30; ++k) {
      h.engine().advance(80'000);
      int payload = me == 1 ? 9'000 + k : -1;
      const int st =
          rt.team_broadcast_bytes(all, &payload, sizeof payload, 1);
      if (st == caf::kStatFailedImage) {
        saw_failure = true;
      } else {
        ASSERT_EQ(st, caf::kStatOk);
        EXPECT_EQ(payload, 9'000 + k);
      }
    }
    EXPECT_TRUE(saw_failure);
    EXPECT_EQ(rt.image_status(victim), caf::kStatFailedImage);
    int st = -1;
    const caf::Team team = rt.form_team(&st);
    EXPECT_EQ(st, caf::kStatFailedImage);
    EXPECT_FALSE(team.contains(victim));
    for (int k = 0; k < 3; ++k) {
      int payload = me == 1 ? 70 + k : 0;
      EXPECT_EQ(rt.team_broadcast_bytes(team, &payload, sizeof payload, 1),
                caf::kStatOk);
      EXPECT_EQ(payload, 70 + k);
    }
    // The survivor tree was re-formed from the new membership epoch.
    EXPECT_GE(rt.coll_engine()->telemetry().team_plan_rebuilds, 1u);
  });
  // The declaration came from the detector, after the kill.
  ASSERT_EQ(h.engine().declared_count(), 1);
  EXPECT_EQ(h.engine().declared_failures()[0].pe, victim - 1);
  EXPECT_GT(h.engine().declared_failures()[0].at, sim::Time{1'000'000});
  EXPECT_EQ(obs::registry().counter(0, "fd.false_positives"), 0u);
  EXPECT_GE(obs::registry().counter(0, "fd.detect_count"), 1u);
}

// Satellite (b) regression: an op whose retransmits run out under a
// permanent partition must surface kStatFailedImage — via transport
// exhaustion or the detector's suspicion path, whichever fires first —
// instead of retrying forever.
TEST(GreyFailures, PermanentPartitionSurfacesStatFailedImage) {
  const int images = two_node_images();
  net::FaultPlan plan;
  plan.with_seed(0xC3);
  plan.partition_nodes({1}, 300'000);  // never heals
  Harness h(Stack::kShmemCray, images, {}, 2 << 20, plan);
  const int far_first = images - 1;  // 1-based: first image on node 1
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const std::uint64_t off = rt.allocate_coarray_bytes(16);
    if (me >= far_first) {
      // Far side: cut off from the observer, does only local work, exits.
      for (int k = 0; k < 10; ++k) h.engine().advance(100'000);
      return;
    }
    int st = caf::kStatOk;
    for (int k = 0; k < 40 && st == caf::kStatOk; ++k) {
      h.engine().advance(100'000);
      std::int64_t v = k;
      st = rt.put_bytes_stat(far_first, off, &v, sizeof v);
    }
    EXPECT_EQ(st, caf::kStatFailedImage);  // bounded, not forever
    // The per-op stat= is authoritative the moment the op gives up; the
    // membership view updates when the declaration (suspicion sweep or the
    // scheduled exhaustion event) lands in sim time — drain briefly.
    for (int k = 0;
         k < 20 && rt.image_status(far_first) != caf::kStatFailedImage; ++k) {
      h.engine().advance(100'000);
    }
    EXPECT_EQ(rt.image_status(far_first), caf::kStatFailedImage);
    // The sibling far image may be declared a sweep or two later.
    for (int k = 0; k < 20 && rt.failed_images().size() < 2; ++k) {
      h.engine().advance(100'000);
    }
    EXPECT_EQ(rt.failed_images().size(), 2u);  // both far images declared
    // Traffic between near-side images keeps flowing.
    if (me == 1) {
      std::int64_t ok = 7;
      EXPECT_EQ(rt.put_bytes_stat(2, off, &ok, sizeof ok), caf::kStatOk);
    }
  });
  EXPECT_EQ(h.engine().declared_count(), 2);
  for (const auto& f : h.engine().declared_failures()) {
    EXPECT_GT(f.at, sim::Time{300'000});
  }
  // Unreachable, not wrongly declared.
  EXPECT_EQ(obs::registry().counter(0, "fd.false_positives"), 0u);
}

// Satellite (c): a watchdog report fired after an image failure carries the
// detector's suspicion-state snapshot and the membership epoch.
TEST(GreyFailures, WatchdogReportIncludesDetectorSnapshot) {
  net::FaultPlan plan;
  plan.with_seed(0xC4);
  plan.kill_pe(1, 500'000);  // image 2 dies
  Harness h(Stack::kShmemCray, 2, {}, 2 << 20, plan);
  try {
    h.run([&] {
      auto& rt = h.rt();
      if (rt.this_image() == 2) {
        for (;;) h.engine().advance(50'000);
      }
      const int partner[] = {2};
      rt.sync_images(partner);  // plain (non-stat) sync: hangs on the corpse
    });
    FAIL() << "expected sim::FailedImageError";
  } catch (const sim::FailedImageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stalled after image failure"), std::string::npos)
        << what;
    EXPECT_NE(what.find("failure detector:"), std::string::npos) << what;
    EXPECT_NE(what.find("epoch="), std::string::npos) << what;
    EXPECT_NE(what.find("[pe 1] FAILED"), std::string::npos) << what;
  }
}

// Satellite (a): detector tunables flow caf::Options -> FaultPlan ->
// FaultInjector -> FailureDetector.
TEST(GreyFailures, OptionsFdPlumbsIntoDetector) {
  net::FaultPlan plan;
  plan.with_seed(0xC5);
  plan.kill_pe(1, 400'000);
  caf::Options opts;
  opts.fd = net::DetectorTunables{30'000, 3, 120'000};
  Harness h(Stack::kShmemCray, 4, opts, 2 << 20, plan);
  ASSERT_NE(h.injector(), nullptr);
  ASSERT_NE(h.injector()->detector(), nullptr);
  const net::FailureDetector& det = *h.injector()->detector();
  EXPECT_EQ(det.heartbeat_period(), 30'000);
  EXPECT_EQ(det.suspicion_grace(), 120'000);
  EXPECT_EQ(det.suspect_after(), sim::Time{3} * 30'000);
  h.run([&] {
    auto& rt = h.rt();
    if (rt.this_image() == 2) {
      for (;;) {
        h.engine().advance(50'000);
        (void)rt.sync_all_stat();
      }
    }
    int st = caf::kStatOk;
    for (int k = 0; k < 25; ++k) {
      h.engine().advance(50'000);
      st = rt.sync_all_stat();
    }
    EXPECT_EQ(st, caf::kStatFailedImage);
  });
  // Tighter tunables -> faster declaration: kill at 400 us, suspect_after
  // 90 us + grace 120 us, sweeps every 30 us.
  ASSERT_EQ(h.engine().declared_count(), 1);
  EXPECT_LT(h.engine().declared_failures()[0].at, sim::Time{800'000});
}
