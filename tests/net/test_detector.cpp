// net::FailureDetector unit tests: the alive -> suspect -> failed state
// machine against modeled heartbeats, straggler immunity, suspect recovery
// across a partition heal, transport-evidence declaration, and same-seed
// determinism of the declared membership view.
#include <gtest/gtest.h>

#include <string>

#include "net/detector.hpp"
#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

#include "../closure_events.hpp"

namespace {

std::uint64_t fd_counter(const char* name) {
  return obs::registry().counter(0, name);
}

/// Arms `plan` on a fresh engine (no fibers: the detector's sweeps and the
/// kill schedule are plain engine events) and runs it to quiescence.
struct DetectorRig {
  sim::Engine engine{64 * 1024};
  net::FaultInjector inj;

  DetectorRig(net::FaultPlan plan, int npes, int cores_per_node)
      : inj(std::move(plan), npes, cores_per_node) {
    obs::reset();
    inj.arm(engine);
  }

  net::FailureDetector& det() { return *inj.detector(); }
};

}  // namespace

TEST(FailureDetector, DeclaresKilledPeThroughHeartbeatLoss) {
  net::FaultPlan plan;
  plan.kill_pe(2, 300'000);
  DetectorRig rig(std::move(plan), 8, 2);
  EXPECT_TRUE(rig.engine.deferred_failure_declaration());
  rig.engine.run();
  // The kill itself no longer declares; the detector did, after the suspect
  // threshold (4 x 50 us past the last beacon) plus the suspicion grace.
  EXPECT_TRUE(rig.engine.pe_declared(2));
  EXPECT_EQ(rig.engine.declared_count(), 1);
  EXPECT_GE(rig.engine.membership_epoch(), 1u);
  EXPECT_EQ(rig.det().state_of(2), net::FailureDetector::State::kFailed);
  ASSERT_EQ(rig.engine.declared_failures().size(), 1u);
  const auto& f = rig.engine.declared_failures()[0];
  EXPECT_EQ(f.pe, 2);
  EXPECT_GT(f.at, sim::Time{300'000});  // detection lags ground truth
  EXPECT_EQ(fd_counter("fd.declared"), 1u);
  EXPECT_EQ(fd_counter("fd.false_positives"), 0u);
  EXPECT_EQ(fd_counter("fd.detect_count"), 1u);
  EXPECT_GT(fd_counter("fd.detect_latency_ns_total"), 0u);
  // Everyone else stayed alive the whole run.
  for (int pe = 0; pe < 8; ++pe) {
    if (pe == 2) continue;
    EXPECT_FALSE(rig.engine.pe_declared(pe)) << "pe " << pe;
  }
}

TEST(FailureDetector, StragglerWithinGraceIsNeverSuspected) {
  net::FaultPlan plan;
  plan.straggle_pe(1, 8.0);
  // A kill elsewhere keeps the sweeps running long enough that a straggler
  // false positive would have had every opportunity to fire.
  plan.kill_pe(5, 400'000);
  DetectorRig rig(std::move(plan), 8, 2);
  // The suspicion threshold auto-raises above the slowest beacon interval.
  EXPECT_GE(rig.det().suspect_after(),
            sim::from_ns(1.5 * 8.0 * 50'000.0));
  rig.engine.run();
  EXPECT_EQ(rig.det().state_of(1), net::FailureDetector::State::kAlive);
  EXPECT_FALSE(rig.engine.pe_declared(1));
  EXPECT_TRUE(rig.engine.pe_declared(5));
  EXPECT_EQ(fd_counter("fd.false_positives"), 0u);
}

TEST(FailureDetector, SuspectRecoversWhenPartitionHeals) {
  net::FaultPlan plan;
  plan.partition_nodes({1}, 100'000, 500'000);  // pes 2,3 cut off, then back
  DetectorRig rig(std::move(plan), 4, 2);
  rig.engine.run();
  // Both far-side PEs went suspect during the cut, then their first
  // post-heal beacon recovered them; nobody was declared.
  EXPECT_EQ(rig.det().state_of(2), net::FailureDetector::State::kAlive);
  EXPECT_EQ(rig.det().state_of(3), net::FailureDetector::State::kAlive);
  EXPECT_EQ(rig.engine.declared_count(), 0);
  EXPECT_GE(fd_counter("fd.suspects"), 2u);
  EXPECT_GE(fd_counter("fd.recoveries"), 2u);
  EXPECT_EQ(fd_counter("fd.declared"), 0u);
  EXPECT_EQ(fd_counter("fd.false_positives"), 0u);
}

TEST(FailureDetector, PermanentPartitionDeclaresTheFarSide) {
  net::FaultPlan plan;
  plan.partition_nodes({2}, 200'000);  // pes 4,5; never heals
  DetectorRig rig(std::move(plan), 6, 2);
  rig.engine.run();
  EXPECT_TRUE(rig.engine.pe_declared(4));
  EXPECT_TRUE(rig.engine.pe_declared(5));
  EXPECT_EQ(rig.engine.declared_count(), 2);
  // Unreachable != wrongly declared: the far side of an unhealed partition
  // is a correct declaration, not a false positive.
  EXPECT_EQ(fd_counter("fd.false_positives"), 0u);
}

TEST(FailureDetector, ExhaustionEvidenceDeclaresImmediately) {
  net::FaultPlan plan;
  plan.straggle_pe(3, 2.0);  // any grey feature arms the detector
  DetectorRig rig(std::move(plan), 8, 2);
  simtest::Closures ev(rig.engine);
  ev.schedule(10'000, [&] {
    rig.det().report_exhaustion(0, 6, sim::Time{10'000});
  });
  rig.engine.run();
  EXPECT_TRUE(rig.engine.pe_declared(6));
  EXPECT_EQ(rig.det().state_of(6), net::FailureDetector::State::kFailed);
  EXPECT_EQ(fd_counter("fd.evidence_declared"), 1u);
  // PE 6 was alive and reachable per the plan: this is the false-positive
  // path the chaos invariants watch.
  EXPECT_EQ(fd_counter("fd.false_positives"), 1u);
}

TEST(FailureDetector, SameSeedYieldsIdenticalDeclarations) {
  auto run_once = [](std::uint64_t seed) {
    net::FaultPlan plan;
    plan.with_seed(seed)
        .kill_pe(1, 250'000)
        .flaky_link(0, 1, 0.30, 0.5, 0, net::kTimeNever)
        .straggle_pe(4, 3.0);
    DetectorRig rig(std::move(plan), 6, 2);
    rig.engine.run();
    return rig.engine.declared_failures();
  };
  const auto a = run_once(77);
  const auto b = run_once(77);
  const auto c = run_once(78);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pe, b[i].pe);
    EXPECT_EQ(a[i].at, b[i].at);
  }
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].pe, 1);
  ASSERT_EQ(c.size(), 1u);
  // A different seed shifts the beacon-loss draws; detection time may move
  // but the declared membership itself must not.
  EXPECT_EQ(c[0].pe, 1);
}

TEST(FailureDetector, SnapshotNamesSuspectsAndEpoch) {
  net::FaultPlan plan;
  plan.kill_pe(3, 100'000);
  DetectorRig rig(std::move(plan), 4, 2);
  rig.engine.run();
  const std::string snap = rig.det().snapshot();
  EXPECT_NE(snap.find("failure detector:"), std::string::npos);
  EXPECT_NE(snap.find("epoch="), std::string::npos);
  EXPECT_NE(snap.find("[pe 3] FAILED"), std::string::npos);
}

TEST(FailureDetector, TunablesApplyFromEnvironment) {
  ::setenv("CAF_FD_PERIOD_NS", "25000", 1);
  ::setenv("CAF_FD_MISS", "8", 1);
  ::setenv("CAF_FD_GRACE_NS", "400000", 1);
  ::setenv("CAF_FD_RTO_MIN_NS", "7000", 1);
  ::setenv("CAF_FD_RTO_MAX_NS", "900000", 1);
  ::setenv("CAF_FD_ADAPTIVE", "0", 1);
  ::setenv("CAF_FD_MAX_RETRANS", "5", 1);
  net::FaultPlan plan;
  plan.apply_env();
  EXPECT_EQ(plan.fd.heartbeat_period, 25'000);
  EXPECT_EQ(plan.fd.miss_threshold, 8);
  EXPECT_EQ(plan.fd.suspicion_grace, 400'000);
  EXPECT_EQ(plan.retry.rto_min, 7'000);
  EXPECT_EQ(plan.retry.rto_max, 900'000);
  EXPECT_FALSE(plan.retry.adaptive);
  EXPECT_EQ(plan.retry.max_retransmits, 5);
  ::unsetenv("CAF_FD_PERIOD_NS");
  ::unsetenv("CAF_FD_MISS");
  ::unsetenv("CAF_FD_GRACE_NS");
  ::unsetenv("CAF_FD_RTO_MIN_NS");
  ::unsetenv("CAF_FD_RTO_MAX_NS");
  ::unsetenv("CAF_FD_ADAPTIVE");
  ::unsetenv("CAF_FD_MAX_RETRANS");
  // And the detector honors them.
  plan.kill_pe(0, 50'000);
  DetectorRig rig(std::move(plan), 4, 2);
  EXPECT_EQ(rig.det().heartbeat_period(), 25'000);
  EXPECT_EQ(rig.det().suspicion_grace(), 400'000);
  EXPECT_EQ(rig.det().suspect_after(), sim::Time{8} * 25'000);
}

TEST(FaultInjector, AdaptiveRtoTracksSampledRtt) {
  net::FaultPlan plan;
  plan.with_seed(11).straggle_pe(0, 1.0);  // no-op straggler, keeps plan grey
  plan.retry.jitter = 0.0;                 // deterministic timeouts
  net::FaultInjector inj(plan, 4, 2);
  // Unsampled pair: static backoff base.
  const sim::Time cold = inj.retrans_timeout(0, 2, 0, 1'000.0);
  // Feed clean first-attempt samples; Karn's rule ignores the ambiguous one.
  for (int i = 0; i < 8; ++i) inj.record_rtt(0, 2, 2'000, /*attempts=*/1);
  inj.record_rtt(0, 2, 500'000, /*attempts=*/3);  // ignored
  EXPECT_GT(inj.srtt(0, 2), 0);
  EXPECT_LT(inj.srtt(0, 2), 3'000);
  const sim::Time warm = inj.retrans_timeout(0, 2, 0, 1'000.0);
  // srtt + 4*rttvar on a ~2 us RTT sits at the 5 us floor < the static
  // (20 us + 2 us) base.
  EXPECT_LT(warm, cold);
  EXPECT_GE(warm, plan.retry.rto_min);
  // Pairs without samples keep the static base.
  EXPECT_EQ(inj.retrans_timeout(2, 0, 0, 1'000.0), cold);
}
