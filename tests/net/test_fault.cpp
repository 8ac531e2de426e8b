// net::FaultInjector + faulty-Fabric unit tests: determinism of the verdict
// stream, statistical sanity of the configured rates, and the reliable-
// delivery retransmit loop the Fabric runs when an injector is attached.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/profiles.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace {

net::FaultPlan mixed_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.with_seed(seed)
      .with_loss(0.10)
      .with_duplicates(0.05)
      .with_delays(0.20, 100, 5'000);
  return plan;
}

}  // namespace

TEST(FaultInjector, SamePlanYieldsIdenticalVerdictStream) {
  const net::FaultPlan plan = mixed_plan(42);
  net::FaultInjector a(plan, 8, 2);
  net::FaultInjector b(plan, 8, 2);
  for (int i = 0; i < 5'000; ++i) {
    const sim::Time t = 100 * i;
    const auto va = a.judge(i % 8, (i + 3) % 8, t);
    const auto vb = b.judge(i % 8, (i + 3) % 8, t);
    ASSERT_EQ(va.drop, vb.drop) << "judge " << i;
    ASSERT_EQ(va.duplicate, vb.duplicate) << "judge " << i;
    ASSERT_EQ(va.extra_delay, vb.extra_delay) << "judge " << i;
  }
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
  EXPECT_EQ(a.counters().dropped, b.counters().dropped);
  EXPECT_EQ(a.counters().duplicated, b.counters().duplicated);
  EXPECT_EQ(a.counters().delayed, b.counters().delayed);
  // All three fault classes actually fired at these rates.
  EXPECT_GT(a.counters().dropped, 0u);
  EXPECT_GT(a.counters().duplicated, 0u);
  EXPECT_GT(a.counters().delayed, 0u);
}

TEST(FaultInjector, ResetReplaysTheIdenticalVerdictStream) {
  net::FaultInjector inj(mixed_plan(42), 8, 2);
  auto drive = [&] {
    for (int i = 0; i < 5'000; ++i) {
      (void)inj.judge(i % 8, (i + 3) % 8, 100 * i);
    }
    return inj.trace_hash();
  };
  const std::uint64_t first = drive();
  const auto kills_before = inj.kill_time(3);
  inj.reset();
  EXPECT_EQ(inj.counters().judged, 0u);
  EXPECT_EQ(inj.trace_hash(), 0u);
  // The kill schedule is immutable plan state and survives the rewind.
  EXPECT_EQ(inj.kill_time(3), kills_before);
  EXPECT_EQ(drive(), first);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  net::FaultInjector a(mixed_plan(1), 4, 2);
  net::FaultInjector b(mixed_plan(2), 4, 2);
  for (int i = 0; i < 1'000; ++i) {
    (void)a.judge(0, 2, 10 * i);
    (void)b.judge(0, 2, 10 * i);
  }
  EXPECT_NE(a.trace_hash(), b.trace_hash());
}

TEST(FaultInjector, DropRateIsApproximatelyRespected) {
  net::FaultPlan plan;
  plan.with_seed(7).with_loss(0.25);
  net::FaultInjector inj(plan, 4, 2);
  const int n = 20'000;
  for (int i = 0; i < n; ++i) (void)inj.judge(0, 2, i);
  const double observed =
      static_cast<double>(inj.counters().dropped) / static_cast<double>(n);
  EXPECT_NEAR(observed, 0.25, 0.02);
  EXPECT_EQ(inj.counters().judged, static_cast<std::uint64_t>(n));
}

TEST(FaultInjector, KillScheduleGatesPeDeath) {
  net::FaultPlan plan;
  plan.kill_pe(3, 5'000);
  net::FaultInjector inj(plan, 8, 2);
  EXPECT_FALSE(inj.pe_dead(3, 4'999));
  EXPECT_TRUE(inj.pe_dead(3, 5'000));
  EXPECT_TRUE(inj.pe_dead(3, 1'000'000));
  EXPECT_EQ(inj.kill_time(3), 5'000);
  EXPECT_FALSE(inj.pe_dead(0, net::FaultInjector::kNever - 1));
  EXPECT_EQ(inj.kill_time(0), net::FaultInjector::kNever);
}

TEST(FaultInjector, NodeKillTakesAllItsPes) {
  net::FaultPlan plan;
  plan.kill_node(1, 9'000);  // with 2 cores/node: pes 2 and 3
  net::FaultInjector inj(plan, 6, 2);
  EXPECT_TRUE(inj.pe_dead(2, 9'000));
  EXPECT_TRUE(inj.pe_dead(3, 9'000));
  EXPECT_FALSE(inj.pe_dead(0, 9'000));
  EXPECT_FALSE(inj.pe_dead(4, 9'000));
}

TEST(FaultInjector, BackoffEscalatesThenCaps) {
  net::FaultInjector inj(mixed_plan(3), 4, 2);
  const sim::Time d0 = inj.backoff_delay(0, 1'000.0);
  const sim::Time d3 = inj.backoff_delay(3, 1'000.0);
  const sim::Time d6 = inj.backoff_delay(6, 1'000.0);
  const sim::Time d9 = inj.backoff_delay(9, 1'000.0);
  EXPECT_LT(d0, d3);
  EXPECT_LT(d3, d6);
  // Past max_backoff_exp the factor stops growing; only jitter differs.
  EXPECT_LE(d9, d6 + d6 / 4);
  EXPECT_GE(d9, d6 - d6 / 4);
}

// ---------------------------------------------------------------------------
// Fabric integration
// ---------------------------------------------------------------------------

namespace {

struct FabricPair {
  net::MachineProfile mp = net::machine_profile(net::Machine::kXC30);
  net::SwProfile sw =
      net::sw_profile(net::Library::kShmemCray, net::Machine::kXC30);
  int npes = 0;
  int remote = 0;  // a PE on another node than PE 0

  FabricPair() {
    npes = 2 * mp.cores_per_node;
    remote = mp.cores_per_node;  // first PE of node 1
  }
};

}  // namespace

TEST(FaultyFabric, ZeroRateInjectorIsBitIdenticalToCleanFabric) {
  FabricPair fp;
  net::Fabric clean(fp.mp, fp.npes);
  net::Fabric faulty(fp.mp, fp.npes);
  net::FaultInjector inj(net::FaultPlan{}, fp.npes, fp.mp.cores_per_node);
  faulty.set_fault_injector(&inj);
  sim::Time t = 0;
  for (std::size_t bytes : {8u, 512u, 65'536u}) {
    const auto c0 = clean.submit_put(0, fp.remote, bytes, fp.sw, t);
    const auto c1 = faulty.submit_put(0, fp.remote, bytes, fp.sw, t);
    EXPECT_EQ(c0.local_complete, c1.local_complete) << bytes;
    EXPECT_EQ(c0.delivered, c1.delivered) << bytes;
    EXPECT_TRUE(c1.ok);
    EXPECT_EQ(c1.attempts, 1);
    const auto g0 = clean.submit_get(0, fp.remote, bytes, fp.sw, t);
    const auto g1 = faulty.submit_get(0, fp.remote, bytes, fp.sw, t);
    EXPECT_EQ(g0.complete, g1.complete) << bytes;
    const auto a0 = clean.submit_amo(0, fp.remote, fp.sw, t);
    const auto a1 = faulty.submit_amo(0, fp.remote, fp.sw, t);
    EXPECT_EQ(a0.complete, a1.complete) << bytes;
    t = c0.delivered + 10'000;
  }
}

TEST(FaultyFabric, TotalLossExhaustsRetransmitsAndGivesUp) {
  FabricPair fp;
  net::FaultPlan plan;
  plan.with_seed(11).with_loss(1.0);
  net::Fabric fab(fp.mp, fp.npes);
  net::FaultInjector inj(plan, fp.npes, fp.mp.cores_per_node);
  fab.set_fault_injector(&inj);
  const auto c = fab.submit_put(0, fp.remote, 4'096, fp.sw, 0);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.attempts, 1 + plan.retry.max_retransmits);
  // The give-up point reflects all the timeouts burned waiting for acks.
  EXPECT_GT(c.delivered, c.local_complete);
  const auto g = fab.submit_get(0, fp.remote, 4'096, fp.sw, 0);
  EXPECT_FALSE(g.ok);
  const auto a = fab.submit_amo(0, fp.remote, fp.sw, 0);
  EXPECT_FALSE(a.ok);
}

TEST(FaultyFabric, ModerateLossAlwaysDeliversWithRetries) {
  FabricPair fp;
  net::FaultPlan plan;
  plan.with_seed(13).with_loss(0.30);
  net::Fabric fab(fp.mp, fp.npes);
  net::FaultInjector inj(plan, fp.npes, fp.mp.cores_per_node);
  fab.set_fault_injector(&inj);
  sim::Time t = 0;
  std::int64_t total_attempts = 0;
  const int ops = 200;
  for (int i = 0; i < ops; ++i) {
    const auto c = fab.submit_put(0, fp.remote, 1'024, fp.sw, t);
    ASSERT_TRUE(c.ok) << "op " << i;
    total_attempts += c.attempts;
    t = c.delivered;
  }
  // 30% loss must have forced a healthy number of retransmissions.
  EXPECT_GT(total_attempts, ops + ops / 10);
}

TEST(FaultyFabric, DeadDestinationFailsEveryOp) {
  FabricPair fp;
  net::FaultPlan plan;
  plan.kill_pe(fp.remote, 0);  // dead from t=0
  net::Fabric fab(fp.mp, fp.npes);
  net::FaultInjector inj(plan, fp.npes, fp.mp.cores_per_node);
  fab.set_fault_injector(&inj);
  EXPECT_FALSE(fab.submit_put(0, fp.remote, 64, fp.sw, 1'000).ok);
  EXPECT_FALSE(fab.submit_get(0, fp.remote, 64, fp.sw, 1'000).ok);
  EXPECT_FALSE(fab.submit_amo(0, fp.remote, fp.sw, 1'000).ok);
  // A live destination on the same fabric still works.
  EXPECT_TRUE(fab.submit_put(0, fp.remote + 1, 64, fp.sw, 1'000).ok);
}

TEST(FaultyFabric, IntraNodeTrafficBypassesInjection) {
  FabricPair fp;
  if (fp.mp.cores_per_node < 2) GTEST_SKIP() << "one core per node";
  net::FaultPlan plan;
  plan.with_seed(17).with_loss(1.0);
  net::Fabric fab(fp.mp, fp.npes);
  net::FaultInjector inj(plan, fp.npes, fp.mp.cores_per_node);
  fab.set_fault_injector(&inj);
  const auto c = fab.submit_put(0, 1, 256, fp.sw, 0);
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.attempts, 1);
  EXPECT_EQ(inj.counters().judged, 0u);
}

TEST(FaultyFabric, DuplicatesChargeExtraLinkOccupancy) {
  FabricPair fp;
  net::FaultPlan dup_plan;
  dup_plan.with_seed(19).with_duplicates(1.0);
  net::Fabric clean(fp.mp, fp.npes);
  net::Fabric duped(fp.mp, fp.npes);
  net::FaultInjector inj(dup_plan, fp.npes, fp.mp.cores_per_node);
  duped.set_fault_injector(&inj);
  // Back-to-back submissions at t=0: the duplicated stream must queue behind
  // its own ghost copies and finish later than the clean stream.
  sim::Time last_clean = 0;
  sim::Time last_duped = 0;
  for (int i = 0; i < 10; ++i) {
    last_clean = clean.submit_put(0, fp.remote, 8'192, fp.sw, 0).delivered;
    last_duped = duped.submit_put(0, fp.remote, 8'192, fp.sw, 0).delivered;
  }
  EXPECT_GT(last_duped, last_clean);
}

// A get whose initiator dies between the target read and the reply: the
// reply is lost at the corpse, and the dead initiator sends no retransmit.
// Its silence says nothing about the live target, so nobody but the corpse
// is declared.
TEST(FaultyFabric, KilledInitiatorGetDeclaresNobody) {
  const net::MachineProfile mp = net::machine_profile(net::Machine::kStampede);
  const net::SwProfile sw =
      net::sw_profile(net::Library::kShmemMvapich, net::Machine::kStampede);
  const int npes = 4 * mp.cores_per_node;
  const int target = 2 * mp.cores_per_node;
  net::Fabric clean(mp, npes);
  const net::RoundTrip c = clean.submit_get(0, target, 4'096, sw, 0);
  const sim::Time kill_at = (c.target_read + c.complete) / 2;
  ASSERT_LT(c.target_read, kill_at);

  sim::Engine engine{64 * 1024};
  net::Fabric fab(mp, npes);
  net::FaultPlan plan;
  plan.kill_pe(0, kill_at);
  net::FaultInjector inj(plan, npes, mp.cores_per_node);
  fab.set_fault_injector(&inj);
  inj.arm(engine);
  const net::RoundTrip g = fab.submit_get(0, target, 4'096, sw, 0);
  EXPECT_EQ(g.attempts, 1);
  EXPECT_FALSE(g.ok);
  engine.run();
  EXPECT_TRUE(engine.pe_declared(0));
  EXPECT_FALSE(engine.pe_declared(target));
  EXPECT_EQ(engine.declared_count(), 1);
  EXPECT_EQ(obs::registry().counter(0, "fd.false_positives"), 0u);
}

// Control legs take their fate from the same function as data legs: an RPC
// reply and an AMO's reply sent into an active partition are dropped (and
// counted), and land only after the heal.
TEST(FaultyFabric, ControlReplyObeysPartition) {
  const net::MachineProfile mp = net::machine_profile(net::Machine::kStampede);
  const net::SwProfile sw =
      net::sw_profile(net::Library::kShmemMvapich, net::Machine::kStampede);
  const int npes = 4 * mp.cores_per_node;
  const int far = mp.cores_per_node;  // first PE of node 1
  const sim::Time heal = 1'000'000;
  {
    net::Fabric fab(mp, npes);
    net::FaultPlan plan;
    plan.partition_nodes({1}, 0, heal);
    net::FaultInjector inj(plan, npes, mp.cores_per_node);
    fab.set_fault_injector(&inj);
    const net::PutCompletion r = fab.submit_reply(far, 0, 64, sw, 1'000);
    EXPECT_TRUE(r.ok);
    EXPECT_GT(r.attempts, 1);
    EXPECT_GE(r.delivered, heal);
    EXPECT_EQ(inj.counters().partition_drops,
              static_cast<std::uint64_t>(r.attempts - 1));
  }
  {
    // The partition forms after the AMO request lands, before its reply.
    net::Fabric clean(mp, npes);
    const net::RoundTrip c = clean.submit_amo(0, far, sw, 0);
    net::Fabric fab(mp, npes);
    net::FaultPlan plan;
    plan.partition_nodes({1}, c.target_read, c.target_read + heal);
    net::FaultInjector inj(plan, npes, mp.cores_per_node);
    fab.set_fault_injector(&inj);
    const net::RoundTrip a = fab.submit_amo(0, far, sw, 0);
    EXPECT_TRUE(a.ok);
    EXPECT_GT(a.attempts, 1);
    EXPECT_EQ(a.target_read, c.target_read);  // executed once, on time
    EXPECT_GE(a.complete, c.target_read + heal);
    EXPECT_GE(inj.counters().partition_drops, 1u);
  }
}

// ---------------------------------------------------------------------------
// CAF_FD_* environment validation: a malformed override is a configuration
// error (std::invalid_argument naming the variable), never a silent default.
// ---------------------------------------------------------------------------

namespace {

/// Sets one environment variable for the duration of a scope and always
/// restores the previous state, so a throwing apply_env() cannot leak a
/// poisoned value into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

}  // namespace

TEST(FaultEnv, WellFormedOverridesAreApplied) {
  ScopedEnv period("CAF_FD_PERIOD_NS", "25000");
  ScopedEnv miss("CAF_FD_MISS", "7");
  ScopedEnv grace("CAF_FD_GRACE_NS", "0");
  ScopedEnv adaptive("CAF_FD_ADAPTIVE", "no");
  net::FaultPlan plan;
  plan.apply_env();
  EXPECT_EQ(plan.fd.heartbeat_period, 25'000);
  EXPECT_EQ(plan.fd.miss_threshold, 7);
  EXPECT_EQ(plan.fd.suspicion_grace, 0);
  EXPECT_FALSE(plan.retry.adaptive);
}

TEST(FaultEnv, UnitSuffixIsRejectedNotTruncated) {
  // strtoll would happily parse the "50" prefix of "50us"; the validator
  // must refuse the trailing garbage instead of installing 50ns.
  ScopedEnv period("CAF_FD_PERIOD_NS", "50us");
  net::FaultPlan plan;
  EXPECT_THROW(plan.apply_env(), std::invalid_argument);
}

TEST(FaultEnv, NonNumericValueIsRejected) {
  ScopedEnv miss("CAF_FD_MISS", "three");
  net::FaultPlan plan;
  EXPECT_THROW(plan.apply_env(), std::invalid_argument);
}

TEST(FaultEnv, OutOfRangeValuesAreRejected) {
  {
    ScopedEnv period("CAF_FD_PERIOD_NS", "0");  // must be positive
    net::FaultPlan plan;
    EXPECT_THROW(plan.apply_env(), std::invalid_argument);
  }
  {
    ScopedEnv miss("CAF_FD_MISS", "-2");
    net::FaultPlan plan;
    EXPECT_THROW(plan.apply_env(), std::invalid_argument);
  }
  {
    ScopedEnv grace("CAF_FD_GRACE_NS", "-1");  // grace may be 0, not < 0
    net::FaultPlan plan;
    EXPECT_THROW(plan.apply_env(), std::invalid_argument);
  }
}

TEST(FaultEnv, MalformedBooleanIsRejected) {
  ScopedEnv adaptive("CAF_FD_ADAPTIVE", "maybe");
  net::FaultPlan plan;
  EXPECT_THROW(plan.apply_env(), std::invalid_argument);
}

TEST(FaultEnv, InvertedRtoClampIsRejected) {
  ScopedEnv lo("CAF_FD_RTO_MIN_NS", "500000");
  ScopedEnv hi("CAF_FD_RTO_MAX_NS", "10000");
  net::FaultPlan plan;
  EXPECT_THROW(plan.apply_env(), std::invalid_argument);
}

TEST(FaultEnv, DiagnosticNamesTheVariableAndValue) {
  ScopedEnv period("CAF_FD_PERIOD_NS", "50us");
  net::FaultPlan plan;
  try {
    plan.apply_env();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CAF_FD_PERIOD_NS"), std::string::npos) << what;
    EXPECT_NE(what.find("50us"), std::string::npos) << what;
  }
}
