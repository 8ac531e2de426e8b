// Mid-collective image kills under background loss: a kill landing inside a
// team broadcast, team allreduce, or team sync must surface as
// kStatFailedImage on every live member — never a hang — and the survivor
// team formed afterwards must run clean collectives again. Team operations
// run on the collectives engine: a declaration wakes every waiter, which
// finishes over the live members' tree with nbi puts and local flag waits,
// so a dead image can vanish at any protocol step without anyone issuing a
// blocking round trip to it — including the program's last team operation,
// which no later operation can rescue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "caf_test_util.hpp"
#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

using caftest::Harness;
using caftest::Stack;

namespace {

// Two XC30 nodes so the 1% loss actually judges wire traffic (the injector
// skips intra-node messages by design).
int two_node_images() {
  return net::machine_profile(net::Machine::kXC30).cores_per_node + 2;
}

caf::Team full_team(int images) {
  caf::Team t;
  for (int i = 1; i <= images; ++i) t.members.push_back(i);
  return t;
}

}  // namespace

TEST(CollFaults, MidBroadcastKillReportsOnAllLiveMembers) {
  const int images = two_node_images();
  const int victim = 4;  // 1-based, node 0
  net::FaultPlan plan;
  plan.with_seed(0xB1).with_loss(0.01);
  plan.kill_pe(victim - 1, 1'500'000);
  Harness h(Stack::kShmemCray, images, {}, 2 << 20, plan);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const caf::Team all = full_team(images);
    if (me == victim) {
      // Dies mid-collective: keeps participating until the kill lands.
      for (;;) {
        h.engine().advance(100'000);
        int payload = 0;
        (void)rt.team_broadcast_bytes(all, &payload, sizeof payload, 1);
      }
    }
    bool saw_failure = false;
    for (int k = 0; k < 25; ++k) {
      h.engine().advance(100'000);
      int payload = me == 1 ? 1'000 + k : -1;
      const int st =
          rt.team_broadcast_bytes(all, &payload, sizeof payload, 1);
      if (st == caf::kStatFailedImage) {
        saw_failure = true;
      } else {
        ASSERT_EQ(st, caf::kStatOk);
        EXPECT_EQ(payload, 1'000 + k);  // clean rounds deliver root's data
      }
    }
    EXPECT_TRUE(saw_failure);  // the kill landed mid-run on every survivor
    // Survivor team: collectives come back clean.
    int st = -1;
    const caf::Team team = rt.form_team(&st);
    EXPECT_EQ(st, caf::kStatFailedImage);
    EXPECT_FALSE(team.contains(victim));
    int payload = me == 1 ? 77 : 0;
    EXPECT_EQ(rt.team_broadcast_bytes(team, &payload, sizeof payload, 1),
              caf::kStatOk);
    EXPECT_EQ(payload, 77);
  });
}

TEST(CollFaults, MidAllreduceKillReportsOnAllLiveMembers) {
  const int images = two_node_images();
  const int victim = images - 1;  // node 1: its gather pulls cross the wire
  net::FaultPlan plan;
  plan.with_seed(0xB2).with_loss(0.01);
  plan.kill_pe(victim - 1, 1'200'000);
  Harness h(Stack::kShmemCray, images, {}, 2 << 20, plan);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const caf::Team all = full_team(images);
    if (me == victim) {
      for (;;) {
        h.engine().advance(80'000);
        std::int64_t v = me;
        (void)rt.co_sum_team(all, &v, 1);
      }
    }
    const std::int64_t full_sum =
        static_cast<std::int64_t>(images) * (images + 1) / 2;
    bool saw_failure = false;
    for (int k = 0; k < 25; ++k) {
      h.engine().advance(80'000);
      std::int64_t v = me;
      const int st = rt.co_sum_team(all, &v, 1);
      if (st == caf::kStatFailedImage) {
        saw_failure = true;  // value may or may not include the victim
      } else {
        ASSERT_EQ(st, caf::kStatOk);
        EXPECT_EQ(v, full_sum);
      }
    }
    EXPECT_TRUE(saw_failure);
    int st = -1;
    const caf::Team team = rt.form_team(&st);
    EXPECT_EQ(st, caf::kStatFailedImage);
    std::int64_t v = me;
    EXPECT_EQ(rt.co_sum_team(team, &v, 1), caf::kStatOk);
    EXPECT_EQ(v, full_sum - victim);
  });
}

TEST(CollFaults, MidTeamSyncKillReportsOnAllLiveMembers) {
  const int images = two_node_images();
  const int victim = 2;
  net::FaultPlan plan;
  plan.with_seed(0xB3).with_loss(0.01);
  plan.kill_pe(victim - 1, 1'000'000);
  Harness h(Stack::kShmemCray, images, {}, 2 << 20, plan);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const caf::Team all = full_team(images);
    if (me == victim) {
      for (;;) {
        h.engine().advance(60'000);
        (void)rt.team_sync(all);
      }
    }
    bool saw_failure = false;
    for (int k = 0; k < 30; ++k) {
      h.engine().advance(60'000);
      const int st = rt.team_sync(all);
      if (st == caf::kStatFailedImage) saw_failure = true;
    }
    EXPECT_TRUE(saw_failure);
    EXPECT_EQ(rt.image_status(victim), caf::kStatFailedImage);
    int st = -1;
    const caf::Team team = rt.form_team(&st);
    EXPECT_EQ(st, caf::kStatFailedImage);
    EXPECT_EQ(team.num_images(), images - 1);
    EXPECT_EQ(rt.team_sync(team), caf::kStatOk);
  });
}

namespace {

// A kill, a healable partition and a straggler landing together on 256
// XC30 images (the defect once listed in perfbench/README.md): a survivor's
// fetching AMO to the freshly killed image used to block until the
// transport's retransmit give-up, ~420 ms of virtual time, and every other
// survivor then waited on that survivor.
void run_stall_scenario(bool formed_team, std::uint64_t seed) {
  constexpr int kImages = 256;
  constexpr int kVictim = 61;  // 1-based
  constexpr int kRounds = 25;
  constexpr sim::Time kDeadline = 70'000'000;  // 70 ms virtual
  net::FaultPlan plan;
  plan.with_seed(seed);
  plan.kill_pe(kVictim - 1, 1'148'520);
  plan.partition_nodes({4}, 285'102, 599'575);
  plan.straggle_pe(178, 1.870);
  Harness h(Stack::kShmemCray, kImages, {}, 4 << 20, plan);
  constexpr std::int64_t kFullSum =
      static_cast<std::int64_t>(kImages) * (kImages + 1) / 2;
  std::vector<sim::Time> finished(kImages + 1, 0);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    caf::Team team = full_team(kImages);
    if (formed_team) {
      rt.sync_all();
      team = rt.form_team();
    }
    for (int k = 0;; ++k) {
      if (me != kVictim && k == kRounds) break;
      h.engine().advance(100'000);
      std::int64_t v = me;
      const int st = rt.co_sum_team(team, &v, 1);
      if (me == kVictim) continue;  // takes part until the kill lands
      const bool ok =
          (st == caf::kStatOk && v == kFullSum) ||
          (st == caf::kStatFailedImage &&
           (v == kFullSum || v == kFullSum - kVictim));
      EXPECT_TRUE(ok) << "image " << me << " round " << k << " stat " << st
                      << " value " << v;
    }
    finished[static_cast<std::size_t>(me)] = h.engine().now();
  });
  for (int i = 1; i <= kImages; ++i) {
    if (i == kVictim) continue;
    EXPECT_GT(finished[static_cast<std::size_t>(i)], sim::Time{0}) << i;
    EXPECT_LE(finished[static_cast<std::size_t>(i)], kDeadline) << i;
  }
  ASSERT_EQ(h.engine().declared_count(), 1);
  EXPECT_EQ(h.engine().declared_failures()[0].pe, kVictim - 1);
}

}  // namespace

TEST(CollFaults, KillPartitionStragglerDoNotStallLocalTeam) {
  run_stall_scenario(/*formed_team=*/false, /*seed=*/2);
}

TEST(CollFaults, KillPartitionStragglerDoNotStallFormedTeam) {
  run_stall_scenario(/*formed_team=*/true, /*seed=*/1);
}

namespace {

struct FinalRound {
  bool completed = false;          ///< engine.run() returned (nobody hung)
  std::vector<sim::Time> enter;    ///< per image: entered the last round
  std::vector<sim::Time> leave;    ///< per image: returned from it (0: never)
  std::vector<int> stat;
  std::vector<std::int64_t> value;
  std::uint64_t served = 0;        ///< results serve_stranded handed over
  std::string error;               ///< the drained engine's report on a hang
};

struct FinalRoundScenario {
  int images = 0;   ///< XC30 images, 24 per node
  bool sync = false;///< team_sync rounds instead of co_sum_team
  int idle = 0;     ///< 1-based image that idles until its early kill, or 0
  net::FaultPlan plan;
};

constexpr int kFinalRounds = 3;

std::int64_t full_sum(int images) {
  return static_cast<std::int64_t>(images) * (images + 1) / 2;
}

// kFinalRounds team operations over the full team, 100 us apart. A sync
// round's value is the sum it vouches for: the full sum when OK.
FinalRound run_final_rounds(const FinalRoundScenario& sc,
                            const net::FaultPlan& plan) {
  const int n = sc.images;
  FinalRound r;
  r.enter.assign(static_cast<std::size_t>(n) + 1, 0);
  r.leave.assign(static_cast<std::size_t>(n) + 1, 0);
  r.stat.assign(static_cast<std::size_t>(n) + 1, -1);
  r.value.assign(static_cast<std::size_t>(n) + 1, 0);
  Harness h(Stack::kShmemCray, n, {}, 2 << 20, plan);
  try {
    h.run([&] {
      auto& rt = h.rt();
      const int me = rt.this_image();
      if (me == sc.idle) {
        h.engine().advance(10'000'000);
        return;
      }
      const caf::Team all = full_team(n);
      for (int k = 0; k < kFinalRounds; ++k) {
        h.engine().advance(100'000);
        const auto i = static_cast<std::size_t>(me);
        r.enter[i] = h.engine().now();
        std::int64_t v = me;
        if (sc.sync) {
          r.stat[i] = rt.team_sync(all);
          v = r.stat[i] == caf::kStatOk ? full_sum(n) : full_sum(n) - sc.idle;
        } else {
          r.stat[i] = rt.co_sum_team(all, &v, 1);
        }
        r.value[i] = v;
        if (k == kFinalRounds - 1) r.leave[i] = h.engine().now();
      }
    });
    r.completed = true;
  } catch (const std::exception& e) {
    r.error = e.what();  // a hang ends the run as a drained-engine error
  }
  for (int pe = 0; pe < n; ++pe) {
    r.served += obs::registry().counter(pe, "coll.team_served");
  }
  return r;
}

// Kills `victim` (1-based) at `steps` + 1 evenly spaced times across the
// last round's window (measured by a run without that kill) and checks
// that every other live image returns from every round with an allowed
// result. Returns the total number of results serve_stranded handed over.
std::uint64_t scan_final_round_kills(const FinalRoundScenario& sc, int victim,
                                     int steps) {
  const FinalRound probe = run_final_rounds(sc, sc.plan);
  EXPECT_TRUE(probe.completed) << probe.error;
  sim::Time lo = std::numeric_limits<sim::Time>::max();
  sim::Time hi = 0;
  for (int i = 1; i <= sc.images; ++i) {
    if (i == sc.idle) continue;
    lo = std::min(lo, probe.enter[static_cast<std::size_t>(i)]);
    hi = std::max(hi, probe.leave[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(lo, hi);
  const std::int64_t base_sum = full_sum(sc.images) - sc.idle;
  std::uint64_t served = 0;
  for (int s = 0; s <= steps; ++s) {
    const sim::Time at = lo + (hi - lo) * static_cast<sim::Time>(s) / steps;
    net::FaultPlan plan = sc.plan;
    plan.kill_pe(victim - 1, at);
    const FinalRound r = run_final_rounds(sc, plan);
    EXPECT_TRUE(r.completed) << "kill at " << at << " ns: " << r.error;
    served += r.served;
    for (int i = 1; i <= sc.images; ++i) {
      if (i == sc.idle || i == victim) continue;
      const auto k = static_cast<std::size_t>(i);
      EXPECT_GT(r.leave[k], sim::Time{0}) << "image " << i << " kill " << at;
      const bool ok =
          (r.stat[k] == caf::kStatOk && sc.idle == 0 &&
           r.value[k] == base_sum) ||
          (r.stat[k] == caf::kStatFailedImage &&
           (r.value[k] == base_sum || r.value[k] == base_sum - victim));
      EXPECT_TRUE(ok) << "image " << i << " kill " << at << " stat "
                      << r.stat[k] << " value " << r.value[k];
    }
  }
  return served;
}

}  // namespace

// The last team operation of a program: a relay that dies after the rest of
// the team finished it leaves its node's members waiting on a result that
// only neighbours which will never enter another team operation hold. Three
// nodes; image 10 is declared before the rounds, so all run failure-aware
// with image 49, node 2's leader, relaying between the root and its node.
TEST(CollFaults, RelayDeathInLastOperationStrandsNobody) {
  FinalRoundScenario sc;
  sc.images = 72;
  sc.idle = 10;
  sc.plan.kill_pe(sc.idle - 1, 50'000);
  EXPECT_GT(scan_final_round_kills(sc, /*victim=*/49, /*steps=*/40), 0u);
}

// A kill during the last operation's full-machine arm on six nodes, whose
// leader tree is two levels deep: members it cuts short finish failure-aware
// beside members that completed the arm, and the results must cross every
// edge between the two — including members that adopt a child's result
// while their own parent still waits, and members whose arm completes after
// a fast detector's declaration.
TEST(CollFaults, KillDuringLastArmStrandsNobody) {
  FinalRoundScenario sum;
  sum.images = 144;
  (void)scan_final_round_kills(sum, /*victim=*/97, /*steps=*/40);
  FinalRoundScenario sync = sum;
  sync.sync = true;
  sync.plan.with_detector({2'000, 1, 0});
  (void)scan_final_round_kills(sync, /*victim=*/122, /*steps=*/80);
}

// A team operation carries up to kTeamChunk bytes in one go: fault-free,
// the full-machine arm runs one engine collective over the whole payload.
TEST(CollFaults, LargeTeamPayloadIsOneCollective) {
  constexpr int kImages = 48;
  constexpr int kElems = 20;  // 160 B
  Harness h(Stack::kShmemCray, kImages);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const caf::Team all = full_team(kImages);
    const caf::CollTelemetry before = rt.coll_engine()->telemetry();
    std::int64_t v[kElems];
    for (int i = 0; i < kElems; ++i) v[i] = me * (i + 1);
    ASSERT_EQ(rt.co_sum_team(all, v, kElems), caf::kStatOk);
    for (int i = 0; i < kElems; ++i) {
      EXPECT_EQ(v[i], full_sum(kImages) * (i + 1));
    }
    unsigned char buf[200];
    for (int i = 0; i < 200; ++i) {
      buf[i] = static_cast<unsigned char>(me == 3 ? i : 0);
    }
    ASSERT_EQ(rt.team_broadcast_bytes(all, buf, sizeof buf, 3), caf::kStatOk);
    for (int i = 0; i < 200; ++i) EXPECT_EQ(buf[i], i);
    const caf::CollTelemetry after = rt.coll_engine()->telemetry();
    EXPECT_EQ(after.reductions - before.reductions, 1u);
    EXPECT_EQ(after.broadcasts - before.broadcasts, 1u);
  });
}

// The same payload with a kill landing among the rounds: every element of a
// result comes from the same operation outcome — the full sum or the
// survivors' sum, never a mix.
TEST(CollFaults, LargeTeamPayloadSurvivesKill) {
  constexpr int kImages = 72;
  constexpr int kElems = 20;
  const int victim = kImages - 5;
  net::FaultPlan plan;
  plan.with_seed(0xB4).with_loss(0.01);
  plan.kill_pe(victim - 1, 1'150'000);
  Harness h(Stack::kShmemCray, kImages, {}, 2 << 20, plan);
  h.run([&] {
    auto& rt = h.rt();
    const int me = rt.this_image();
    const caf::Team all = full_team(kImages);
    const std::int64_t full = full_sum(kImages);
    bool saw_failure = false;
    for (int k = 0;; ++k) {
      if (me != victim && k == 25) break;
      h.engine().advance(80'000);
      std::int64_t v[kElems];
      for (int i = 0; i < kElems; ++i) v[i] = me * (i + 1);
      const int st = rt.co_sum_team(all, v, kElems);
      if (me == victim) continue;  // takes part until the kill lands
      const std::int64_t sum = v[0];
      const bool ok = (st == caf::kStatOk && sum == full) ||
                      (st == caf::kStatFailedImage &&
                       (sum == full || sum == full - victim));
      EXPECT_TRUE(ok) << "image " << me << " round " << k << " stat " << st
                      << " value " << sum;
      for (int i = 0; i < kElems; ++i) EXPECT_EQ(v[i], sum * (i + 1));
      saw_failure |= st == caf::kStatFailedImage;
    }
    EXPECT_TRUE(saw_failure);
  });
}
