// Replicated-DHT serving harness: open-loop Zipf-skewed get/put streams
// against the apps::dhtr::ReplicatedTable with a scripted mid-run primary
// kill (the growth of bench/fig9_dht into an availability benchmark;
// DESIGN.md §4d, EXPERIMENTS.md "Availability under a primary kill").
//
// Every image runs an open-loop client: arrival times are drawn up front
// from a deterministic per-image schedule, so when an operation stalls
// (retransmit exhaustion toward the killed primary, a lock reclaim, a
// suspicion-steered replica read) the backlog shows up as queueing delay in
// the recorded latency, exactly like a saturated serving system. Keys are
// rank-mapped so the Zipf head lands on the victim's shard — the kill hits
// the hottest primary at peak traffic.
//
// Reported per machine (xc30 = Cray-SHMEM conduit, stampede = MVAPICH2-X):
//   * get/put p50/p99/p999 from the obs log2 histograms (Hist::quantile);
//   * pre-kill p99 vs the worst 50us post-kill window, and the p99
//     recovery time: how long after the kill windowed p99 stays above
//     3x the pre-kill baseline (bounded by the declaration budget);
//   * zero-lost-acked audit: per-key acknowledged increments (recorded by
//     the clients, the victim's included — an ack precedes the fence
//     completing on every surviving owner) compared against
//     replica-fallback reads after anti-entropy quiesces;
//   * determinism: the whole scenario runs twice and the sample/ledger/
//     declaration hash must match byte for byte.
//
// `--json PATH` writes BENCH_dht_serve.json (diffed against its baseline
// by scripts/bench_diff.py); `--smoke` runs the bounded CI leg;
// `--machine xc30|stampede` restricts the profile. Exit status is nonzero
// if any availability invariant (lost ack, unbounded recovery, leftover
// replication debt, no promotion, nondeterminism) is violated — the
// harness is self-checking.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/dht_replicated.hpp"
#include "apps/driver.hpp"
#include "bench_util.hpp"
#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

constexpr std::uint64_t kSeed = 0xD47;
constexpr int kVictim0 = 3;  // PE 3 = image 4 = initial primary of shard 3
constexpr sim::Time kWindowNs = 50'000;
constexpr sim::Time kRecoveryBoundNs = 400'000;

using bench::check;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ULL;
}

struct Profile {
  const char* name;
  driver::StackKind kind;
  net::Machine machine;
  int images() const {
    return net::machine_profile(machine).cores_per_node + 2;
  }
};

constexpr Profile kProfiles[] = {
    {"xc30", driver::StackKind::kShmemCray, net::Machine::kXC30},
    {"stampede", driver::StackKind::kShmemMvapich, net::Machine::kStampede},
};

struct Shape {
  int images = 0;
  int ops = 0;            // per image
  sim::Time period = 0;   // open-loop inter-arrival base (ns)
  sim::Time jitter = 0;   // uniform extra inter-arrival (ns)
  sim::Time kill_at = 0;
  std::int64_t total_keys = 0;
  apps::dhtr::Config cfg;
  std::vector<double> cdf;  // Zipf(s=1.0) CDF over key ranks
};

Shape make_shape(const Profile& prof, bool smoke) {
  Shape sh;
  sh.images = prof.images();
  sh.ops = smoke ? 48 : 160;
  // Per-machine rate: keep the hot shard's stripe lock below saturation
  // (Stampede's MVAPICH put path is ~2x the XC30 cost), so pre-kill latency
  // reflects service time and the kill is the only latency event. The kill
  // lands a third of the way into the schedule — mid-stream, peak traffic.
  sh.period = prof.machine == net::Machine::kStampede ? 120'000 : 80'000;
  sh.jitter = sh.period / 2;
  sh.kill_at = static_cast<sim::Time>(sh.ops) * (sh.period + sh.jitter / 2) / 3;
  sh.cfg.buckets_per_image = 16;
  sh.cfg.replication = 2;
  sh.cfg.locks_per_image = 8;
  sh.cfg.compute_ns = 200;
  sh.total_keys =
      sh.cfg.buckets_per_image * static_cast<std::int64_t>(sh.images);
  sh.cdf.resize(static_cast<std::size_t>(sh.total_keys));
  double mass = 0.0;
  for (std::size_t r = 0; r < sh.cdf.size(); ++r) {
    mass += 1.0 / std::pow(static_cast<double>(r + 1), 1.0);
    sh.cdf[r] = mass;
  }
  for (double& c : sh.cdf) c /= mass;
  sh.cdf.back() = 1.0;
  return sh;
}

/// Rank r in Zipf popularity order -> key. Rank 0 starts on the victim's
/// shard so the hottest keys lose their primary mid-run.
std::int64_t key_of_rank(const Shape& sh, std::size_t rank) {
  return (kVictim0 * sh.cfg.buckets_per_image +
          static_cast<std::int64_t>(rank)) %
         sh.total_keys;
}

struct Sample {
  sim::Time arrival;
  sim::Time lat;
  bool put;
  /// The op took a failure path (retry, lock reclaim, replica fallback,
  /// re-fence) or was queued behind one on the same client — i.e. its
  /// latency is attributable to the kill, not to an ordinary service tail.
  bool affected;
};

struct ServeResult {
  bool completed = false;
  bool victim_declared = false;
  std::vector<std::vector<Sample>> samples;       // per 0-based image
  std::vector<std::vector<std::int64_t>> acked;   // per 0-based image, key
  std::vector<sim::PeFailure> declared;
  std::int64_t lost = 0;
  std::int64_t verified_keys = 0;
  int under_replicated = 0;
  std::uint64_t writes = 0, writes_acked = 0, read_fallbacks = 0,
                lock_reclaims = 0, ae_pulls = 0, promotions = 0;

  std::uint64_t hash() const {
    std::uint64_t h = 14695981039346656037ULL;
    for (const auto& row : samples) {
      for (const Sample& s : row) {
        h = fnv(h, static_cast<std::uint64_t>(s.arrival));
        h = fnv(h, static_cast<std::uint64_t>(s.lat));
        h = fnv(h, (s.put ? 1u : 0u) | (s.affected ? 2u : 0u));
      }
    }
    for (const auto& row : acked) {
      for (const std::int64_t v : row) {
        h = fnv(h, static_cast<std::uint64_t>(v));
      }
    }
    for (const auto& f : declared) {
      h = fnv(h, static_cast<std::uint64_t>(f.pe));
      h = fnv(h, static_cast<std::uint64_t>(f.at));
    }
    h = fnv(h, static_cast<std::uint64_t>(lost));
    h = fnv(h, writes_acked);
    h = fnv(h, promotions);
    return h;
  }
};

std::uint64_t repl_sum(int images, const char* name) {
  std::uint64_t s = 0;
  for (int pe = 0; pe < images; ++pe) s += obs::registry().value(pe, name);
  return s;
}

ServeResult run_serve(const Profile& prof, const Shape& sh) {
  ServeResult res;
  res.samples.assign(static_cast<std::size_t>(sh.images), {});
  res.acked.assign(static_cast<std::size_t>(sh.images),
                   std::vector<std::int64_t>(
                       static_cast<std::size_t>(sh.total_keys), 0));
  obs::registry().clear();

  net::FaultPlan plan;
  plan.retry.max_retransmits = 5;
  plan.retry.rto_min = 2'000;
  plan.retry.rto_max = 20'000;
  // Fast detector so the failover happens while the stream is still hot
  // (same tunables the fault-label regressions pin down).
  plan.fd.heartbeat_period = 10'000;
  plan.fd.miss_threshold = 3;
  plan.fd.suspicion_grace = 50'000;
  plan.kill_pe(kVictim0, sh.kill_at);

  driver::Stack stack(prof.kind, sh.images, prof.machine, 8 << 20, {}, plan);
  try {
    stack.run([&](caf::Runtime& rt) {
      sim::Engine& eng = *sim::Engine::current();
      const int me = rt.this_image();
      const auto me0 = static_cast<std::size_t>(me - 1);
      apps::dhtr::ReplicatedTable table(rt, sh.cfg);
      auto& get_h = obs::registry().hist(me - 1, "serve.get_ns");
      auto& put_h = obs::registry().hist(me - 1, "serve.put_ns");
      sim::Rng rng(kSeed * 1'000'003ULL +
                   static_cast<std::uint64_t>(me) * 7'919ULL);
      // Failure-path evidence for *this image*: these counters only move
      // when an op hits a dead or suspect owner (or cleans up after one).
      const auto fail_evidence = [&] {
        const auto& reg = obs::registry();
        const int pe = me - 1;
        return reg.value(pe, "repl.write_retries") +
               reg.value(pe, "repl.write_failures") +
               reg.value(pe, "repl.lock_reclaims") +
               reg.value(pe, "repl.chain_refences") +
               reg.value(pe, "repl.read_fallbacks") +
               reg.value(pe, "repl.read_stale_skips") +
               reg.value(pe, "repl.read_failures");
      };
      bool lagging = false;
      // Open-loop client: the arrival clock advances by the schedule alone;
      // a slow operation makes later ones start late, and that queueing
      // delay is charged to their latency. A random phase offset plus wide
      // jitter decorrelates the images — without it every client fires at
      // the hot shard in lockstep waves and steady-state convoys drown the
      // failover signal.
      sim::Time arrival =
          eng.sim_now() +
          static_cast<sim::Time>(rng.below(static_cast<std::uint64_t>(sh.period)));
      for (int k = 0; k < sh.ops; ++k) {
        arrival += sh.period + static_cast<sim::Time>(
                                   rng.below(static_cast<std::uint64_t>(sh.jitter)));
        const bool is_put = rng.below(100) < 35;
        const double u = rng.uniform();
        std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(sh.cdf.begin(), sh.cdf.end(), u) -
            sh.cdf.begin());
        if (rank >= sh.cdf.size()) rank = sh.cdf.size() - 1;
        const std::int64_t key = key_of_rank(sh, rank);
        if (eng.sim_now() < arrival) {
          eng.advance(arrival - eng.sim_now());
          lagging = false;  // backlog drained; client is on schedule again
        }
        const std::uint64_t ev0 = fail_evidence();
        if (is_put) {
          // The ledger entry lands the instant the ack does: the victim's
          // own acknowledged writes stay auditable after its fiber dies.
          if (table.put_inc(key)) {
            ++res.acked[me0][static_cast<std::size_t>(key)];
          }
        } else {
          std::int64_t v = 0;
          (void)table.get_count(key, &v);
        }
        const sim::Time lat = eng.sim_now() - arrival;
        const bool affected = fail_evidence() != ev0 || lagging;
        if (affected) lagging = true;
        res.samples[me0].push_back({arrival, lat, is_put, affected});
        (is_put ? put_h : get_h).record(lat);
      }
      // Quiesce: fix the global acked ledger, let the declaration land,
      // drain re-replication, then audit (survivors only past here).
      (void)rt.sync_all_stat();
      for (int i = 0; i < 800 && !eng.pe_declared(kVictim0); ++i) {
        eng.advance(10'000);
      }
      for (int round = 0; round < 64; ++round) {
        table.store().anti_entropy();
        if (table.store().under_replicated_local() == 0) break;
        eng.advance(20'000);
      }
      res.under_replicated += table.store().under_replicated_local();
      (void)rt.sync_all_stat();
      if (me == 1) {
        for (std::int64_t key = 0; key < sh.total_keys; ++key) {
          std::int64_t total = 0;
          for (const auto& row : res.acked) {
            total += row[static_cast<std::size_t>(key)];
          }
          if (total == 0) continue;
          ++res.verified_keys;
          std::int64_t count = 0;
          if (!table.get_count(key, &count)) {
            res.lost += total;
          } else if (count < total) {
            res.lost += total - count;
          }
        }
      }
    });
    res.completed = true;
  } catch (const std::exception& e) {
    std::printf("  serve run aborted: %s\n", e.what());
  }
  res.declared = stack.engine().declared_failures();
  res.victim_declared = stack.engine().pe_declared(kVictim0);
  res.writes = repl_sum(sh.images, "repl.writes");
  res.writes_acked = repl_sum(sh.images, "repl.writes_acked");
  res.read_fallbacks = repl_sum(sh.images, "repl.read_fallbacks");
  res.lock_reclaims = repl_sum(sh.images, "repl.lock_reclaims");
  res.ae_pulls = repl_sum(sh.images, "repl.ae_pulls");
  // Every image's map observes the same promotion sequence; report one
  // image's count rather than the survivor-weighted sum.
  res.promotions = obs::registry().value(0, "repl.promotions");
  return res;
}

struct Recovery {
  std::uint64_t pre_p99 = 0;
  std::uint64_t steady_window_p99 = 0;  ///< worst pre-kill 50us window
  std::uint64_t post_steady_window_p99 = 0;  ///< settled post-kill envelope
  std::uint64_t worst_window_p99 = 0;   ///< worst post-kill 50us window
  std::uint64_t affected_ops = 0;       ///< ops that took a failure path
  sim::Time recovery_ns = 0;
};

/// Windows all samples (by arrival) into 50us buckets around the kill.
///
/// Failover changes the equilibrium, not just the transient: the node-local
/// replica walk put every shard's second copy on the small spill node, so
/// after promotion the hot shard is served by a remote primary and its p99
/// settles *higher* than before the kill (the post-steady envelope, taken
/// from the last third of the post-kill windows). Recovery time is how long
/// windowed p99 stays above 1.5x the larger of the two steady envelopes in
/// windows containing failure-affected ops — the failover spike (retransmit
/// exhaustion, lock handoff, promotion) must decay to the new equilibrium
/// within the declaration budget. Windows whose tail comes purely from
/// ordinary service-time outliers (no affected op) never extend recovery.
Recovery analyze_recovery(const ServeResult& res, sim::Time kill_at) {
  Recovery rec;
  obs::Hist pre;
  std::vector<obs::Hist> pre_win, post_win;
  std::vector<std::uint32_t> post_affected;
  for (const auto& row : res.samples) {
    for (const Sample& s : row) {
      auto& win = s.arrival < kill_at ? pre_win : post_win;
      const sim::Time rel =
          s.arrival < kill_at ? s.arrival : s.arrival - kill_at;
      const auto idx = static_cast<std::size_t>(rel / kWindowNs);
      if (idx >= win.size()) win.resize(idx + 1);
      win[idx].record(s.lat);
      if (s.arrival < kill_at) {
        pre.record(s.lat);
      } else {
        if (idx >= post_affected.size()) post_affected.resize(idx + 1, 0);
        if (s.affected) {
          ++post_affected[idx];
          ++rec.affected_ops;
        }
      }
    }
  }
  rec.pre_p99 = pre.quantile(0.99);
  for (const auto& h : pre_win) {
    if (h.count() >= 5) {
      rec.steady_window_p99 =
          std::max(rec.steady_window_p99, h.quantile(0.99));
    }
  }
  for (std::size_t i = post_win.size() - post_win.size() / 3;
       i < post_win.size(); ++i) {
    if (post_win[i].count() >= 5) {
      rec.post_steady_window_p99 =
          std::max(rec.post_steady_window_p99, post_win[i].quantile(0.99));
    }
  }
  const std::uint64_t steady =
      std::max(rec.steady_window_p99, rec.post_steady_window_p99);
  const std::uint64_t threshold =
      std::max<std::uint64_t>(steady + steady / 2, 20'000);
  std::ptrdiff_t last_bad = -1;
  for (std::size_t i = 0; i < post_win.size(); ++i) {
    if (post_win[i].count() == 0) continue;
    const std::uint64_t p = post_win[i].quantile(0.99);
    rec.worst_window_p99 = std::max(rec.worst_window_p99, p);
    if (post_win[i].count() >= 5 && p > threshold &&
        post_affected[i] > 0) {
      last_bad = static_cast<std::ptrdiff_t>(i);
    }
  }
  if (last_bad >= 0) {
    rec.recovery_ns = (static_cast<sim::Time>(last_bad) + 1) * kWindowNs;
  }
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const char* json_path = bench::flag_value(argc, argv, "--json");
  const char* only_machine = bench::flag_value(argc, argv, "--machine");

  std::printf("=== dht_serve: replicated DHT under a scripted primary kill"
              " ===\n");
  bench::Record rows = bench::Record::array();
  for (const Profile& prof : kProfiles) {
    if (only_machine != nullptr &&
        std::strcmp(only_machine, prof.name) != 0) {
      continue;
    }
    const Shape sh = make_shape(prof, smoke);
    std::printf("\n[%s] %s: %d images, %d ops/image, kill pe %d (image %d,"
                " shard %d primary) at %.0fus\n",
                prof.name, driver::name(prof.kind), sh.images, sh.ops,
                kVictim0, kVictim0 + 1, kVictim0,
                static_cast<double>(sh.kill_at) / 1000.0);
    const ServeResult a = run_serve(prof, sh);
    const ServeResult b = run_serve(prof, sh);  // determinism rerun
    const bool deterministic = a.hash() == b.hash();

    check(a.completed && b.completed, prof.name, "serve runs terminate");
    check(a.victim_declared, prof.name, "victim declared by run end");
    check(a.lost == 0, prof.name, "zero lost acknowledged writes");
    check(a.under_replicated == 0, prof.name,
          "anti-entropy restored the replication factor");
    check(a.promotions >= 1, prof.name, "failover promoted a replica");
    check(a.verified_keys > 0, prof.name, "audit covered written keys");
    check(deterministic, prof.name, "same-seed rerun is byte-identical");

    // Global quantiles from the per-image log2 histograms, merged by
    // replaying the samples into one Hist per op kind.
    obs::Hist get_h, put_h;
    for (const auto& row : a.samples) {
      for (const Sample& s : row) (s.put ? put_h : get_h).record(s.lat);
    }
    const Recovery rec = analyze_recovery(a, sh.kill_at);
    check(rec.recovery_ns <= kRecoveryBoundNs, prof.name,
          "p99 recovery bounded by the declaration budget");

    const double acked_ratio =
        a.writes > 0
            ? static_cast<double>(a.writes_acked) / static_cast<double>(a.writes)
            : 0.0;
    std::printf("  get  p50/p99/p999: %" PRIu64 " / %" PRIu64 " / %" PRIu64
                " ns  (%" PRIu64 " ops)\n",
                get_h.quantile(0.50), get_h.quantile(0.99),
                get_h.quantile(0.999), get_h.count());
    std::printf("  put  p50/p99/p999: %" PRIu64 " / %" PRIu64 " / %" PRIu64
                " ns  (%" PRIu64 " ops)\n",
                put_h.quantile(0.50), put_h.quantile(0.99),
                put_h.quantile(0.999), put_h.count());
    std::printf("  window p99: pre-kill %" PRIu64 "ns, post-kill settled %"
                PRIu64 "ns, failover spike %" PRIu64
                "ns; p99 recovery %.0fus after kill (%" PRIu64
                " failure-affected ops)\n",
                rec.steady_window_p99, rec.post_steady_window_p99,
                rec.worst_window_p99,
                static_cast<double>(rec.recovery_ns) / 1000.0,
                rec.affected_ops);
    std::printf("  audit: %" PRId64 " keys, lost acked %" PRId64
                "; acked %.4f of %" PRIu64 " writes; promotions %" PRIu64
                ", ae_pulls %" PRIu64 ", read_fallbacks %" PRIu64
                ", lock_reclaims %" PRIu64 "\n",
                a.verified_keys, a.lost, acked_ratio, a.writes, a.promotions,
                a.ae_pulls, a.read_fallbacks, a.lock_reclaims);
    std::printf("  determinism: %s\n", deterministic ? "ok" : "MISMATCH");

    rows.push(
        bench::Record().add("machine", prof.name).add("images", sh.images)
            .add("reps", sh.ops).add("get_p50_ns", get_h.quantile(0.50))
            .add("get_p99_ns", get_h.quantile(0.99))
            .add("get_p999_ns", get_h.quantile(0.999))
            .add("put_p50_ns", put_h.quantile(0.50))
            .add("put_p99_ns", put_h.quantile(0.99))
            .add("put_p999_ns", put_h.quantile(0.999))
            .add("pre_kill_p99_ns", rec.pre_p99)
            .add("steady_window_p99_ns", rec.steady_window_p99)
            .add("post_steady_window_p99_ns", rec.post_steady_window_p99)
            .add("worst_window_p99_ns", rec.worst_window_p99)
            .add("recovery_p99_ns", rec.recovery_ns).add("lost_acked", a.lost)
            .add("determinism_mismatch", deterministic ? 0 : 1)
            .add("under_replicated_final", a.under_replicated)
            .add("acked_ratio", acked_ratio, 6)
            .add("promotions", a.promotions).add("ae_pulls", a.ae_pulls)
            .add("read_fallbacks", a.read_fallbacks)
            .add("lock_reclaims", a.lock_reclaims));
  }

  if (json_path != nullptr) {
    std::printf("\n");
    bench::Record().add("bench", "dht_serve").add("unit", "ns")
        .add("seed", kSeed).add("machines", std::move(rows))
        .write(json_path);
  }

  if (bench::check_failures() > 0) {
    std::printf("\nDHT SERVE FAILED: %d invariant violations\n",
                bench::check_failures());
    return 1;
  }
  std::printf("\nDHT SERVE OK: all availability invariants held\n");
  return 0;
}
