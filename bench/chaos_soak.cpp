// Chaos-soak harness: randomized grey-failure scripts against the full
// UHCAF stack with the in-band heartbeat detector armed.
//
// Each script seeds a FaultPlan with a random mix of PE kills, healable
// network partitions, flaky links, stragglers, and background loss, then
// runs a two-node ring-put + team-collective workload and checks the
// robustness invariants end to end:
//
//   I1  no hangs: every script's engine run terminates (a watchdog
//       DeadlockError fails the script);
//   I2  no false positives: a merely-slow or flaky-linked PE is never
//       declared failed (fd.false_positives == 0), and every declared PE
//       is a planned kill;
//   I3  detection: a planned kill is always declared, strictly after the
//       kill (detection latency > 0);
//   I4  determinism: rerunning a script byte-identically reproduces the
//       injector trace hash, the declared-failure list, the fd.* counters,
//       and the surviving images' memory;
//   I5  memory: every ring slot owned and written by surviving images is
//       bit-identical to the fault-free expectation.
//
// `--json PATH` writes BENCH_chaos.json (detection-latency and
// false-positive metrics aggregated from the fd.* counters); `--smoke`
// runs the bounded CI leg. The header prints the effective RetryPolicy
// and DetectorTunables (CAF_FD_* environment overrides included).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/driver.hpp"
#include "bench_util.hpp"
#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

constexpr std::uint64_t kBaseSeed = 0xC4405ULL;

void check(bool ok, std::uint64_t seed, const char* what) {
  bench::check(ok, "seed " + std::to_string(seed), what);
}

std::int64_t slot_val(int writer_image, int k) {
  return static_cast<std::int64_t>(writer_image) * 1'000'003 + k * 7'919;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ULL;
}

// One randomized fault script. Kills never target pe 0 (the observer/root)
// and healable partition windows stay under the suspicion budget
// (suspect_after + grace) so a heal must always win the race against a
// declaration — any declaration of a non-killed PE is an invariant breach.
struct Script {
  net::FaultPlan plan;
  int killed_pe = -1;      // -1: no kill in this script
  sim::Time kill_at = 0;
  int straggler_pe = -1;
  bool has_partition = false;

  static Script generate(std::uint64_t seed, int images) {
    Script s;
    sim::Rng rng(seed * 0x9E3779B97f4A7C15ULL + 0xC4405);
    s.plan.with_seed(seed);
    if (rng.below(2) == 0) {
      s.killed_pe = 1 + static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(images - 1)));
      s.kill_at = 300'000 + static_cast<sim::Time>(rng.below(1'200'000));
      s.plan.kill_pe(s.killed_pe, s.kill_at);
    }
    if (rng.below(2) == 0) {
      const sim::Time from = 200'000 + static_cast<sim::Time>(rng.below(600'000));
      const sim::Time len = 150'000 + static_cast<sim::Time>(rng.below(150'000));
      s.plan.partition_nodes({1}, from, from + len);
      s.has_partition = true;
    }
    if (rng.below(2) == 0) {
      const double loss = 0.05 + 0.30 * (static_cast<double>(rng.below(1000)) / 1000.0);
      const double bw = 0.3 + 0.7 * (static_cast<double>(rng.below(1000)) / 1000.0);
      s.plan.flaky_link(0, 1, loss, bw, 100'000, 1'500'000);
    }
    if (rng.below(2) == 0) {
      int pe = 1 + static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(images - 1)));
      if (pe == s.killed_pe) pe = pe % (images - 1) + 1;
      if (pe != s.killed_pe) {
        s.straggler_pe = pe;
        const double dil = 2.0 + static_cast<double>(rng.below(4));
        s.plan.straggle_pe(pe, dil);
      }
    }
    if (rng.below(3) == 0) {
      s.plan.with_loss(0.002 + 0.015 * (static_cast<double>(rng.below(1000)) / 1000.0));
    }
    if (!s.plan.active()) s.plan.straggle_pe(1, 3.0);  // keep the plan grey
    return s;
  }
};

struct RunRecord {
  bool completed = false;
  std::uint64_t trace_hash = 0;
  std::uint64_t mem_hash = 0;
  std::vector<sim::PeFailure> declared;
  std::uint64_t fp = 0, declared_c = 0, evidence = 0, suspects = 0,
                recoveries = 0, flaps = 0, lat_total = 0, lat_count = 0;
  std::vector<std::vector<std::int64_t>> mem;  // per image, captured slots
  int coll_payload_errors = 0;
};

// Profile under soak: the conduit/machine pair plus the image count that
// spans exactly two nodes on that machine.
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

// Runs one script (or, with an inactive plan, the fault-free reference).
RunRecord run_script(const Script& s, const Profile& prof, int images,
                     int rounds) {
  RunRecord rec;
  rec.mem.assign(static_cast<std::size_t>(images), {});
  net::FaultPlan plan = s.plan;
  plan.apply_env();  // CAF_FD_* overrides reach every script
  driver::Stack stack(prof.kind, images, prof.machine, 8 << 20, {}, plan);
  const int victim_image = s.killed_pe >= 0 ? s.killed_pe + 1 : -1;
  const std::int64_t full_sum =
      static_cast<std::int64_t>(images) * (images + 1) / 2;
  try {
    stack.run([&](caf::Runtime& rt) {
      const int me = rt.this_image();
      const int n = rt.num_images();
      caf::Team all;
      for (int i = 1; i <= n; ++i) all.members.push_back(i);
      const std::uint64_t off =
          rt.allocate_coarray_bytes(static_cast<std::size_t>(rounds) * 8);
      std::memset(rt.local_addr(off), 0, static_cast<std::size_t>(rounds) * 8);
      (void)rt.sync_all_stat();
      const int right = me % n + 1;
      // The doomed image runs the same loop forever: it keeps pairing up
      // with the survivors' collectives until the kill unwinds it.
      for (int k = 0;; ++k) {
        stack.engine().advance(40'000);
        if (k < rounds) {
          const std::int64_t v = slot_val(me, k);
          (void)rt.put_bytes_stat(right, off + static_cast<std::uint64_t>(k) * 8,
                                  &v, sizeof v);
        }
        int payload = me == 1 ? 1'000 + (k % rounds) : -1;
        const int bst = rt.team_broadcast_bytes(all, &payload, sizeof payload, 1);
        if (bst == caf::kStatOk && payload != 1'000 + (k % rounds)) {
          ++rec.coll_payload_errors;
        }
        std::int64_t sum = me;
        const int rst = rt.co_sum_team(all, &sum, 1);
        if (rst == caf::kStatOk && sum != full_sum) ++rec.coll_payload_errors;
        if (me != victim_image && k == rounds - 1) break;
      }
      // Settle: drain retransmits held back by partition windows, then let
      // every pending declaration land before capturing memory.
      for (int sblk = 0; sblk < 24; ++sblk) {
        stack.engine().advance(100'000);
        (void)rt.sync_all_stat();
      }
      auto& out = rec.mem[static_cast<std::size_t>(me - 1)];
      out.resize(static_cast<std::size_t>(rounds));
      std::memcpy(out.data(), rt.local_addr(off),
                  static_cast<std::size_t>(rounds) * 8);
    });
    rec.completed = true;
  } catch (const std::exception& e) {
    std::printf("  script aborted: %s\n", e.what());
  }
  rec.declared = stack.engine().declared_failures();
  if (stack.injector() != nullptr) {
    rec.trace_hash = stack.injector()->trace_hash();
  }
  auto& reg = obs::registry();
  rec.fp = reg.counter(0, "fd.false_positives");
  rec.declared_c = reg.counter(0, "fd.declared");
  rec.evidence = reg.counter(0, "fd.evidence_declared");
  rec.suspects = reg.counter(0, "fd.suspects");
  rec.recoveries = reg.counter(0, "fd.recoveries");
  rec.flaps = reg.counter(0, "fd.flaps");
  rec.lat_total = reg.counter(0, "fd.detect_latency_ns_total");
  rec.lat_count = reg.counter(0, "fd.detect_count");
  // Hash the surviving images' captured memory (the doomed image never
  // reaches the capture point, so its row stays empty in both reruns).
  rec.mem_hash = 14695981039346656037ULL;
  for (const auto& row : rec.mem) {
    for (const std::int64_t v : row) {
      rec.mem_hash = fnv(rec.mem_hash, static_cast<std::uint64_t>(v));
    }
  }
  return rec;
}

void print_effective_tunables() {
  net::FaultPlan p;
  p.apply_env();
  std::printf(
      "  retry: rto=%" PRId64 "ns backoff=%.1f max_exp=%d jitter=%.2f"
      " max_retransmits=%d rto_min=%" PRId64 "ns rto_max=%" PRId64
      "ns adaptive=%d\n",
      p.retry.rto, p.retry.backoff, p.retry.max_backoff_exp, p.retry.jitter,
      p.retry.max_retransmits, p.retry.rto_min, p.retry.rto_max,
      p.retry.adaptive ? 1 : 0);
  std::printf("  detector: period=%" PRId64 "ns miss=%d grace=%" PRId64 "ns\n",
              p.fd.heartbeat_period, p.fd.miss_threshold, p.fd.suspicion_grace);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const char* json_path = bench::flag_value(argc, argv, "--json");
  const Profile* prof = &kProfiles[0];
  if (const char* name = bench::flag_value(argc, argv, "--machine")) {
    prof = nullptr;
    for (const Profile& p : kProfiles) {
      if (std::strcmp(name, p.name) == 0) prof = &p;
    }
    if (prof == nullptr) {
      std::fprintf(stderr, "unknown --machine %s (xc30|stampede)\n", name);
      return 2;
    }
  }
  const int images = prof->images();
  const int scripts = smoke ? 8 : 24;
  const int rounds = smoke ? 10 : 16;

  std::printf("chaos_soak: machine=%s images=%d scripts=%d rounds=%d"
              " base_seed=%" PRIu64 "\n",
              prof->name, images, scripts, rounds, kBaseSeed);
  print_effective_tunables();

  // Fault-free reference (I5): the ring slots a clean run produces must
  // match the analytic expectation slot_val(writer, k).
  {
    Script clean;
    clean.plan.straggle_pe(0, 1.0);  // unit dilation: plan grey, run clean
    const RunRecord ref = run_script(clean, *prof, images, rounds);
    bool ok = ref.completed && ref.declared.empty();
    for (int img = 1; img <= images && ok; ++img) {
      const int writer = (img + images - 2) % images + 1;
      const auto& row = ref.mem[static_cast<std::size_t>(img - 1)];
      for (int k = 0; k < rounds; ++k) {
        if (row[static_cast<std::size_t>(k)] != slot_val(writer, k)) {
          ok = false;
          break;
        }
      }
    }
    check(ok, 0, "fault-free reference run matches analytic slots");
  }

  std::uint64_t tot_declared = 0, tot_fp = 0, tot_evidence = 0,
                tot_suspects = 0, tot_recoveries = 0, tot_flaps = 0,
                tot_lat = 0, tot_lat_count = 0;
  bench::Record rows = bench::Record::array();

  for (int i = 0; i < scripts; ++i) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(i);
    const Script s = Script::generate(seed, images);
    const RunRecord a = run_script(s, *prof, images, rounds);
    const RunRecord b = run_script(s, *prof, images, rounds);  // I4 rerun

    check(a.completed && b.completed, seed, "I1: script runs terminate");
    check(a.coll_payload_errors == 0, seed,
          "collective rounds reporting kStatOk delivered correct data");

    // I2: only planned kills are ever declared.
    check(a.fp == 0, seed, "I2: fd.false_positives == 0");
    for (const auto& f : a.declared) {
      check(f.pe == s.killed_pe, seed, "I2: declared PE is the planned kill");
    }
    if (s.straggler_pe >= 0) {
      check(!(s.straggler_pe != s.killed_pe &&
              [&] {
                for (const auto& f : a.declared)
                  if (f.pe == s.straggler_pe) return true;
                return false;
              }()),
            seed, "I2: straggler never declared");
    }

    // I2b: a straggler/flaky-only script (no kill, no partition) must not
    // even *suspect* anybody — suspicion driven purely by slowness or link
    // loss means the miss threshold is too tight for the retry budget, and
    // every flap back to alive is that tuning bug caught in the act.
    if (s.killed_pe < 0 && !s.has_partition) {
      check(a.flaps == 0, seed, "I2b: straggler/flaky-only script never flaps");
    }

    // I3: a planned kill is detected, strictly after the kill.
    if (s.killed_pe >= 0) {
      bool found = false;
      for (const auto& f : a.declared) {
        if (f.pe == s.killed_pe) {
          found = true;
          check(f.at > s.kill_at, seed, "I3: declaration after the kill");
        }
      }
      check(found, seed, "I3: planned kill was declared");
      check(a.lat_count >= 1, seed, "I3: fd.detect_count counted the kill");
    } else {
      check(a.declared.empty(), seed, "I2: kill-free script declares nobody");
    }

    // I4: byte-identical rerun.
    check(a.trace_hash == b.trace_hash, seed, "I4: trace hash identical");
    check(a.mem_hash == b.mem_hash, seed, "I4: survivor memory identical");
    check(a.declared.size() == b.declared.size(), seed,
          "I4: declared list identical");
    for (std::size_t j = 0; j < a.declared.size() && j < b.declared.size();
         ++j) {
      check(a.declared[j].pe == b.declared[j].pe &&
                a.declared[j].at == b.declared[j].at,
            seed, "I4: declared entries identical");
    }
    check(a.fp == b.fp && a.declared_c == b.declared_c &&
              a.flaps == b.flaps && a.lat_total == b.lat_total,
          seed, "I4: fd.* counters identical");

    // I5: surviving ring slots match the fault-free expectation.
    for (int img = 1; img <= images; ++img) {
      const int writer = (img + images - 2) % images + 1;
      if (img == s.killed_pe + 1 || writer == s.killed_pe + 1) continue;
      const auto& row = a.mem[static_cast<std::size_t>(img - 1)];
      bool match = row.size() == static_cast<std::size_t>(rounds);
      for (int k = 0; match && k < rounds; ++k) {
        match = row[static_cast<std::size_t>(k)] == slot_val(writer, k);
      }
      check(match, seed, "I5: surviving slots bit-identical to fault-free");
    }

    tot_declared += a.declared_c;
    tot_fp += a.fp;
    tot_evidence += a.evidence;
    tot_suspects += a.suspects;
    tot_recoveries += a.recoveries;
    tot_flaps += a.flaps;
    tot_lat += a.lat_total;
    tot_lat_count += a.lat_count;

    const std::uint64_t lat_avg =
        a.lat_count > 0 ? a.lat_total / a.lat_count : 0;
    std::printf("  seed %" PRIu64 ": kill=%d partition=%d declared=%" PRIu64
                " fp=%" PRIu64 " detect_avg=%" PRIu64 "ns\n",
                seed, s.killed_pe, s.has_partition ? 1 : 0, a.declared_c,
                a.fp, lat_avg);
    rows.push(bench::Record().add("seed", seed).add("declared", a.declared_c)
                  .add("false_positives", a.fp)
                  .add("detect_latency_ns", lat_avg));
  }

  const std::uint64_t avg_lat =
      tot_lat_count > 0 ? tot_lat / tot_lat_count : 0;
  std::printf("chaos totals: declared=%" PRIu64 " false_positives=%" PRIu64
              " evidence=%" PRIu64 " suspects=%" PRIu64 " recoveries=%" PRIu64
              " flaps=%" PRIu64 " detect_avg=%" PRIu64 "ns\n",
              tot_declared, tot_fp, tot_evidence, tot_suspects,
              tot_recoveries, tot_flaps, avg_lat);

  if (json_path != nullptr) {
    bench::Record().add("bench", "chaos_soak").add("unit", "ns")
        .add("machine", prof->name).add("images", images)
        .add("reps", scripts).add("seed", kBaseSeed)
        .add("false_positives", tot_fp).add("declared_total", tot_declared)
        .add("evidence_declared_total", tot_evidence)
        .add("flaps_total", tot_flaps).add("detect_count", tot_lat_count)
        .add("detect_latency_avg_ns", avg_lat).add("rows", std::move(rows))
        .write(json_path);
  }

  if (bench::check_failures() > 0) {
    std::printf("CHAOS SOAK FAILED: %d invariant violations\n",
                bench::check_failures());
    return 1;
  }
  std::printf("CHAOS SOAK OK: %d scripts, all invariants held\n", scripts);
  return 0;
}
