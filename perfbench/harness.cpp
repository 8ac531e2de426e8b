// Benchmark harness: runs ONE workload of the repository benchmark in this
// process and prints one JSON object of raw measurements on stdout.
//
//   perfbench_harness --workload <himeno|dht_locks|dht_rpc|failover>
//                     --seed <n> [--trace 0|1] [--spans <path>]
//
// perfbench/run.py spawns a fresh process per repetition (the thread-local
// event-slab cache and the fiber stack pool outlive an engine, so a second
// workload in one process would inherit a warm allocator) and aggregates.
//
// The harness drives only public layer APIs — driver::Stack, caf::Runtime,
// caf::rpc, apps::himeno::Solver, sim::Engine::stats(), obs::registry() /
// obs::analyze(), net::FaultInjector::counters() — and times each call it
// makes into a layer on the issuing image's virtual clock, so every number
// is measured from outside the layer it describes. All inputs (key streams,
// compute jitter, fault victim and timing) are generated here from --seed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/dht.hpp"
#include "apps/dht_rpc.hpp"
#include "apps/driver.hpp"
#include "apps/himeno.hpp"
#include "caf/rpc.hpp"
#include "obs/analyzer.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Host process counters (the `proc` layer).

struct ProcSample {
  double sys_s = 0;
  long minflt = 0;
  long maxrss_kb = 0;
};

ProcSample proc_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample p;
  p.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  p.minflt = ru.ru_minflt;
  p.maxrss_kb = ru.ru_maxrss;
  return p;
}

// ---------------------------------------------------------------------------
// Host speed reference: a fixed dependent-load chain over a 1 MiB table,
// none of it repository code. The cores of a shared host run the same work
// up to 1.7x slower for minutes at a time; run.py divides each process's
// host seconds by this loop's seconds, taken just before and just after
// the workload, so a slow spell cancels while a change to the program
// still shows in full. The table is mapped and unmapped around each call,
// so it adds nothing to the workload's page faults or peak RSS.

double reference_s() {
  constexpr std::uint32_t kWords = 1u << 18;
  constexpr long kLoads = 1'200'000;  // per sample, ~11 ms
  constexpr int kSamples = 5;         // the median drops a preempted one
  std::vector<std::uint32_t> table(kWords);
  for (std::uint32_t i = 0; i < kWords; ++i) table[i] = i * 2654435761u;
  std::vector<double> t(kSamples);
  std::uint32_t x = 1;
  for (double& ti : t) {
    const auto t0 = Clock::now();
    for (long i = 0; i < kLoads; ++i) {
      x = table[(x ^ static_cast<std::uint32_t>(i)) & (kWords - 1)] + x * 3;
    }
    ti = seconds_between(t0, Clock::now());
  }
  static volatile std::uint32_t sink;
  sink = x;
  std::nth_element(t.begin(), t.begin() + kSamples / 2, t.end());
  return t[kSamples / 2] * kSamples;
}

// ---------------------------------------------------------------------------
// The harness's own spans: one per public call into a layer, on the issuing
// image's virtual clock. Unit-op latencies are always kept (they feed the
// end-to-end percentiles); per-call spans only in a traced run.

enum class Call : std::uint8_t {
  kLock,
  kUnlock,
  kGet,
  kPut,
  kRpc,
  kSyncAll,
  kCoSumTeam,
  kCount
};

constexpr const char* kCallNames[] = {"lock", "unlock", "get", "put",
                                      "rpc",  "sync_all", "co_sum_team"};
static_assert(std::size(kCallNames) == static_cast<std::size_t>(Call::kCount));

struct SpanRec {
  sim::Time t0;
  sim::Time t1;
  std::int32_t image;
  std::uint8_t call;
};

class Ledger {
 public:
  explicit Ledger(bool keep_spans) : keep_spans_(keep_spans) {}

  /// Times `f()` as one call of kind `c` by `image`; returns f's result.
  template <typename F>
  auto call(Call c, int image, F&& f) {
    const sim::Time t0 = sim::this_pe::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      record(c, image, t0);
    } else {
      auto r = f();
      record(c, image, t0);
      return r;
    }
  }

  void op(sim::Time t0) { op_ns_.push_back(sim::this_pe::now() - t0); }

  const std::vector<sim::Time>& op_ns() const { return op_ns_; }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  void record(Call c, int image, sim::Time t0) {
    if (!keep_spans_) return;
    spans_.push_back(
        {t0, sim::this_pe::now(), image, static_cast<std::uint8_t>(c)});
  }

  bool keep_spans_;
  std::vector<sim::Time> op_ns_;
  std::vector<SpanRec> spans_;
};

// ---------------------------------------------------------------------------
// Phase boundaries, seen from inside the image fibers.

struct Phases {
  explicit Phases(int images) : images(images) {}

  /// Called by each image right after the workload's post-allocation
  /// sync_all; the last caller closes set-up.
  void setup_passed(const sim::Engine& eng) {
    if (++passed != images) return;
    setup_end = Clock::now();
    proc_setup = proc_now();
    stats_setup = eng.stats();
  }
  /// Called by each image just before its first workload op.
  void first_op() {
    const auto now = Clock::now();
    if (!run_start || now < *run_start) run_start = now;
    const sim::Time v = sim::this_pe::now();
    virt_start = std::min(virt_start, v);
  }
  /// Called by each image when its share of the workload is done.
  void finished(const sim::Engine& eng) {
    run_end = Clock::now();
    virt_end = std::max(virt_end, sim::this_pe::now());
    proc_run = proc_now();
    stats_run = eng.stats();
  }

  int images;
  int passed = 0;
  Clock::time_point setup_end{};
  std::optional<Clock::time_point> run_start;
  Clock::time_point run_end{};
  sim::Time virt_start = INT64_MAX;
  sim::Time virt_end = 0;
  ProcSample proc_setup, proc_run;
  sim::EngineStats stats_setup, stats_run;
};

// ---------------------------------------------------------------------------
// Workload outcome, filled by each workload runner.

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  ///< harness-check failures
  std::map<std::string, double> exact;  ///< deterministic per-seed values
  void violate(std::string what) {
    if (violations.size() < 16) violations.push_back(std::move(what));
  }
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t registry_sum(std::string_view name) {
  std::uint64_t s = 0;
  obs::registry().for_each_counter(
      [&](const std::string& n, int, std::uint64_t v) {
        if (n == name) s += v;
      });
  return s;
}

// ---------------------------------------------------------------------------
// himeno: CAF Himeno (Fig. 10) on Stampede / MVAPICH2-X SHMEM, 2048 images,
// 128^3 grid, naive strided halos. Unit op: one Solver::run() of a single
// Jacobi iteration. The seed draws a per-image, per-iteration compute jitter
// (OS noise, 0..kJitterNs) applied before each iteration.

constexpr int kHimenoImages = 2048;
constexpr int kHimenoIters = 8;
constexpr sim::Time kJitterNs = 500;

// ---------------------------------------------------------------------------
// dht_locks / dht_rpc: Fig. 9 DHT on Titan / Cray SHMEM, 1024 images, one
// shared seeded op stream: hot-skewed keys, locked updates beside unlocked
// finds. The seed also draws the per-update hash/compare work (290..309 ns)
// that the updater (dht_locks) or the owner's handler (dht_rpc) spends.
// Unit op: one DHT op.

constexpr int kDhtImages = 1024;
constexpr int kDhtOpsPerImage = 64;
constexpr int kDhtFindPercent = 30;
constexpr int kDhtHotPercent = 20;
constexpr std::int64_t kDhtHotKeys = 8;
constexpr std::int64_t kDhtBuckets = 64;  // per image
constexpr int kDhtLocks = 8;              // per image

struct DhtOp {
  std::int64_t key;
  bool find;
};

struct DhtInputs {
  std::vector<std::vector<DhtOp>> ops;  // per image
  sim::Time compute_ns;
};

DhtInputs dht_inputs(std::uint64_t seed) {
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xD47);
  const auto global = static_cast<std::uint64_t>(kDhtBuckets * kDhtImages);
  DhtInputs in{std::vector<std::vector<DhtOp>>(kDhtImages),
               290 + static_cast<sim::Time>(rng.below(20))};
  for (auto& mine : in.ops) {
    mine.resize(kDhtOpsPerImage);
    for (DhtOp& op : mine) {
      const bool hot = rng.below(100) < kDhtHotPercent;
      op.key = static_cast<std::int64_t>(
          hot ? rng.below(static_cast<std::uint64_t>(kDhtHotKeys))
              : rng.below(global));
      op.find = rng.below(100) < kDhtFindPercent;
    }
  }
  return in;
}

/// The read-only RPC body: returns the bucket's entry at its owner.
inline constexpr auto kFindFn = [](caf::sym_view<apps::dht::Entry> view,
                                   std::int64_t bucket) -> apps::dht::Entry {
  return view[static_cast<std::size_t>(bucket)];
};

struct FindSeen {
  std::int64_t key;
  apps::dht::Entry seen;
};

/// Checks the final table against the counts the op stream implies, checks
/// every find against it, and records the table digest. Both DHT workloads
/// must produce the same digest for one seed.
void check_dht(const std::vector<std::vector<DhtOp>>& ops,
               const std::vector<apps::dht::Entry>& table,
               const std::vector<FindSeen>& finds, Outcome& out) {
  std::vector<std::int64_t> expect(table.size(), 0);
  std::uint64_t updates = 0;
  for (const auto& mine : ops) {
    for (const DhtOp& op : mine) {
      if (op.find) continue;
      ++expect[static_cast<std::size_t>(op.key)];
      ++updates;
    }
  }
  std::int64_t total = 0;
  for (std::size_t k = 0; k < table.size(); ++k) {
    total += table[k].count;
    const bool ok = table[k].count == expect[k] &&
                    (expect[k] == 0 ? table[k].key == 0
                                    : table[k].key == static_cast<std::int64_t>(k));
    if (!ok) {
      out.violate("dht: bucket " + std::to_string(k) + " holds count " +
                  std::to_string(table[k].count) + ", expected " +
                  std::to_string(expect[k]));
    }
  }
  if (total != static_cast<std::int64_t>(updates)) {
    out.violate("dht: table sums to " + std::to_string(total) + ", " +
                std::to_string(updates) + " updates were applied");
  }
  for (const FindSeen& f : finds) {
    const auto k = static_cast<std::size_t>(f.key);
    const bool ok = f.seen.count >= 0 && f.seen.count <= expect[k] &&
                    (f.seen.count == 0 || f.seen.key == f.key);
    if (!ok) {
      ++out.failed;
      out.violate("dht: find of key " + std::to_string(f.key) + " saw count " +
                  std::to_string(f.seen.count));
    }
  }
  out.exact["table_digest"] = static_cast<double>(
      fnv1a(kFnvOffset, table.data(), table.size() * sizeof(table[0])) >> 11);
  out.exact["dht_updates"] = static_cast<double>(updates);
}

// ---------------------------------------------------------------------------
// failover: XC30 / Cray SHMEM, 256 images, modelled on the determinism-test
// scenario: node 1 partitioned for 300..700 us (healed before the
// detector's grace runs out) and PE 93 straggling x1.7. The seed draws the
// victim (an image on nodes 2..10), killed mid-collective at 1.1..1.3 ms,
// and seeds the fault injector's own stream (retransmit jitter). The
// survivors run kFailoverRounds rounds of co_sum_team over the full team.
// Unit op: one round's co_sum_team, call to return.
//
// Drawing the partitioned node and the straggler as well, or victims on
// node 0 (which hosts the collective roots), makes the fault round's
// latency multi-modal across draws (p99 of 4.4, 5.2, 6.5, 8.3 or 12.6 ms,
// or a ~420 ms stall), which no run-to-run bound can hold; see README.md,
// "Noise".

constexpr int kFailoverImages = 256;
constexpr int kFailoverRounds = 5;
constexpr sim::Time kFailoverThinkNs = 100'000;
constexpr int kPartitionNode = 1;
constexpr sim::Time kPartitionFrom = 300'000;
constexpr sim::Time kPartitionUntil = 700'000;
constexpr int kStragglerPe = 93;
constexpr double kStragglerDilation = 1.7;

struct FaultDraw {
  int victim;  // 1-based image
  sim::Time kill_at;
};

FaultDraw draw_faults(std::uint64_t seed, int cores_per_node) {
  sim::Rng rng(seed * 0xBF58476D1CE4E5B9ull + 0xFA11);
  const int first = 2 * cores_per_node + 1;  // first image on node 2
  FaultDraw d{};
  d.victim = first + static_cast<int>(rng.below(
                         static_cast<std::uint64_t>(kFailoverImages - first + 1)));
  d.kill_at = 1'100'000 + static_cast<sim::Time>(rng.below(200'000));
  return d;
}

// ---------------------------------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string spans_path;
};

struct Measured {
  Measured(bool trace, int images) : ledger(trace), ph(images) {}

  Outcome out;
  Ledger ledger;
  Phases ph;
  double verify_s = 0;
  double teardown_s = 0;
  std::map<std::string, double> layer;  ///< registry / injector / analyzer
};

void fill_registry_layer(Measured& m, driver::Stack& stack) {
  auto& L = m.layer;
  L.emplace("caf.co_sum_team.stat_failed_image", 0.0);
  const double quiet_calls = static_cast<double>(registry_sum("rma.quiet_calls"));
  L["rma.quiet_calls"] = quiet_calls;
  L["rma.quiet_elided_frac"] =
      quiet_calls > 0
          ? static_cast<double>(registry_sum("rma.quiet_elided")) / quiet_calls
          : 0.0;
  for (const char* n :
       {"rpc.sent", "rpc.replies", "rpc.parked_drains", "fd.suspects",
        "fd.declared", "fd.false_positives", "fd.detect_latency_ns_total",
        "coll.tree_fallback"}) {
    L[n] = static_cast<double>(registry_sum(n));
  }
  const net::FaultInjector* inj = stack.injector();
  L["net.judged"] = inj ? static_cast<double>(inj->counters().judged) : 0.0;
  L["net.partition_drops"] =
      inj ? static_cast<double>(inj->counters().partition_drops) : 0.0;
  if (obs::enabled()) {
    const obs::Attribution a = obs::analyze();
    const double wall = a.total.wall_ns;
    const char* names[] = {"attr.compute", "attr.wire", "attr.quiet",
                           "attr.lock",    "attr.sync", "attr.coll"};
    for (std::size_t g = 0; g < std::size(names); ++g) {
      L[names[g]] = wall > 0 ? a.total.by_group[g] / wall : 0.0;
    }
    L["attr.coverage"] = a.coverage();
  }
}

/// Runs the workload on `stack`, whose destruction is the teardown phase;
/// `body(rt)` is each image's share after rt.init(), and `verify(stack)`
/// runs on the host after the engine drains.
template <typename Body, typename Verify>
void drive(std::unique_ptr<driver::Stack> stack, Measured& m, Body&& body,
           Verify&& verify) {
  stack->run(body);
  const auto t0 = Clock::now();
  verify(*stack);
  fill_registry_layer(m, *stack);
  const auto t1 = Clock::now();
  stack.reset();
  m.verify_s = seconds_between(t0, t1);
  m.teardown_s = seconds_between(t1, Clock::now());
}

void run_himeno(Measured& m, std::uint64_t seed) {
  apps::himeno::Config base;
  base.gx = 128;
  base.gy = 128;
  base.gz = 128;
  base.iters = 1;
  const auto cfg = apps::himeno::decompose(base, kHimenoImages);
  sim::Rng rng(seed * 0x94D049BB133111EBull + 0x4133);
  std::vector<sim::Time> jitter(
      static_cast<std::size_t>(kHimenoImages) * kHimenoIters);
  for (sim::Time& j : jitter) j = static_cast<sim::Time>(rng.below(kJitterNs));

  caf::Options opts;
  opts.strided = caf::StridedAlgo::kNaive;
  opts.nonsym_slab_bytes = 64 << 10;
  const std::size_t p_bytes = static_cast<std::size_t>(cfg.gx) *
                              (cfg.gy / cfg.py + 2) * (cfg.gz / cfg.pz + 2) *
                              sizeof(double);
  auto stack = std::make_unique<driver::Stack>(
      driver::StackKind::kShmemMvapich, kHimenoImages, net::Machine::kStampede,
      p_bytes + (1 << 20), opts);
  std::vector<double> gosa(static_cast<std::size_t>(kHimenoImages) *
                           kHimenoIters);
  Ledger& led = m.ledger;
  Phases& p = m.ph;
  drive(
      std::move(stack), m,
      [&](caf::Runtime& rt) {
        sim::Engine& eng = *sim::Engine::current();
        const int me = rt.this_image();
        apps::himeno::Solver solver(rt, cfg);
        led.call(Call::kSyncAll, me, [&] { rt.sync_all(); });
        p.setup_passed(eng);
        p.first_op();
        for (int it = 0; it < kHimenoIters; ++it) {
          const std::size_t at =
              static_cast<std::size_t>(me - 1) * kHimenoIters + it;
          eng.advance(jitter[at]);
          const sim::Time t0 = eng.now();
          gosa[at] = solver.run().gosa;
          led.op(t0);
        }
        led.call(Call::kSyncAll, me, [&] { rt.sync_all(); });
        p.finished(eng);
      },
      [&](driver::Stack&) {
        Outcome& out = m.out;
        out.attempted = gosa.size();
        for (int it = 0; it < kHimenoIters; ++it) {
          const double ref = gosa[static_cast<std::size_t>(it)];
          for (int i = 0; i < kHimenoImages; ++i) {
            const double g =
                gosa[static_cast<std::size_t>(i) * kHimenoIters + it];
            if (!std::isfinite(g) || g != ref) {
              ++out.failed;
              out.violate("himeno: image " + std::to_string(i + 1) +
                          " iteration " + std::to_string(it) + " gosa " +
                          std::to_string(g) + " != image 1's " +
                          std::to_string(ref));
            }
          }
        }
        out.exact["gosa"] = gosa[kHimenoIters - 1];
      });
}

void run_dht(Measured& m, std::uint64_t seed, bool rpc) {
  const DhtInputs in = dht_inputs(seed);
  const auto& ops = in.ops;
  caf::Options opts;
  if (rpc) {
    opts.rpc.enabled = true;
    opts.rpc.transport = caf::RpcOptions::Transport::kMailbox;
    opts.rpc.slots_per_pair = 4;
    opts.rpc.slot_bytes = 128;
  }
  auto stack = std::make_unique<driver::Stack>(driver::StackKind::kShmemCray,
                                               kDhtImages, net::Machine::kTitan,
                                               2 << 20, opts);
  using apps::dht::Entry;
  std::vector<Entry> table(static_cast<std::size_t>(kDhtBuckets) * kDhtImages);
  std::vector<std::vector<FindSeen>> finds(kDhtImages);
  Ledger& led = m.ledger;
  Phases& p = m.ph;
  drive(
      std::move(stack), m,
      [&](caf::Runtime& rt) {
        sim::Engine& eng = *sim::Engine::current();
        const int me = rt.this_image();
        const std::size_t slice = kDhtBuckets * sizeof(Entry);
        const std::uint64_t data_off = rt.allocate_coarray_bytes(slice);
        std::memset(rt.local_addr(data_off), 0, slice);
        std::vector<caf::CoLock> locks;
        if (!rpc) {
          for (int i = 0; i < kDhtLocks; ++i) locks.push_back(rt.make_lock());
        }
        led.call(Call::kSyncAll, me, [&] { rt.sync_all(); });
        p.setup_passed(eng);
        p.first_op();
        const caf::sym_view<Entry> view{
            data_off, static_cast<std::uint32_t>(kDhtBuckets)};
        auto& seen = finds[static_cast<std::size_t>(me - 1)];
        for (const DhtOp& op : ops[static_cast<std::size_t>(me - 1)]) {
          const int owner = static_cast<int>(op.key / kDhtBuckets) + 1;
          const std::int64_t bucket = op.key % kDhtBuckets;
          const std::uint64_t off =
              data_off + static_cast<std::uint64_t>(bucket) * sizeof(Entry);
          const sim::Time t0 = eng.now();
          if (rpc && op.find) {
            caf::future<Entry> f = led.call(Call::kRpc, me, [&] {
              auto fut = caf::rpc(rt, owner, kFindFn, view, bucket);
              fut.wait();
              return fut;
            });
            if (f.stat() != caf::kStatOk) {
              ++m.out.failed;
              m.out.violate("dht_rpc: find returned stat " +
                            std::to_string(f.stat()));
            } else {
              seen.push_back({op.key, f.get()});
            }
          } else if (rpc) {
            caf::future<std::int64_t> f = led.call(Call::kRpc, me, [&] {
              auto fut = caf::rpc(rt, owner, apps::dhtrpc::kUpdateFn, view,
                                  bucket, op.key,
                                  static_cast<std::int64_t>(in.compute_ns));
              fut.wait();
              return fut;
            });
            if (f.stat() != caf::kStatOk || f.get() < 1) {
              ++m.out.failed;
              m.out.violate("dht_rpc: update returned stat " +
                            std::to_string(f.stat()));
            }
          } else if (op.find) {
            Entry e{};
            led.call(Call::kGet, me,
                     [&] { rt.get_bytes(&e, owner, off, sizeof(Entry)); });
            seen.push_back({op.key, e});
          } else {
            const caf::CoLock lck =
                locks[static_cast<std::size_t>(bucket % kDhtLocks)];
            led.call(Call::kLock, me, [&] { rt.lock(lck, owner); });
            Entry e{};
            led.call(Call::kGet, me,
                     [&] { rt.get_bytes(&e, owner, off, sizeof(Entry)); });
            eng.advance(in.compute_ns);
            e.key = op.key;
            e.count += 1;
            led.call(Call::kPut, me,
                     [&] { rt.put_bytes(owner, off, &e, sizeof(Entry)); });
            led.call(Call::kUnlock, me, [&] { rt.unlock(lck, owner); });
          }
          led.op(t0);
        }
        led.call(Call::kSyncAll, me, [&] { rt.sync_all(); });
        p.finished(eng);
        std::memcpy(&table[static_cast<std::size_t>(me - 1) * kDhtBuckets],
                    rt.local_addr(data_off), slice);
      },
      [&](driver::Stack&) {
        m.out.attempted = static_cast<std::uint64_t>(kDhtImages) *
                          kDhtOpsPerImage;
        std::vector<FindSeen> all;
        for (const auto& f : finds) all.insert(all.end(), f.begin(), f.end());
        check_dht(ops, table, all, m.out);
      });
}

void run_failover(Measured& m, std::uint64_t seed) {
  const int cores =
      net::machine_profile(net::Machine::kXC30).cores_per_node;
  const FaultDraw d = draw_faults(seed, cores);
  std::fprintf(stderr, "failover: victim image %d killed at %lld ns\n",
               d.victim, static_cast<long long>(d.kill_at));
  net::FaultPlan plan;
  plan.with_seed(seed);
  plan.kill_pe(d.victim - 1, d.kill_at);
  plan.partition_nodes({kPartitionNode}, kPartitionFrom, kPartitionUntil);
  plan.straggle_pe(kStragglerPe, kStragglerDilation);
  auto stack = std::make_unique<driver::Stack>(
      driver::StackKind::kShmemCray, kFailoverImages, net::Machine::kXC30,
      4 << 20, caf::Options{}, plan);
  constexpr std::int64_t kFullSum =
      static_cast<std::int64_t>(kFailoverImages) * (kFailoverImages + 1) / 2;
  std::uint64_t stat_failed = 0;
  Ledger& led = m.ledger;
  Phases& p = m.ph;
  drive(
      std::move(stack), m,
      [&](caf::Runtime& rt) {
        sim::Engine& eng = *sim::Engine::current();
        const int me = rt.this_image();
        // The full team, built locally as in the determinism test.
        caf::Team team;
        for (int i = 1; i <= kFailoverImages; ++i) team.members.push_back(i);
        led.call(Call::kSyncAll, me, [&] { rt.sync_all(); });
        p.setup_passed(eng);
        p.first_op();
        if (me == d.victim) {
          for (;;) {  // takes part until the kill lands mid-collective
            eng.advance(kFailoverThinkNs);
            std::int64_t v = me;
            (void)rt.co_sum_team(team, &v, 1);
          }
        }
        for (int k = 0; k < kFailoverRounds; ++k) {
          eng.advance(kFailoverThinkNs);
          std::int64_t v = me;
          const sim::Time t0 = eng.now();
          const int st = led.call(Call::kCoSumTeam, me,
                                  [&] { return rt.co_sum_team(team, &v, 1); });
          led.op(t0);
          ++m.out.attempted;
          // OK: every member contributed. STAT_FAILED_IMAGE is counted, not
          // failed; its value is the survivors' sum, or the full sum when
          // the victim's contribution landed before it died.
          if (st == caf::kStatFailedImage) ++stat_failed;
          const bool ok =
              (st == caf::kStatOk && v == kFullSum) ||
              (st == caf::kStatFailedImage &&
               (v == kFullSum - d.victim || v == kFullSum));
          if (!ok) {
            ++m.out.failed;
            m.out.violate("failover: image " + std::to_string(me) +
                          " round " + std::to_string(k) + " stat " +
                          std::to_string(st) + " value " + std::to_string(v));
          }
        }
        p.finished(eng);
      },
      [&](driver::Stack& s) {
        const auto& declared = s.engine().declared_failures();
        if (declared.size() != 1 || declared[0].pe != d.victim - 1) {
          std::string got;
          for (const auto& f : declared) got += std::to_string(f.pe + 1) + " ";
          m.out.violate("failover: declared set {" + got + "} is not {" +
                        std::to_string(d.victim) + "}");
        }
        if (registry_sum("fd.false_positives") != 0) {
          m.out.violate("failover: detector false positives");
        }
        m.layer["caf.co_sum_team.stat_failed_image"] =
            static_cast<double>(stat_failed);
        m.out.exact["victim"] = d.victim;
        m.out.exact["kill_at_ns"] = static_cast<double>(d.kill_at);
        m.out.exact["declared_at_ns"] =
            declared.empty() ? -1.0 : static_cast<double>(declared[0].at);
      });
}

double quantile(std::vector<sim::Time> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1);
  return static_cast<double>(v[std::min(i, v.size() - 1)]);
}

void put_num(std::string& js, const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  js += "\"" + key + "\":" + buf + ",";
}

void write_spans(const std::string& path, const std::vector<SpanRec>& spans) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  f << "# image call t0_ns t1_ns\n";
  for (const SpanRec& s : spans) {
    f << s.image << ' ' << kCallNames[s.call] << ' ' << s.t0 << ' ' << s.t1
      << '\n';
  }
}

int run_main(const Run& run) {
  const double ref_before_s = reference_s();
  const auto t_start = Clock::now();
  const ProcSample proc_start = proc_now();
  if (run.trace) obs::enable({});

  int images = 0;
  if (run.workload == "himeno") images = kHimenoImages;
  else if (run.workload == "dht_locks" || run.workload == "dht_rpc")
    images = kDhtImages;
  else if (run.workload == "failover") images = kFailoverImages;
  else throw std::invalid_argument("unknown workload " + run.workload);

  Measured m(run.trace, images);
  if (run.workload == "himeno") run_himeno(m, run.seed);
  else if (run.workload == "failover") run_failover(m, run.seed);
  else run_dht(m, run.seed, run.workload == "dht_rpc");
  const Phases& ph = m.ph;

  if (ph.passed != images || !ph.run_start) {
    m.out.violate("not every image passed set-up");
  }
  const ProcSample proc_end = proc_now();
  const auto& st0 = ph.stats_setup;
  const auto& st1 = ph.stats_run;
  const double host_s = seconds_between(*ph.run_start, ph.run_end);
  const double events = static_cast<double>(st1.events - st0.events);
  const Ledger& led = m.ledger;

  // Deterministic (virtual / model) values and their digest.
  std::map<std::string, double> virt;
  virt["virt_ms"] = sim::to_ms(ph.virt_end - ph.virt_start);
  virt["virt_op_p50_us"] = quantile(led.op_ns(), 0.50) / 1e3;
  virt["virt_op_p99_us"] = quantile(led.op_ns(), 0.99) / 1e3;
  virt["virt_op_samples"] = static_cast<double>(led.op_ns().size());
  virt["sim.events"] = events;
  virt["sim.switches"] = static_cast<double>(st1.switches - st0.switches);
  for (const auto& [k, v] : m.out.exact) virt[k] = v;
  std::uint64_t digest = kFnvOffset;
  for (const auto& [k, v] : virt) {
    digest = fnv1a(digest, k.data(), k.size());
    digest = fnv1a(digest, &v, sizeof v);
  }

  std::string js = "{";
  put_num(js, "attempted", static_cast<double>(m.out.attempted));
  put_num(js, "failed", static_cast<double>(m.out.failed));
  put_num(js, "setup_s", seconds_between(t_start, ph.setup_end));
  put_num(js, "host_s", host_s);
  put_num(js, "peak_rss_mb", static_cast<double>(proc_end.maxrss_kb) / 1024.0);
  for (const auto& [k, v] : virt) put_num(js, k, v);
  put_num(js, "host.verify_s", m.verify_s);
  put_num(js, "host.teardown_s", m.teardown_s);
  put_num(js, "sim.host_ns_per_event", events > 0 ? host_s * 1e9 / events : 0);
  put_num(js, "sim.event_slab_allocs",
          static_cast<double>(st1.event_slab_allocs - st0.event_slab_allocs));
  put_num(js, "sim.stack_bytes_peak", static_cast<double>(st1.stack_bytes_peak));
  put_num(js, "sim.stack_bytes_mapped",
          static_cast<double>(st1.stack_bytes_mapped));
  put_num(js, "proc.sys_s.setup", ph.proc_setup.sys_s - proc_start.sys_s);
  put_num(js, "proc.sys_s.run", ph.proc_run.sys_s - ph.proc_setup.sys_s);
  put_num(js, "proc.minflt.setup",
          static_cast<double>(ph.proc_setup.minflt - proc_start.minflt));
  put_num(js, "proc.minflt.run",
          static_cast<double>(ph.proc_run.minflt - ph.proc_setup.minflt));
  for (const auto& [k, v] : m.layer) put_num(js, k, v);
  if (run.trace) {
    for (std::size_t c = 0; c < std::size(kCallNames); ++c) {
      std::vector<sim::Time> d;
      for (const SpanRec& s : led.spans()) {
        if (s.call == c) d.push_back(s.t1 - s.t0);
      }
      const std::string base = std::string("caf.") + kCallNames[c] + ".virt_us";
      put_num(js, base + ".p50", quantile(d, 0.50) / 1e3);
      put_num(js, base + ".p99", quantile(d, 0.99) / 1e3);
      put_num(js, base + ".count", static_cast<double>(d.size()));
    }
    if (!run.spans_path.empty()) write_spans(run.spans_path, led.spans());
  }
  put_num(js, "host.ref_s", (ref_before_s + reference_s()) / 2);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  js += "\"virt_digest\":\"" + std::string(hex) + "\",\"violations\":[";
  for (std::size_t i = 0; i < m.out.violations.size(); ++i) {
    std::string v;
    for (const char c : m.out.violations[i]) {
      if (c == '"' || c == '\\') v += '\\';
      v += c;
    }
    js += (i ? ",\"" : "\"") + v + "\"";
  }
  js += "]}";
  std::printf("%s\n", js.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") run.workload = v;
    else if (k == "--seed") run.seed = std::stoull(v);
    else if (k == "--trace") run.trace = v == "1";
    else if (k == "--spans") run.spans_path = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  try {
    return run_main(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
