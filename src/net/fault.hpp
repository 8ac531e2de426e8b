// Deterministic fault injection for the simulated fabric.
//
// Real deployments of every library the paper models (Cray SHMEM over
// uGNI/DMAPP, MVAPICH2-X over IB verbs, GASNet, MPI-3 RMA) sit on transports
// that lose, reorder, duplicate, and retransmit packets; the PGAS layer only
// looks reliable because a retransmit state machine underneath absorbs the
// loss. A FaultPlan describes such an imperfect transport — message drop /
// duplicate / delay probabilities, scheduled PE or node deaths, and the grey
// failures that dominate at scale: healable network partitions, per-link
// flaky degradation, and straggler PEs — and a FaultInjector executes the
// plan with its own sim::Rng stream, so a given (plan, workload) pair
// produces a bit-identical event trace on every run.
//
// The injector plugs into net::Fabric (Fabric::set_fault_injector); the
// Fabric stays a pure timing oracle and asks the injector for the fate of
// every leg of every attempt (FaultInjector::fate), request and reply
// alike, charging retransmissions as additional link occupancy. Without an
// injector (or for intra-node traffic) the fast path is untouched.
//
// When the plan contains kills, partitions, flaky links, or stragglers,
// arm() additionally instantiates a FailureDetector (net/detector.hpp): the
// runtime then learns of deaths in-band — from heartbeat loss or retransmit
// exhaustion — instead of reading the injector oracle.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace sim {
class Engine;
}

namespace net {

class FailureDetector;

/// "Never happens" timestamp used by open-ended fault windows (a partition
/// that never heals, a PE that is never killed).
inline constexpr sim::Time kTimeNever = std::numeric_limits<sim::Time>::max();

/// Reliable-delivery parameters of the simulated transport: how long the
/// sender waits before retransmitting and how the timeout escalates. The
/// static timeout of attempt k is
///   (rto + 2 * expected_one_way) * backoff^min(k, max_backoff_exp)
/// scaled by a uniform jitter in [1, 1+jitter). With `adaptive` set (the
/// default) and at least one clean RTT sample for the node pair, the static
/// base is replaced by a Jacobson/Karn estimate srtt + 4*rttvar clamped to
/// [rto_min, rto_max]; samples are only taken from first-attempt successes
/// (Karn's rule), so retransmit ambiguity never pollutes the estimator.
struct RetryPolicy {
  sim::Time rto = 20'000;    ///< base ack-timeout margin (ns) beyond the RTT
  double backoff = 2.0;      ///< exponential escalation per retransmit
  int max_backoff_exp = 6;   ///< cap on the escalation exponent
  double jitter = 0.2;       ///< uniform jitter fraction per timeout
  int max_retransmits = 10;  ///< give up after 1 + max_retransmits attempts
  sim::Time rto_min = 5'000;      ///< adaptive-RTO floor (ns)
  sim::Time rto_max = 1'000'000;  ///< adaptive-RTO ceiling (ns)
  bool adaptive = true;      ///< use per-pair RTT estimation when sampled

  /// Applies CAF_FD_RTO_MIN_NS / CAF_FD_RTO_MAX_NS / CAF_FD_ADAPTIVE /
  /// CAF_FD_MAX_RETRANS overrides from the environment (unset vars leave
  /// the current values untouched). A malformed or out-of-range value
  /// throws std::invalid_argument after printing a one-line diagnostic
  /// naming the offending variable — never a silent fallback.
  void apply_env();
};

/// Scheduled death of one PE (virtual time at which it stops executing and
/// stops acknowledging messages).
struct PeKill {
  int pe = 0;
  sim::Time at = 0;
};

/// Scheduled death of a whole node (all its PEs).
struct NodeKill {
  int node = 0;
  sim::Time at = 0;
};

/// Healable network bisection: during [from, until) no message crosses
/// between `nodes` (side B) and the rest of the machine (side A). Traffic
/// within a side is unaffected. Drops are deterministic — no rng draws — so
/// a partitioned run stays draw-aligned with its fault-free twin except for
/// the retransmissions the partition itself causes. `until = kTimeNever`
/// models a permanent partition.
struct Partition {
  std::vector<int> nodes;      ///< side B node ids
  sim::Time from = 0;
  sim::Time until = kTimeNever;
};

/// Grey link: during [from, until) traffic between node_a and node_b (both
/// directions) suffers `extra_loss` on top of the plan's uniform drop_rate
/// and runs at `bw_factor` of nominal bandwidth (occupancy scales by
/// 1/bw_factor). Extra-loss draws come from a dedicated rng stream so the
/// main verdict stream stays aligned across plans that differ only here.
struct FlakyLink {
  int node_a = 0;
  int node_b = 0;
  double extra_loss = 0.0;  ///< additional P(drop) on this link
  double bw_factor = 1.0;   ///< fraction of nominal bandwidth (0 < f <= 1)
  sim::Time from = 0;
  sim::Time until = kTimeNever;
};

/// Straggler PE: all of its communication service times (op issue overheads
/// and target-side handler/AMO execution) are dilated by `dilation`, and its
/// liveness beacons slow down by the same factor. A straggler is *slow, not
/// dead* — the detector must never declare it failed.
struct Straggler {
  int pe = 0;
  double dilation = 1.0;  ///< >= 1; 1.0 = no effect
};

/// Failure-detector tunables (heartbeat/suspicion membership protocol, see
/// net/detector.hpp). Exposed through caf::Options::fd and the CAF_FD_* env
/// family.
struct DetectorTunables {
  sim::Time heartbeat_period = 50'000;  ///< beacon interval (ns)
  int miss_threshold = 4;        ///< missed beacons before alive -> suspect
  sim::Time suspicion_grace = 200'000;  ///< suspect -> failed dwell (ns)

  /// Applies CAF_FD_PERIOD_NS / CAF_FD_MISS / CAF_FD_GRACE_NS overrides
  /// from the environment (unset vars leave the current values untouched).
  /// Malformed/out-of-range values throw std::invalid_argument with a
  /// diagnostic naming the variable (see RetryPolicy::apply_env).
  void apply_env();
};

/// Declarative description of the faults to inject into one run.
struct FaultPlan {
  std::uint64_t seed = 0x5eedULL;
  double drop_rate = 0.0;    ///< P(an inter-node message is lost)
  double dup_rate = 0.0;     ///< P(a delivered message is duplicated)
  double delay_rate = 0.0;   ///< P(a delivered message is extra-delayed)
  sim::Time delay_min = 500;     ///< extra delay bounds (ns), uniform
  sim::Time delay_max = 20'000;
  std::vector<PeKill> pe_kills;
  std::vector<NodeKill> node_kills;
  std::vector<Partition> partitions;
  std::vector<FlakyLink> flaky_links;
  std::vector<Straggler> stragglers;
  RetryPolicy retry;
  DetectorTunables fd;

  /// Apply the kill schedule and straggler dilation to *same-node* traffic
  /// too. Historically the fabric's fault machinery short-circuited on
  /// same_node(), so a killed PE kept receiving intra-node puts and a
  /// straggler's shared-memory copies ran at full speed — wrong for node
  /// kills, where the co-located peers' segments die with the process.
  /// Honoring them is opt-in (rather than the default) because flipping the
  /// semantics under existing plans would move every checked-in golden trace
  /// hash and BENCH baseline; the node-local shared-segment transport
  /// (net::NodeChannel) always honors kills and stragglers regardless of
  /// this flag.
  bool intra_node_faults = false;

  bool active() const {
    return drop_rate > 0 || dup_rate > 0 || delay_rate > 0 ||
           !pe_kills.empty() || !node_kills.empty() || !partitions.empty() ||
           !flaky_links.empty() || !stragglers.empty();
  }

  /// True when the plan needs in-band failure detection: anything that can
  /// make a PE unreachable or suspiciously slow.
  bool needs_detector() const {
    return !pe_kills.empty() || !node_kills.empty() || !partitions.empty() ||
           !flaky_links.empty() || !stragglers.empty();
  }

  FaultPlan& with_seed(std::uint64_t s) { seed = s; return *this; }
  FaultPlan& with_loss(double p) { drop_rate = p; return *this; }
  FaultPlan& with_duplicates(double p) { dup_rate = p; return *this; }
  FaultPlan& with_delays(double p, sim::Time lo, sim::Time hi) {
    delay_rate = p; delay_min = lo; delay_max = hi; return *this;
  }
  FaultPlan& kill_pe(int pe, sim::Time at) {
    pe_kills.push_back({pe, at}); return *this;
  }
  FaultPlan& kill_node(int node, sim::Time at) {
    node_kills.push_back({node, at}); return *this;
  }
  FaultPlan& partition_nodes(std::vector<int> nodes, sim::Time from,
                             sim::Time until = kTimeNever) {
    partitions.push_back({std::move(nodes), from, until}); return *this;
  }
  FaultPlan& flaky_link(int node_a, int node_b, double extra_loss,
                        double bw_factor, sim::Time from,
                        sim::Time until = kTimeNever) {
    flaky_links.push_back({node_a, node_b, extra_loss, bw_factor, from, until});
    return *this;
  }
  FaultPlan& straggle_pe(int pe, double dilation) {
    stragglers.push_back({pe, dilation}); return *this;
  }
  FaultPlan& with_detector(DetectorTunables t) { fd = t; return *this; }
  FaultPlan& honor_intra_node_faults(bool on = true) {
    intra_node_faults = on;
    return *this;
  }
  /// Applies the whole CAF_FD_* env family (detector + retry overrides).
  FaultPlan& apply_env() {
    fd.apply_env();
    retry.apply_env();
    return *this;
  }
};

/// Executes a FaultPlan. One instance serves one Fabric/Engine pair; all of
/// its randomness comes from a private xoshiro stream, and it is consulted
/// in deterministic event order, so identical plans yield identical traces.
class FaultInjector {
 public:
  /// What happens to one wire attempt.
  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    sim::Time extra_delay = 0;
  };

  /// Counters for introspection and determinism tests.
  struct Counters {
    std::uint64_t judged = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t partition_drops = 0;
    std::uint64_t flaky_drops = 0;
  };

  FaultInjector(FaultPlan plan, int npes, int cores_per_node);
  ~FaultInjector();

  const FaultPlan& plan() const { return plan_; }
  const RetryPolicy& retry() const { return plan_.retry; }
  /// Same-node traffic honors kills/stragglers (FaultPlan opt-in).
  bool intra_node_faults() const { return plan_.intra_node_faults; }
  int npes() const { return static_cast<int>(kill_at_.size()); }
  int node_of(int pe) const { return pe / cores_per_node_; }

  /// The fate of one message attempt sent at `send` that reaches dst's node
  /// at `arrival`: the one question the Fabric asks, for every leg it
  /// prices, data and control alike. Checked in order: a receiver dead on
  /// arrival (no draws), an active partition between the two nodes (no
  /// draws; counted in partition_drops), the loss/dup/delay verdict
  /// (judge), then a flaky link's extra loss (one draw on the dedicated
  /// stream iff a link is active and judge did not already drop).
  Verdict fate(int src_pe, int dst_pe, sim::Time send, sim::Time arrival);

  /// The loss/dup/delay part of fate() alone, for the attempt sent at `t`.
  /// Consumes a fixed number of rng draws per call (plus one when delayed)
  /// so different fault rates stay on aligned rng streams.
  Verdict judge(int src_pe, int dst_pe, sim::Time t);

  /// True when `pe` is dead at time `t` per the kill schedule.
  bool pe_dead(int pe, sim::Time t) const {
    return kill_at_[static_cast<std::size_t>(pe)] <= t;
  }
  /// Scheduled death time of `pe` (Time max when it never dies).
  sim::Time kill_time(int pe) const {
    return kill_at_[static_cast<std::size_t>(pe)];
  }

  /// True when an active partition separates the two nodes at time `t`.
  /// Deterministic; consumes no rng draws.
  bool nodes_partitioned(int node_a, int node_b, sim::Time t) const;
  /// Earliest time >= t at which no partition separates the two nodes
  /// (kTimeNever when a permanent partition does).
  sim::Time partition_heal_time(int node_a, int node_b, sim::Time t) const;

  /// Active flaky link covering (src, dst) at `t`, or nullptr. No draws.
  const FlakyLink* flaky(int src_pe, int dst_pe, sim::Time t) const;
  /// Occupancy multiplier (>= 1) from flaky-link bandwidth degradation.
  double bw_penalty(int src_pe, int dst_pe, sim::Time t) const;

  /// Service-time dilation factor of `pe` (1.0 for non-stragglers).
  double dilation(int pe) const {
    return dilation_[static_cast<std::size_t>(pe)];
  }
  /// Dilates a service cost for `pe`. Exact identity when the factor is 1.0
  /// so plans without stragglers stay bit-identical.
  sim::Time dilate(int pe, sim::Time cost) const {
    const double f = dilation(pe);
    if (f == 1.0) return cost;
    return sim::from_ns(static_cast<double>(cost) * f);
  }

  /// Sender-side retransmission timeout before attempt `attempt + 1`, given
  /// the expected one-way cost of the message in ns. Consumes one rng draw
  /// (the jitter).
  sim::Time backoff_delay(int attempt, double expected_oneway_ns);

  /// Like backoff_delay, but with RetryPolicy::adaptive and a clean RTT
  /// sample available for the (src node, dst node) pair, the static base is
  /// replaced by srtt + 4*rttvar clamped to [rto_min, rto_max]. Exactly one
  /// rng draw either way, so plans differing only in `adaptive` stay
  /// draw-aligned.
  sim::Time retrans_timeout(int src_pe, int dst_pe, int attempt,
                            double expected_oneway_ns);

  /// Feeds one RTT sample for the (src node, dst node) pair. Ignored unless
  /// `attempts == 1` (Karn's rule: a retransmitted exchange is ambiguous).
  /// No rng draws.
  void record_rtt(int src_pe, int dst_pe, sim::Time rtt, int attempts);
  /// Smoothed RTT estimate for the pair (0 when never sampled).
  sim::Time srtt(int src_pe, int dst_pe) const;

  /// Liveness evidence from a delivered message: forwarded to the failure
  /// detector (no-op when none is armed).
  void note_delivery(int src_pe, int dst_pe, sim::Time t);
  /// Retransmit exhaustion on (src -> dst): in-band evidence that dst is
  /// unreachable; the detector declares it failed (no-op when none armed).
  void note_exhaustion(int src_pe, int dst_pe, sim::Time give_up);

  /// Schedules the plan's PE/node kills as engine events (Engine::kill_pe).
  /// Call once before Engine::run. When the plan schedules any kill or
  /// partition, also marks the engine (Engine::arm_kills) so runtimes enable
  /// their failure-recovery protocols. When the plan needs in-band detection
  /// (kills, partitions, flaky links, or stragglers), instantiates the
  /// FailureDetector, which defers failure declaration from kill_pe to the
  /// detector's heartbeat protocol.
  void arm(sim::Engine& engine);

  /// The armed failure detector, or nullptr before arm() / for plans that
  /// do not need one.
  FailureDetector* detector() const { return detector_.get(); }

  /// Rewinds the injector to its initial state: re-seeds the rng streams and
  /// clears the verdict counters, trace hash, RTT estimators, and detector
  /// observations (the kill schedule is immutable plan state and stays).
  /// Fabric::reset() calls this so every benchmark repetition replays the
  /// identical fault stream.
  void reset();

  const Counters& counters() const { return counters_; }

  /// Order-sensitive hash over every verdict issued so far; two runs are
  /// draw-for-draw identical iff their trace hashes match.
  std::uint64_t trace_hash() const { return trace_hash_; }

  static constexpr sim::Time kNever = kTimeNever;

 private:
  struct RttEstimate {
    sim::Time srtt = 0;    ///< 0 = never sampled
    sim::Time rttvar = 0;
  };
  RttEstimate& rtt_slot(int src_pe, int dst_pe);
  const RttEstimate& rtt_slot(int src_pe, int dst_pe) const;

  FaultPlan plan_;
  int cores_per_node_;
  int nnodes_;
  std::vector<sim::Time> kill_at_;   // per PE; kNever if not scheduled
  std::vector<double> dilation_;     // per PE; 1.0 if not a straggler
  sim::Rng rng_;
  sim::Rng flaky_rng_;               // dedicated stream for flaky extra loss
  std::vector<RttEstimate> rtt_;     // per (src node, dst node)
  Counters counters_;
  std::uint64_t trace_hash_ = 0;
  std::unique_ptr<FailureDetector> detector_;
};

}  // namespace net
