#include "net/fault.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "net/detector.hpp"
#include "sim/engine.hpp"

namespace net {

namespace {

// Order-sensitive accumulator: same mixing as splitmix64's finalizer, keyed
// by position so that swapping two verdicts changes the hash.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h += 0x9e3779b97f4a7c15ULL + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// CAF_FD_* parsing. A malformed or out-of-range value is a configuration
// error, not a hint: silently falling back to a default turns a typo
// ("CAF_FD_PERIOD_NS=50us") into a run with tunables the operator never
// chose. Each helper prints a one-line diagnostic naming the variable and
// throws std::invalid_argument with the same text.
[[noreturn]] void env_reject(const char* name, const char* value,
                             const char* why) {
  std::string msg = std::string(name) + "=\"" + value + "\": " + why;
  std::fprintf(stderr, "caf: invalid environment override %s\n", msg.c_str());
  throw std::invalid_argument(msg);
}

bool env_time(const char* name, sim::Time* out, sim::Time min_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0') {
    env_reject(name, v, "not an integer nanosecond count");
  }
  if (errno == ERANGE || parsed < min_value) {
    env_reject(name, v, min_value > 0 ? "must be a positive ns count"
                                      : "must be a non-negative ns count");
  }
  *out = static_cast<sim::Time>(parsed);
  return true;
}

bool env_int(const char* name, int* out, int min_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') env_reject(name, v, "not an integer");
  if (errno == ERANGE || parsed < min_value ||
      parsed > std::numeric_limits<int>::max()) {
    env_reject(name, v,
               min_value > 0 ? "must be a positive integer"
                             : "must be a non-negative integer");
  }
  *out = static_cast<int>(parsed);
  return true;
}

bool env_bool(const char* name, bool* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  const std::string_view s(v);
  if (s == "1" || s == "y" || s == "Y" || s == "t" || s == "T" ||
      s == "true" || s == "yes" || s == "on") {
    *out = true;
    return true;
  }
  if (s == "0" || s == "n" || s == "N" || s == "f" || s == "F" ||
      s == "false" || s == "no" || s == "off") {
    *out = false;
    return true;
  }
  env_reject(name, v, "not a boolean (use 0/1/true/false/yes/no/on/off)");
}

bool in_nodes(const std::vector<int>& nodes, int node) {
  for (int n : nodes) {
    if (n == node) return true;
  }
  return false;
}

// schedule_raw entry point of a scheduled kill (ctx = the engine).
void kill_event(void* ctx, std::uint64_t pe, std::uint64_t) {
  static_cast<sim::Engine*>(ctx)->kill_pe(static_cast<int>(pe));
}

}  // namespace

void RetryPolicy::apply_env() {
  env_time("CAF_FD_RTO_MIN_NS", &rto_min, 1);
  env_time("CAF_FD_RTO_MAX_NS", &rto_max, 1);
  env_bool("CAF_FD_ADAPTIVE", &adaptive);
  env_int("CAF_FD_MAX_RETRANS", &max_retransmits, 0);
  if (rto_min > rto_max) {
    env_reject("CAF_FD_RTO_MIN_NS/CAF_FD_RTO_MAX_NS",
               std::to_string(rto_min).c_str(),
               "rto_min exceeds rto_max — the adaptive clamp is empty");
  }
}

void DetectorTunables::apply_env() {
  env_time("CAF_FD_PERIOD_NS", &heartbeat_period, 1);
  env_int("CAF_FD_MISS", &miss_threshold, 1);
  env_time("CAF_FD_GRACE_NS", &suspicion_grace, 0);
}

FaultInjector::FaultInjector(FaultPlan plan, int npes, int cores_per_node)
    : plan_(std::move(plan)),
      cores_per_node_(cores_per_node),
      kill_at_(static_cast<std::size_t>(npes), kNever),
      dilation_(static_cast<std::size_t>(npes), 1.0),
      rng_(plan_.seed),
      flaky_rng_(plan_.seed ^ 0xf1a4f1a4ULL) {
  if (npes <= 0) throw std::invalid_argument("FaultInjector: npes <= 0");
  if (cores_per_node <= 0) {
    throw std::invalid_argument("FaultInjector: cores_per_node <= 0");
  }
  nnodes_ = (npes + cores_per_node - 1) / cores_per_node;
  for (const PeKill& k : plan_.pe_kills) {
    if (k.pe < 0 || k.pe >= npes) {
      throw std::out_of_range("FaultPlan: pe kill out of range");
    }
    auto& at = kill_at_[static_cast<std::size_t>(k.pe)];
    at = std::min(at, k.at);
  }
  for (const NodeKill& k : plan_.node_kills) {
    const int first = k.node * cores_per_node;
    if (k.node < 0 || first >= npes) {
      throw std::out_of_range("FaultPlan: node kill out of range");
    }
    const int last = std::min(first + cores_per_node, npes);
    for (int pe = first; pe < last; ++pe) {
      auto& at = kill_at_[static_cast<std::size_t>(pe)];
      at = std::min(at, k.at);
    }
  }
  for (const Partition& p : plan_.partitions) {
    if (p.nodes.empty()) {
      throw std::invalid_argument("FaultPlan: partition with no nodes");
    }
    for (int n : p.nodes) {
      if (n < 0 || n >= nnodes_) {
        throw std::out_of_range("FaultPlan: partition node out of range");
      }
    }
    if (p.until <= p.from) {
      throw std::invalid_argument("FaultPlan: partition heals before it forms");
    }
  }
  for (const FlakyLink& f : plan_.flaky_links) {
    if (f.node_a < 0 || f.node_a >= nnodes_ || f.node_b < 0 ||
        f.node_b >= nnodes_ || f.node_a == f.node_b) {
      throw std::out_of_range("FaultPlan: flaky link nodes out of range");
    }
    if (f.extra_loss < 0.0 || f.extra_loss > 1.0 || f.bw_factor <= 0.0 ||
        f.bw_factor > 1.0) {
      throw std::invalid_argument("FaultPlan: flaky link rates out of range");
    }
  }
  for (const Straggler& s : plan_.stragglers) {
    if (s.pe < 0 || s.pe >= npes) {
      throw std::out_of_range("FaultPlan: straggler pe out of range");
    }
    if (s.dilation < 1.0) {
      throw std::invalid_argument("FaultPlan: straggler dilation < 1");
    }
    auto& d = dilation_[static_cast<std::size_t>(s.pe)];
    d = std::max(d, s.dilation);
  }
  rtt_.assign(static_cast<std::size_t>(nnodes_) * nnodes_, RttEstimate{});
}

FaultInjector::~FaultInjector() = default;

FaultInjector::Verdict FaultInjector::judge(int src_pe, int dst_pe,
                                            sim::Time t) {
  // Always burn the same three draws regardless of the configured rates so
  // that runs differing only in rates keep aligned rng streams, and so a
  // verdict depends on (seed, call index) alone.
  const double u_drop = rng_.uniform();
  const double u_dup = rng_.uniform();
  const double u_delay = rng_.uniform();

  Verdict v;
  v.drop = u_drop < plan_.drop_rate;
  if (!v.drop) {
    v.duplicate = u_dup < plan_.dup_rate;
    if (u_delay < plan_.delay_rate) {
      const double frac = rng_.uniform();
      const double span =
          static_cast<double>(plan_.delay_max - plan_.delay_min);
      v.extra_delay = plan_.delay_min + sim::from_ns(frac * span);
    }
  }

  ++counters_.judged;
  if (v.drop) ++counters_.dropped;
  if (v.duplicate) ++counters_.duplicated;
  if (v.extra_delay > 0) ++counters_.delayed;

  trace_hash_ = mix(trace_hash_, static_cast<std::uint64_t>(src_pe));
  trace_hash_ = mix(trace_hash_, static_cast<std::uint64_t>(dst_pe));
  trace_hash_ = mix(trace_hash_, static_cast<std::uint64_t>(t));
  trace_hash_ = mix(trace_hash_, (v.drop ? 1u : 0u) | (v.duplicate ? 2u : 0u));
  trace_hash_ = mix(trace_hash_, static_cast<std::uint64_t>(v.extra_delay));
  return v;
}

FaultInjector::Verdict FaultInjector::fate(int src_pe, int dst_pe,
                                           sim::Time send, sim::Time arrival) {
  Verdict lost;
  lost.drop = true;
  // Dead receivers neither retire the message nor ack it.
  if (pe_dead(dst_pe, arrival)) return lost;
  // Partitions drop deterministically, before the verdict and with no rng
  // draws, so runs differing only in partitions keep aligned judge streams.
  if (!plan_.partitions.empty() &&
      nodes_partitioned(node_of(src_pe), node_of(dst_pe), send)) {
    ++counters_.partition_drops;
    return lost;
  }
  const Verdict v = judge(src_pe, dst_pe, send);
  if (v.drop) return v;
  // One draw per attempt on an active flaky link, from the dedicated stream
  // so the main verdict stream stays aligned across plans.
  const FlakyLink* f = flaky(src_pe, dst_pe, send);
  if (f != nullptr && flaky_rng_.uniform() < f->extra_loss) {
    ++counters_.flaky_drops;
    return lost;
  }
  return v;
}

bool FaultInjector::nodes_partitioned(int node_a, int node_b,
                                      sim::Time t) const {
  if (node_a == node_b) return false;
  for (const Partition& p : plan_.partitions) {
    if (t < p.from || t >= p.until) continue;
    if (in_nodes(p.nodes, node_a) != in_nodes(p.nodes, node_b)) return true;
  }
  return false;
}

sim::Time FaultInjector::partition_heal_time(int node_a, int node_b,
                                             sim::Time t) const {
  sim::Time heal = t;
  // A later partition window can re-cut the pair the moment an earlier one
  // heals; iterate to the fixed point (windows are finite, so this
  // terminates unless a permanent partition separates the pair).
  for (;;) {
    bool advanced = false;
    for (const Partition& p : plan_.partitions) {
      if (heal < p.from || heal >= p.until) continue;
      if (in_nodes(p.nodes, node_a) == in_nodes(p.nodes, node_b)) continue;
      if (p.until == kTimeNever) return kTimeNever;
      heal = p.until;
      advanced = true;
    }
    if (!advanced) return heal;
  }
}

const FlakyLink* FaultInjector::flaky(int src_pe, int dst_pe,
                                      sim::Time t) const {
  if (plan_.flaky_links.empty()) return nullptr;
  const int a = node_of(src_pe);
  const int b = node_of(dst_pe);
  for (const FlakyLink& f : plan_.flaky_links) {
    if (t < f.from || t >= f.until) continue;
    if ((f.node_a == a && f.node_b == b) || (f.node_a == b && f.node_b == a)) {
      return &f;
    }
  }
  return nullptr;
}

double FaultInjector::bw_penalty(int src_pe, int dst_pe, sim::Time t) const {
  const FlakyLink* f = flaky(src_pe, dst_pe, t);
  return f == nullptr ? 1.0 : 1.0 / f->bw_factor;
}

sim::Time FaultInjector::backoff_delay(int attempt, double expected_oneway_ns) {
  const RetryPolicy& r = plan_.retry;
  const double base = static_cast<double>(r.rto) + 2.0 * expected_oneway_ns;
  const int exp = std::min(attempt, r.max_backoff_exp);
  const double mult = std::pow(r.backoff, static_cast<double>(exp));
  const double jit = 1.0 + r.jitter * rng_.uniform();
  return sim::from_ns(base * mult * jit);
}

sim::Time FaultInjector::retrans_timeout(int src_pe, int dst_pe, int attempt,
                                         double expected_oneway_ns) {
  const RetryPolicy& r = plan_.retry;
  const RttEstimate& e = rtt_slot(src_pe, dst_pe);
  if (!r.adaptive || e.srtt == 0) {
    // No clean sample yet: identical math (and the same single draw) as the
    // static policy.
    return backoff_delay(attempt, expected_oneway_ns);
  }
  const double rto = std::clamp(
      static_cast<double>(e.srtt) + 4.0 * static_cast<double>(e.rttvar),
      static_cast<double>(r.rto_min), static_cast<double>(r.rto_max));
  const int exp = std::min(attempt, r.max_backoff_exp);
  const double mult = std::pow(r.backoff, static_cast<double>(exp));
  const double jit = 1.0 + r.jitter * rng_.uniform();
  return sim::from_ns(rto * mult * jit);
}

FaultInjector::RttEstimate& FaultInjector::rtt_slot(int src_pe, int dst_pe) {
  return rtt_[static_cast<std::size_t>(node_of(src_pe)) * nnodes_ +
              node_of(dst_pe)];
}

const FaultInjector::RttEstimate& FaultInjector::rtt_slot(
    int src_pe, int dst_pe) const {
  return rtt_[static_cast<std::size_t>(node_of(src_pe)) * nnodes_ +
              node_of(dst_pe)];
}

void FaultInjector::record_rtt(int src_pe, int dst_pe, sim::Time rtt,
                               int attempts) {
  // Karn's rule: a retransmitted exchange is ambiguous (the ack may answer
  // any copy), so only first-attempt successes feed the estimator.
  if (attempts != 1 || rtt <= 0) return;
  RttEstimate& e = rtt_slot(src_pe, dst_pe);
  if (e.srtt == 0) {
    e.srtt = rtt;
    e.rttvar = rtt / 2;
    return;
  }
  const sim::Time err = rtt > e.srtt ? rtt - e.srtt : e.srtt - rtt;
  e.rttvar = (3 * e.rttvar + err) / 4;
  e.srtt = (7 * e.srtt + rtt) / 8;
}

sim::Time FaultInjector::srtt(int src_pe, int dst_pe) const {
  return rtt_slot(src_pe, dst_pe).srtt;
}

void FaultInjector::note_delivery(int src_pe, int /*dst_pe*/, sim::Time t) {
  if (detector_ != nullptr) detector_->heard(src_pe, t);
}

void FaultInjector::note_exhaustion(int src_pe, int dst_pe,
                                    sim::Time give_up) {
  if (detector_ != nullptr) {
    detector_->report_exhaustion(src_pe, dst_pe, give_up);
  }
}

void FaultInjector::arm(sim::Engine& engine) {
  bool any = false;
  for (int pe = 0; pe < static_cast<int>(kill_at_.size()); ++pe) {
    const sim::Time at = kill_at_[static_cast<std::size_t>(pe)];
    if (at == kNever) continue;
    any = true;
    engine.schedule_raw(at, &kill_event, &engine,
                        static_cast<std::uint64_t>(pe));
  }
  // Partitions can strand an op permanently (retransmit exhaustion), so
  // partition-only plans also need the runtime's recovery protocols armed.
  if (any || !plan_.partitions.empty()) engine.arm_kills();
  if (plan_.needs_detector()) {
    detector_ = std::make_unique<FailureDetector>(*this, npes());
    detector_->arm(engine);
  }
}

void FaultInjector::reset() {
  rng_ = sim::Rng(plan_.seed);
  flaky_rng_ = sim::Rng(plan_.seed ^ 0xf1a4f1a4ULL);
  std::fill(rtt_.begin(), rtt_.end(), RttEstimate{});
  counters_ = Counters{};
  trace_hash_ = 0;
  if (detector_ != nullptr) detector_->reset();
}

}  // namespace net
