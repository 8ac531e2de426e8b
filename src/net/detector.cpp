#include "net/detector.hpp"

#include <algorithm>
#include <sstream>

#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace net {

namespace {

// Observer-side partition test: is `node` cut off from node 0 at `t`?
bool side_of(const Partition& p, int node) {
  for (int n : p.nodes) {
    if (n == node) return true;
  }
  return false;
}

}  // namespace

FailureDetector::FailureDetector(FaultInjector& injector, int npes)
    : inj_(injector),
      period_(injector.plan().fd.heartbeat_period),
      grace_(injector.plan().fd.suspicion_grace),
      pes_(static_cast<std::size_t>(npes)),
      rng_(injector.plan().seed ^ 0xfdfdfdfdULL) {
  suspect_after_ =
      static_cast<sim::Time>(injector.plan().fd.miss_threshold) * period_;
  // A straggler beacons every dilation x period; the suspicion threshold
  // must sit above the slowest such interval or a merely-slow PE flaps into
  // suspect between its own (perfectly healthy) beacons.
  double max_dilation = 1.0;
  for (const Straggler& s : injector.plan().stragglers) {
    max_dilation = std::max(max_dilation, s.dilation);
  }
  const sim::Time straggler_floor =
      sim::from_ns(1.5 * max_dilation * static_cast<double>(period_));
  suspect_after_ = std::max(suspect_after_, straggler_floor);

  auto& reg = obs::registry();
  c_suspects_ = &reg.counter(0, "fd.suspects");
  c_recoveries_ = &reg.counter(0, "fd.recoveries");
  c_flaps_ = &reg.counter(0, "fd.flaps");
  c_declared_ = &reg.counter(0, "fd.declared");
  c_evidence_declared_ = &reg.counter(0, "fd.evidence_declared");
  c_false_positives_ = &reg.counter(0, "fd.false_positives");
  c_detect_latency_ns_ = &reg.counter(0, "fd.detect_latency_ns_total");
  c_detect_count_ = &reg.counter(0, "fd.detect_count");
  c_heartbeats_heard_ = &reg.counter(0, "fd.heartbeats_heard");
}

void FailureDetector::arm(sim::Engine& engine) {
  engine_ = &engine;
  // From here on kill_pe only unwinds the victim's fibers; the runtime's
  // membership view moves when *we* declare.
  engine.set_deferred_failure_declaration(true);
  engine.set_diagnostic_hook([this] { return snapshot(); });
  // Advisory suspicion for the runtime (replica read fallback steers away
  // from suspects before the declaration commits). Never membership.
  engine.set_suspicion_query(
      [this](int pe) { return state_of(pe) == State::kSuspect; });
  schedule_sweep(period_);
}

void FailureDetector::schedule_sweep(sim::Time t) {
  if (sweeping_ || engine_ == nullptr) return;
  sweeping_ = true;
  engine_->schedule_raw(
      t,
      [](void* ctx, std::uint64_t a, std::uint64_t) {
        static_cast<FailureDetector*>(ctx)->sweep(static_cast<sim::Time>(a));
      },
      this, static_cast<std::uint64_t>(t));
}

void FailureDetector::model_beacons(int pe, sim::Time t) {
  PeState& s = pes_[static_cast<std::size_t>(pe)];
  const double dil = inj_.dilation(pe);
  const sim::Time interval =
      dil == 1.0 ? period_
                 : sim::from_ns(dil * static_cast<double>(period_));
  const sim::Time killed = inj_.kill_time(pe);
  const int node = inj_.node_of(pe);
  for (;;) {
    const sim::Time tb =
        interval * static_cast<sim::Time>(s.next_beacon);
    if (tb > t) break;
    ++s.next_beacon;
    if (tb >= killed) continue;  // corpses do not beacon
    if (inj_.nodes_partitioned(node, 0, tb)) continue;  // cut off
    const FlakyLink* fl = inj_.flaky(pe, 0, tb);
    if (fl != nullptr && rng_.uniform() < fl->extra_loss) continue;
    s.last_evidence = std::max(s.last_evidence, tb);
    ++*c_heartbeats_heard_;
  }
}

void FailureDetector::heard(int pe, sim::Time t) {
  PeState& s = pes_[static_cast<std::size_t>(pe)];
  if (s.state == State::kFailed) return;  // no resurrection
  // Fibers run ahead of the event queue, so a message can carry a
  // timestamp past its sender's own kill time — a causal artifact of the
  // optimistic DES, not liveness evidence (the beacon model applies the
  // same cutoff via `tb >= killed`).
  if (t >= inj_.kill_time(pe)) return;
  // Traffic on the far side of a partition is invisible to the observer.
  if (inj_.nodes_partitioned(inj_.node_of(pe), 0, t)) return;
  s.last_evidence = std::max(s.last_evidence, t);
}

void FailureDetector::report_exhaustion(int /*src*/, int dst,
                                        sim::Time give_up) {
  // The fabric computes a retransmit schedule analytically at send time, so
  // `give_up` can sit far in the sim's future when this is called. Declare
  // at `give_up` through the event queue rather than immediately: that lets
  // the suspicion sweeps — which may observe the silence much earlier in
  // sim time — win the race they would win in a real system.
  if (engine_ == nullptr) return;
  engine_->schedule_raw(
      give_up,
      [](void* ctx, std::uint64_t a, std::uint64_t b) {
        static_cast<FailureDetector*>(ctx)->declare(
            static_cast<int>(a), static_cast<sim::Time>(b),
            /*via_exhaustion=*/true);
      },
      this, static_cast<std::uint64_t>(dst),
      static_cast<std::uint64_t>(give_up));
}

void FailureDetector::declare(int pe, sim::Time t, bool via_exhaustion) {
  PeState& s = pes_[static_cast<std::size_t>(pe)];
  if (s.state == State::kFailed || engine_ == nullptr) return;
  s.state = State::kFailed;
  s.declared_at = t;
  ++*c_declared_;
  if (via_exhaustion) ++*c_evidence_declared_;
  const sim::Time killed = inj_.kill_time(pe);
  if (killed != kTimeNever) {
    if (t > killed) *c_detect_latency_ns_ += static_cast<std::uint64_t>(t - killed);
    ++*c_detect_count_;
  } else if (!inj_.nodes_partitioned(inj_.node_of(pe), 0, t)) {
    // Declared a PE that is neither dead nor unreachable: a true false
    // positive (the chaos-soak invariant this counter exists for).
    ++*c_false_positives_;
  }
  engine_->declare_pe_failure(pe, t);
}

void FailureDetector::sweep(sim::Time t) {
  sweeping_ = false;
  const int n = static_cast<int>(pes_.size());
  for (int pe = 0; pe < n; ++pe) {
    PeState& s = pes_[static_cast<std::size_t>(pe)];
    if (s.state == State::kFailed) continue;
    model_beacons(pe, t);
    if (t - s.last_evidence <= suspect_after_) {
      if (s.state == State::kSuspect) {
        // A suspect that produced fresh evidence flaps back to alive. The
        // chaos-soak invariants pin fd.flaps to 0 for straggler/flaky-only
        // scripts: a merely-slow or lossy-linked PE must never even enter
        // suspicion, so any flap there is a tuning bug (threshold too tight),
        // not a save.
        s.state = State::kAlive;
        ++*c_recoveries_;
        ++*c_flaps_;
      }
    } else if (s.state == State::kAlive) {
      s.state = State::kSuspect;
      s.suspect_since = t;
      ++*c_suspects_;
    } else if (t - s.suspect_since >= grace_) {
      declare(pe, t, /*via_exhaustion=*/false);
    }
  }
  if (!quiescent(t)) schedule_sweep(t + period_);
}

bool FailureDetector::quiescent(sim::Time t) const {
  const int n = static_cast<int>(pes_.size());
  // Undeclared scheduled deaths and live suspicions both demand more sweeps.
  for (int pe = 0; pe < n; ++pe) {
    const PeState& s = pes_[static_cast<std::size_t>(pe)];
    if (s.state == State::kSuspect) return false;
    if (inj_.kill_time(pe) != kTimeNever && s.state != State::kFailed) {
      return false;
    }
  }
  // A partition that is active, future, or permanent keeps the detector
  // awake until every PE it cuts off from the observer has been declared
  // (or it heals). Flaky links deliberately do NOT hold sweeps open: their
  // loss is probabilistic, recovery is the common case, and holding the
  // event queue open for a permanent flaky link would defeat the deadlock
  // watchdog; sustained total flakiness still surfaces through the
  // retransmit-exhaustion evidence path.
  for (const Partition& p : inj_.plan().partitions) {
    if (p.until <= t) continue;  // healed
    const bool observer_side = side_of(p, 0);
    for (int pe = 0; pe < n; ++pe) {
      if (side_of(p, inj_.node_of(pe)) == observer_side) continue;
      if (pes_[static_cast<std::size_t>(pe)].state != State::kFailed) {
        return false;
      }
    }
  }
  return true;
}

std::string FailureDetector::snapshot() const {
  std::ostringstream os;
  int alive = 0, suspect = 0, failed = 0;
  for (const PeState& s : pes_) {
    switch (s.state) {
      case State::kAlive: ++alive; break;
      case State::kSuspect: ++suspect; break;
      case State::kFailed: ++failed; break;
    }
  }
  os << "failure detector: epoch="
     << (engine_ != nullptr ? engine_->membership_epoch() : 0)
     << " period=" << sim::format_time(period_)
     << " suspect_after=" << sim::format_time(suspect_after_)
     << " grace=" << sim::format_time(grace_) << "\n  states: " << alive
     << " alive, " << suspect << " suspect, " << failed << " failed";
  for (std::size_t pe = 0; pe < pes_.size(); ++pe) {
    const PeState& s = pes_[pe];
    if (s.state == State::kSuspect) {
      os << "\n  [pe " << pe << "] SUSPECT since "
         << sim::format_time(s.suspect_since) << " (last evidence "
         << sim::format_time(s.last_evidence) << ')';
    } else if (s.state == State::kFailed) {
      os << "\n  [pe " << pe << "] FAILED declared at "
         << sim::format_time(s.declared_at);
    }
  }
  return os.str();
}

void FailureDetector::reset() {
  std::fill(pes_.begin(), pes_.end(), PeState{});
  rng_ = sim::Rng(inj_.plan().seed ^ 0xfdfdfdfdULL);
  sweeping_ = false;
}

}  // namespace net
