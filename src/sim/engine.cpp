#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

namespace sim {

namespace {
thread_local Engine* g_current_engine = nullptr;
thread_local EngineStats g_last_stats{};
}  // namespace

Engine::Engine(std::size_t default_stack_bytes)
    : default_stack_bytes_(default_stack_bytes) {}

Engine* Engine::current() { return g_current_engine; }

EngineStats Engine::stats() const {
  EngineStats s;
  s.events = events_processed_;
  s.switches = switches_;
  s.event_pool_hits = pool_.hits();
  s.event_pool_misses = pool_.misses();
  s.event_slab_allocs = pool_.slab_allocs();
  s.stack_bytes_peak = stack_pool_.peak_in_use_bytes();
  s.stack_bytes_mapped = stack_pool_.mapped_bytes();
  s.stack_acquires = stack_pool_.acquires();
  s.stack_reuses = stack_pool_.reuses();
  return s;
}

EngineStats last_engine_stats() {
  if (g_current_engine != nullptr) return g_current_engine->stats();
  return g_last_stats;
}

Fiber& Engine::spawn(int pe, std::function<void()> body) {
  return spawn(pe, std::move(body), default_stack_bytes_);
}

Fiber& Engine::spawn(int pe, std::function<void()> body,
                     std::size_t stack_bytes) {
  fibers_.push_back(
      std::make_unique<Fiber>(*this, pe, std::move(body), stack_bytes));
  Fiber* f = fibers_.back().get();
  f->set_clock(sim_now_);
  ++unfinished_;
  schedule_resume(*f);
  return *f;
}

void Engine::spawn_pes(int n, const std::function<void(int)>& body) {
  for (int pe = 0; pe < n; ++pe) {
    spawn(pe, [body, pe] { body(pe); });
  }
}

void Engine::push_raw(Time t, std::uint64_t seq, RawFn fn, void* ctx,
                      std::uint64_t a, std::uint64_t b) {
  EventNode* n = pool_.acquire();
  n->t = std::max(t, sim_now_);
  n->seq = seq;
  n->kind = EventNode::Kind::kRawCall;
  n->u.raw = EventNode::Payload::Raw{fn, ctx, a, b};
  queue_.push(n);
}

void Engine::schedule_resume(Fiber& f) {
  EventNode* n = pool_.acquire();
  n->t = std::max(f.clock(), sim_now_);
  n->seq = next_seq_++;
  n->kind = EventNode::Kind::kFiberResume;
  n->u.fiber = &f;
  queue_.push(n);
}

Time Engine::now() const {
  assert(current_ != nullptr && "now() requires a fiber context");
  return current_->clock();
}

void Engine::advance(Time dt) {
  assert(dt >= 0);
  advance_to(now() + dt);
}

void Engine::advance_to(Time t) {
  Fiber* f = current_;
  assert(f != nullptr && "advance_to() requires a fiber context");
  if (t <= f->clock()) return;
  // Leave the fiber and re-enter once the virtual clock reaches t, so any
  // deliveries with timestamps in (now, t] land in memory first.
  f->set_clock(t);
  f->state_ = Fiber::State::kRunnable;
  schedule_resume(*f);
  f->switch_out();
  if (f->kill_pending_) throw FiberKilled{};
}

void Engine::tick(Time dt) {
  assert(current_ != nullptr);
  assert(dt >= 0);
  current_->set_clock(current_->clock() + dt);
}

void Engine::block() {
  Fiber* f = current_;
  assert(f != nullptr && "block() requires a fiber context");
  f->state_ = Fiber::State::kBlocked;
  f->switch_out();
  if (f->kill_pending_) throw FiberKilled{};
}

void Engine::park(Gate gate, void* ctx, std::uint64_t arg) {
  Fiber* f = current_;
  assert(f != nullptr && "park() requires a fiber context");
  f->state_ = Fiber::State::kBlocked;
  if (gate(ctx, arg)) {
    assert(f->state_ == Fiber::State::kBlocked &&
           "an admitting gate must not leave a turn pending");
    f->state_ = Fiber::State::kRunning;
    return;
  }
  f->gate_ = gate;
  f->gate_ctx_ = ctx;
  f->gate_arg_ = arg;
  f->switch_out();
  f->gate_ = nullptr;
  if (f->kill_pending_) throw FiberKilled{};
}

bool Engine::admit(Fiber& f) {
  assert(f.state() == Fiber::State::kRunnable);
  f.state_ = Fiber::State::kBlocked;
  if (!f.gate_(f.gate_ctx_, f.gate_arg_)) return false;
  assert(f.state_ == Fiber::State::kBlocked &&
         "an admitting gate must not leave a turn pending");
  f.state_ = Fiber::State::kRunnable;
  return true;
}

void Engine::resume(Fiber& f, Time t) {
  // Stale wake-ups are legal: a watcher may fire for a fiber that was
  // already woken (kRunnable) or killed (kFinished) by fault injection.
  if (f.state() == Fiber::State::kFinished ||
      f.state() == Fiber::State::kRunnable) {
    return;
  }
  assert(f.state() == Fiber::State::kBlocked &&
         "resume() target must be blocked");
  f.set_clock(std::max(f.clock(), t));
  f.state_ = Fiber::State::kRunnable;
  schedule_resume(f);
}

void Engine::kill_pe(int pe) {
  assert(current_ == nullptr && "kill_pe must run on the scheduler context");
  if (pe_failed(pe)) return;
  failures_.push_back(PeFailure{pe, sim_now_});
  for (auto& f : fibers_) {
    if (f->pe() != pe) continue;
    switch (f->state()) {
      case Fiber::State::kCreated:
        // Never entered; no stack was ever acquired, nothing to unwind.
        f->state_ = Fiber::State::kFinished;
        retire_fiber(*f);
        break;
      case Fiber::State::kBlocked:
        f->kill_pending_ = true;
        resume(*f, sim_now_);
        break;
      case Fiber::State::kRunnable:
        // Already has a pending run event; it will unwind when it runs.
        f->kill_pending_ = true;
        break;
      case Fiber::State::kRunning:
      case Fiber::State::kFinished:
        break;
    }
  }
  // Without a detector the kill is also the declaration (legacy behavior:
  // hooks run immediately, the declared view tracks ground truth). With
  // deferred declaration the runtime stays oblivious until the detector
  // calls declare_pe_failure.
  if (!deferred_declaration_) declare_pe_failure(pe, sim_now_);
}

void Engine::declare_pe_failure(int pe, Time at) {
  if (pe_declared(pe)) return;
  declared_.push_back(PeFailure{pe, std::max(at, sim_now_)});
  ++membership_epoch_;
  for (const auto& hook : failure_hooks_) hook(declared_.back());
}

bool Engine::pe_declared(int pe) const {
  for (const PeFailure& f : declared_) {
    if (f.pe == pe) return true;
  }
  return false;
}

bool Engine::pe_failed(int pe) const {
  for (const PeFailure& f : failures_) {
    if (f.pe == pe) return true;
  }
  return false;
}

void Engine::run_fiber(Fiber& f, Time t) {
  if (f.state() == Fiber::State::kFinished) return;
  assert(f.state() == Fiber::State::kCreated ||
         f.state() == Fiber::State::kRunnable);
  f.set_clock(std::max(f.clock(), t));
  current_ = &f;
  ++switches_;
  f.switch_in();
  current_ = nullptr;
  if (f.state() == Fiber::State::kFinished) retire_fiber(f);
  if (f.pending_exception_) {
    auto ex = f.pending_exception_;
    f.pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Engine::retire_fiber(Fiber& f) {
  assert(f.state() == Fiber::State::kFinished);
  --unfinished_;
  if (f.stack_.base != nullptr) {
    stack_pool_.release(f.stack_);
    f.stack_ = StackPool::Stack{};
  }
  f.body_ = nullptr;  // drop captured workload state with the stack
}

int Engine::fibers_unfinished_scan() const {
  int n = 0;
  for (const auto& f : fibers_) {
    if (f->state() != Fiber::State::kFinished) ++n;
  }
  return n;
}

void Engine::run() {
  assert(!running_ && "Engine::run is not reentrant");
  running_ = true;
  Engine* prev = g_current_engine;
  g_current_engine = this;
  try {
#ifndef NDEBUG
    std::pair<Time, std::uint64_t> last{-1, 0};
#endif
    EventNode* n;
    while ((n = queue_.pop()) != nullptr) {
#ifndef NDEBUG
      // The queue's one contract: pops strictly ascend in (t, seq).
      assert(std::pair(n->t, n->seq) > last && "event popped out of order");
      last = {n->t, n->seq};
#endif
      sim_now_ = n->t;
      ++events_processed_;
      switch (n->kind) {
        case EventNode::Kind::kFiberResume: {
          Fiber* f = n->u.fiber;
          pool_.release(n);
          // A parked fiber is switched in only once its gate admits it; a
          // kill skips the gate so the fiber unwinds now.
          if (f->gate_ != nullptr && !f->kill_pending_ && !admit(*f)) break;
          run_fiber(*f, f->clock());
          break;
        }
        case EventNode::Kind::kRawCall: {
          const auto raw = n->u.raw;
          pool_.release(n);
          raw.fn(raw.ctx, raw.a, raw.b);
          break;
        }
      }
    }
  } catch (...) {
    g_current_engine = prev;
    running_ = false;
    g_last_stats = stats();
    throw;
  }
  g_current_engine = prev;
  running_ = false;
  g_last_stats = stats();
  if (fibers_unfinished() > 0) report_deadlock();
}

void Engine::report_deadlock() const {
  constexpr int kMaxListed = 32;
  std::ostringstream os;
  if (!failures_.empty()) {
    os << "simulation stalled after image failure: ";
  } else {
    os << "simulation deadlock: ";
  }
  os << fibers_unfinished() << " fiber(s) still unfinished at t="
     << format_time(sim_now_);
  int listed = 0;
  for (const auto& f : fibers_) {
    if (f->state() == Fiber::State::kFinished) continue;
    if (listed++ >= kMaxListed) continue;
    os << "\n  [pe " << f->pe() << "] clock=" << format_time(f->clock())
       << " blocked in " << (f->block_op() ? f->block_op() : "<untagged>");
    if (f->block_peer() >= 0) {
      os << " (peer pe " << f->block_peer();
      if (pe_failed(f->block_peer())) os << ", FAILED";
      os << ')';
    }
  }
  if (listed > kMaxListed) {
    os << "\n  ... " << (listed - kMaxListed) << " more";
  }
  if (!failures_.empty()) {
    os << "\nfailed images:";
    for (const PeFailure& f : failures_) {
      os << " pe " << f.pe << " (killed at " << format_time(f.at) << ')';
    }
  }
  if (diagnostic_hook_) {
    const std::string extra = diagnostic_hook_();
    if (!extra.empty()) os << '\n' << extra;
  }
  if (!failures_.empty()) throw FailedImageError(os.str());
  throw DeadlockError(os.str());
}

namespace this_pe {

Time now() { return Engine::current()->now(); }

void advance(Time dt) { Engine::current()->advance(dt); }

int id() { return Engine::current()->current_fiber()->pe(); }

}  // namespace this_pe

}  // namespace sim
