// Deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock, a time-ordered event queue, and a set of
// fibers (one per simulated PE / CAF image). Communication layers schedule
// delivery events; fibers advance their own clocks through Engine::advance*
// and block/resume around communication completions, or park behind a gate
// that the scheduler runs until they may continue. Ties in the event queue
// are broken by insertion sequence, so a given program + seed always executes
// identically.
//
// The hot path is allocation-free: events are typed nodes recycled through a
// slab pool and ordered by a timing wheel (see sim/event_queue.hpp), and
// fiber stacks come from a lazy mmap pool (see sim/stack_pool.hpp). Every
// layer schedules through schedule_raw / reserve_seq: a function pointer
// plus a context and two integers, with any per-operation state in a pooled
// record of the layer's own.
//
// Threading model: everything runs on the calling OS thread. Exactly one
// engine can be running on a thread at a time; Engine::current() returns it
// for code (like the OpenSHMEM C-style shim) that cannot carry a handle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/stack_pool.hpp"
#include "sim/time.hpp"

namespace sim {

/// Thrown by Engine::run when blocked fibers remain but no events are
/// pending — i.e. the simulated program deadlocked.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown instead of DeadlockError when the stall is attributable to fault
/// injection: at least one PE was killed (Engine::kill_pe) and survivors are
/// still blocked at drain time. Derives from DeadlockError so existing
/// catch sites keep working while fault-aware callers can distinguish the
/// two.
class FailedImageError : public DeadlockError {
 public:
  explicit FailedImageError(const std::string& what) : DeadlockError(what) {}
};

/// Record of one injected PE death.
struct PeFailure {
  int pe;
  Time at;  ///< virtual time at which the PE was killed
};

/// Host-side health counters for one engine, exported through the obs
/// registry as engine.* counters (see obs::sync_engine_counters).
struct EngineStats {
  std::uint64_t events = 0;            ///< events dispatched by run()
  std::uint64_t switches = 0;          ///< fiber switch-ins (a parked
                                       ///< fiber's gate runs count none)
  std::uint64_t event_pool_hits = 0;   ///< events served from the free list
  std::uint64_t event_pool_misses = 0; ///< events served from a fresh slab
  std::uint64_t event_slab_allocs = 0; ///< heap allocations for event slabs
  std::uint64_t stack_bytes_peak = 0;  ///< peak concurrently-live stack bytes
  std::uint64_t stack_bytes_mapped = 0;
  std::uint64_t stack_acquires = 0;
  std::uint64_t stack_reuses = 0;
};

class Engine {
 public:
  /// `default_stack_bytes` sizes fiber stacks created by spawn(); simulated
  /// programs keep bulky data on the heap, so the default is modest.
  explicit Engine(std::size_t default_stack_bytes = 128 * 1024);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- setup (scheduler context) ----

  /// Creates a fiber for PE `pe` running `body`, resumable at time 0.
  Fiber& spawn(int pe, std::function<void()> body);
  Fiber& spawn(int pe, std::function<void()> body, std::size_t stack_bytes);

  /// Convenience: spawn `n` PEs all running `body(pe)`.
  void spawn_pes(int n, const std::function<void(int)>& body);

  /// Runs until the event queue drains. Throws DeadlockError if unfinished
  /// fibers remain afterwards.
  void run();

  // ---- event scheduling (any context) ----

  /// Allocation-free scheduling: `fn(ctx, a, b)` runs on the scheduler
  /// context at absolute time `t` (clamped to the current virtual time if
  /// in the past). Events at equal times run in scheduling order.
  void schedule_raw(Time t, RawFn fn, void* ctx, std::uint64_t a = 0,
                    std::uint64_t b = 0) {
    push_raw(t, next_seq_++, fn, ctx, a, b);
  }

  /// Claims the next event sequence number without scheduling anything.
  /// Delivery streams that batch several logical messages behind one live
  /// event node reserve a seq per message at the original schedule site and
  /// replay it via schedule_raw_reserved, keeping the global (time, seq)
  /// pop order byte-identical to one-event-per-message scheduling.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules with a sequence number previously taken from reserve_seq().
  void schedule_raw_reserved(Time t, std::uint64_t seq, RawFn fn, void* ctx,
                             std::uint64_t a = 0, std::uint64_t b = 0) {
    push_raw(t, seq, fn, ctx, a, b);
  }

  /// Absolute virtual time of the event currently being processed.
  Time sim_now() const { return sim_now_; }

  // ---- fiber-side operations ----

  /// The fiber currently executing, or nullptr on the scheduler context.
  Fiber* current_fiber() const { return current_; }

  /// Current fiber's local clock. Must be called from a fiber.
  Time now() const;

  /// Advances the current fiber's clock by `dt`, yielding to the scheduler
  /// so that deliveries with earlier timestamps are processed first.
  void advance(Time dt);

  /// Advances the current fiber's clock to absolute time `t` (no-op if
  /// already past), yielding to the scheduler.
  void advance_to(Time t);

  /// Advances the current fiber's clock without yielding. Only safe for
  /// costs that cannot interleave with deliveries the fiber later observes;
  /// prefer advance().
  void tick(Time dt);

  /// Blocks the current fiber until some other event calls resume().
  void block();

  /// Parks the current fiber behind `gate(ctx, arg)`, which decides when
  /// the fiber may continue. The gate runs at once on the fiber; while it
  /// declines, each later resume event of the fiber runs it on the
  /// scheduler instead, and the fiber is switched in only in the event
  /// where it returns true. A declining gate leaves the fiber exactly as a
  /// fiber about to yield would: with a turn taken through resume()
  /// (kRunnable) or waiting for some later event to call resume()
  /// (kBlocked). While the gate runs the fiber is kBlocked, its clock is
  /// the current time of the parked work, and on the scheduler
  /// current_fiber() is nullptr. A killed parked fiber is switched in at
  /// its next resume event without running the gate, and park() throws
  /// FiberKilled.
  void park(Gate gate, void* ctx, std::uint64_t arg);

  /// Makes `f` runnable again at absolute time `t` (>= its own clock).
  /// A no-op for fibers that are already runnable or finished (e.g. stale
  /// watcher wake-ups racing a kill); must not target a running fiber.
  void resume(Fiber& f, Time t);

  // ---- fault injection (scheduler context) ----

  /// Kills every fiber of PE `pe` at the current virtual time: blocked and
  /// runnable fibers (parked ones included) unwind via FiberKilled at their
  /// next scheduler interaction, never-started fibers finish immediately.
  /// Records the failure and invokes the registered failure hooks.
  /// Idempotent.
  void kill_pe(int pe);

  /// True once kill_pe(pe) has run.
  bool pe_failed(int pe) const;

  int failed_count() const { return static_cast<int>(failures_.size()); }
  const std::vector<PeFailure>& failures() const { return failures_; }

  // ---- declared (in-band) membership view ----
  //
  // kill_pe records ground truth — what the fault injector did. The
  // *declared* view is what the simulated software stack is allowed to act
  // on: a PE enters it only when a failure detector (or transport-level
  // retransmit exhaustion) declares it, via declare_pe_failure(). Without a
  // detector armed, kill_pe declares immediately, so the two views coincide
  // and legacy direct-kill callers see no change.

  /// Declares PE `pe` failed as observed in-band: records it, bumps the
  /// membership epoch, and runs the registered failure hooks (which kill_pe
  /// no longer runs directly when declaration is deferred). Idempotent.
  /// Callable from fiber or scheduler context; `at` stamps the declaration
  /// (clamped up to the current virtual time if earlier).
  void declare_pe_failure(int pe, Time at);

  /// True once declare_pe_failure(pe) has run. This — not pe_failed() — is
  /// what image_status / failed_images / team formation consume.
  bool pe_declared(int pe) const;

  int declared_count() const { return static_cast<int>(declared_.size()); }
  const std::vector<PeFailure>& declared_failures() const { return declared_; }

  /// Monotone counter bumped on every declaration; collective layers cache
  /// per-epoch topology (node maps, leader trees) keyed on it.
  std::uint64_t membership_epoch() const { return membership_epoch_; }

  /// Defers failure-hook execution from kill_pe to declare_pe_failure. Set
  /// by the failure detector when it arms; kill_pe then only unwinds the
  /// victim's fibers and the runtime learns of the death when the detector
  /// declares it.
  void set_deferred_failure_declaration(bool on) {
    deferred_declaration_ = on;
  }
  bool deferred_failure_declaration() const { return deferred_declaration_; }

  /// Diagnostic hook appended to deadlock/stall reports (the failure
  /// detector registers its suspicion-state snapshot here).
  void set_diagnostic_hook(std::function<std::string()> hook) {
    diagnostic_hook_ = std::move(hook);
  }

  /// Suspicion oracle: the failure detector registers its alive→suspect
  /// state here so runtimes can steer *advisory* decisions (e.g. replica
  /// read fallback) by suspicion before a declaration commits. Suspicion is
  /// never membership — only declare_pe_failure moves the declared view.
  void set_suspicion_query(std::function<bool(int)> query) {
    suspicion_query_ = std::move(query);
  }

  /// True while the armed detector holds `pe` in the suspect state (always
  /// false without a detector). Declared PEs report false — they are past
  /// suspicion, and pe_declared() is the authoritative signal.
  bool pe_suspected(int pe) const {
    return suspicion_query_ && suspicion_query_(pe);
  }

  /// Registers a hook invoked (on the scheduler context) at each
  /// declaration, after the epoch has moved; runtimes use it to end the
  /// failure-aware waits the death cuts short (fabric::Domain::end_wait).
  void on_pe_failure(std::function<void(const PeFailure&)> hook) {
    failure_hooks_.push_back(std::move(hook));
  }

  /// Declares that PE/node kills (or partitions) are scheduled for this run
  /// (set by FaultInjector::arm before launch). Runtimes consult
  /// kills_armed() to pick their robust lock layouts; without armed kills
  /// they keep the original ones, so fault-free runs stay bit-identical.
  void arm_kills() { kills_armed_ = true; }
  bool kills_armed() const { return kills_armed_; }

  // ---- introspection ----

  std::size_t events_processed() const { return events_processed_; }

  /// Live count of not-yet-finished fibers. O(1): maintained at spawn and
  /// retirement (run() consults it for every drain, and deadlock checks
  /// used to pay an O(n) scan here).
  int fibers_unfinished() const { return unfinished_; }

  /// The O(n) recount of fibers_unfinished(), kept as a cross-check for
  /// tests and assertions.
  int fibers_unfinished_scan() const;

  /// Host-side health counters (event pool, switches, stack pool).
  EngineStats stats() const;

  /// Engine bound to this thread while run() is active (else nullptr).
  static Engine* current();

 private:
  friend class Fiber;

  void schedule_resume(Fiber& f);
  /// Runs a parked fiber's gate in its resume event; true admits it.
  bool admit(Fiber& f);
  void push_raw(Time t, std::uint64_t seq, RawFn fn, void* ctx,
                std::uint64_t a, std::uint64_t b);
  void run_fiber(Fiber& f, Time t);
  /// Accounting when a fiber reaches kFinished: releases its pooled stack,
  /// drops the captured body, and decrements the live counter.
  void retire_fiber(Fiber& f);
  [[noreturn]] void report_deadlock() const;

  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<PeFailure> failures_;
  std::vector<PeFailure> declared_;
  std::uint64_t membership_epoch_ = 0;
  bool deferred_declaration_ = false;
  std::function<std::string()> diagnostic_hook_;
  std::function<bool(int)> suspicion_query_;
  std::vector<std::function<void(const PeFailure&)>> failure_hooks_;
  EventPool pool_;
  CalendarQueue queue_;
  StackPool stack_pool_;
  std::uint64_t next_seq_ = 0;
  Time sim_now_ = 0;
  std::size_t events_processed_ = 0;
  std::uint64_t switches_ = 0;
  int unfinished_ = 0;
  bool kills_armed_ = false;
  std::size_t default_stack_bytes_;

  Fiber* current_ = nullptr;
#if SIM_FIBER_UCONTEXT
  ucontext_t scheduler_ctx_{};
#else
  jmp_buf sched_jb_{};
#endif
  bool running_ = false;
};

/// Stats of the engine currently running on this thread, or (between runs)
/// a snapshot taken when the last run() on this thread returned. Lets the
/// obs export layer report engine health without holding an Engine handle.
EngineStats last_engine_stats();

/// Convenience wrappers used throughout the communication layers; they all
/// operate on Engine::current() and the currently running fiber.
namespace this_pe {
Time now();
void advance(Time dt);
int id();
}  // namespace this_pe

}  // namespace sim
