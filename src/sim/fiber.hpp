// Cooperative fibers (user-level execution contexts) for simulated PEs.
//
// Each simulated processing element / CAF image runs as one fiber. The
// engine's event loop switches fibers in virtual-time order; fibers yield
// back to the loop whenever they advance their clock or block on a
// communication event. All fibers run on the host's single OS thread, so no
// locking is required anywhere in the simulation.
//
// Two implementation choices keep 16k-fiber runs fast:
//
//   * Stacks are pooled and lazy: a fiber owns no stack until its first
//     switch-in (Engine hands one out of its StackPool) and gives it back
//     the moment it finishes or is killed. Spawning 16k PEs costs no stack
//     memory for PEs that idle in a barrier.
//   * Steady-state switches use `_setjmp`/`_longjmp`, which stay entirely
//     in user space; `swapcontext` makes a sigprocmask syscall per switch
//     (two syscalls per simulated event in fiber-heavy phases). ucontext is
//     still used once per fiber to bootstrap onto its stack. Sanitizer
//     builds force the pure-ucontext path (SIM_FIBER_UCONTEXT) because ASan
//     tracks fiber stacks through the swapcontext interceptor.
#pragma once

#include <setjmp.h>
#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>

#include "sim/stack_pool.hpp"
#include "sim/time.hpp"

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#ifndef SIM_FIBER_UCONTEXT
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SIM_FIBER_UCONTEXT 1
#else
#define SIM_FIBER_UCONTEXT 0
#endif
#endif

namespace sim {

class Engine;

/// Thrown inside a fiber when its PE is killed by fault injection
/// (Engine::kill_pe). Deliberately NOT derived from std::exception: user
/// workload code that catches (std::exception&) or specific error types must
/// not be able to swallow a kill; only the fiber trampoline catches it.
struct FiberKilled {};

/// Admission test of a parked fiber (Engine::park): true lets the fiber
/// continue; false leaves it parked until its next resume event.
using Gate = bool (*)(void* ctx, std::uint64_t arg);

class Fiber {
 public:
  enum class State {
    kCreated,   // never run
    kRunnable,  // has a pending resume event
    kRunning,   // currently executing
    kBlocked,   // waiting for an explicit resume
    kFinished,  // body returned
  };

  /// Creates a fiber that will execute `body` when first resumed. The stack
  /// is not allocated here: it is acquired from the engine's pool at first
  /// switch-in and recycled when the fiber finishes.
  Fiber(Engine& engine, int pe, std::function<void()> body,
        std::size_t stack_bytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  int pe() const { return pe_; }
  State state() const { return state_; }
  Time clock() const { return clock_; }
  void set_clock(Time t) { clock_ = t; }

  /// Tags the operation this fiber is about to block on, so deadlock and
  /// failed-image diagnostics can say *what* each stuck fiber was doing.
  /// `op` must point at a string literal (stored, not copied); `peer` is the
  /// remote PE involved, or -1 when not applicable.
  void set_block_op(const char* op, int peer = -1) {
    block_op_ = op;
    block_peer_ = peer;
  }
  const char* block_op() const { return block_op_; }
  int block_peer() const { return block_peer_; }

  /// True when Engine::kill_pe has marked this fiber for death; the kill
  /// takes effect (FiberKilled is thrown) at its next scheduler interaction.
  bool kill_pending() const { return kill_pending_; }

  /// True while the fiber holds a pooled stack (first switch-in has
  /// happened and the fiber has not finished).
  bool has_stack() const { return stack_.base != nullptr; }

 private:
  friend class Engine;

  // Transfers control from the scheduler into this fiber; acquires the
  // stack on first entry. Must only be called by Engine on the scheduler
  // context. Any exception the body raised is stashed in
  // pending_exception_ for the engine to rethrow after accounting.
  void switch_in();
  // Transfers control from this fiber back to the scheduler.
  void switch_out();

  static void trampoline(unsigned hi, unsigned lo);
  void run_body();

  Engine& engine_;
  int pe_;
  std::function<void()> body_;
  State state_ = State::kCreated;
  Time clock_ = 0;
  bool kill_pending_ = false;
  const char* block_op_ = nullptr;
  int block_peer_ = -1;
  Gate gate_ = nullptr;  // set while parked (Engine::park)
  void* gate_ctx_ = nullptr;
  std::uint64_t gate_arg_ = 0;

  std::size_t stack_bytes_;   // requested; page-rounded by the pool
  StackPool::Stack stack_{};  // empty until first switch-in

#if SIM_FIBER_UCONTEXT
  ucontext_t ctx_{};
  ucontext_t* return_ctx_ = nullptr;  // where to go on yield/finish
#else
  jmp_buf jb_{};  // resume point inside the fiber; engine holds the
                  // scheduler-side jmp_buf
#endif

  // If an exception escapes the fiber body it is stashed here and rethrown
  // by the engine on the scheduler context.
  std::exception_ptr pending_exception_;
};

}  // namespace sim
