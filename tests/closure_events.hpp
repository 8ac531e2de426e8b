// Test-only closure events. sim::Engine schedules raw events only (a
// function pointer, a context and two integers); tests that read better
// with a lambda schedule it through a Closures adapter instead. The adapter
// owns every std::function it schedules until it is destroyed, and each one
// rides a schedule_raw event, so the engine's (time, seq) order and its
// clamp of past times to now apply exactly as to any other event.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/engine.hpp"

namespace simtest {

class Closures {
 public:
  explicit Closures(sim::Engine& eng) : eng_(eng) {}

  Closures(const Closures&) = delete;
  Closures& operator=(const Closures&) = delete;

  /// Runs `fn` on the scheduler context at `t`. Callable from a running
  /// closure or fiber: a deque keeps earlier closures in place as it grows.
  void schedule(sim::Time t, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    eng_.schedule_raw(t, &call, &fns_.back());
  }

 private:
  static void call(void* fn, std::uint64_t, std::uint64_t) {
    (*static_cast<std::function<void()>*>(fn))();
  }

  sim::Engine& eng_;
  std::deque<std::function<void()>> fns_;
};

}  // namespace simtest
