#include "caf/armci_conduit.hpp"

namespace caf {

ArmciConduit::ArmciConduit(armci::World& world)
    : world_(world), seg_bytes_(world.seg_bytes()) {}

// Mutex-protected read-modify-write: get the word, write back what the AMO
// leaves there (the old word when a compare-and-swap fails), fence, unlock.
std::int64_t ArmciConduit::do_amo(fabric::AmoOp op, int rank,
                                  std::uint64_t off, std::int64_t operand,
                                  std::int64_t cond) {
  // The emulation mutex is created in post_init(), which Runtime::init()
  // runs collectively before any image can issue an atomic.
  if (rmw_mutex_ < 0) {
    throw std::logic_error(
        "ArmciConduit: call init_mutexes() collectively before atomics");
  }
  world_.lock(rmw_mutex_, rank);
  std::uint64_t old = 0;
  world_.get(&old, rank, off, sizeof old);
  const std::uint64_t neu =
      fabric::amo_apply(op, old, static_cast<std::uint64_t>(operand),
                        static_cast<std::uint64_t>(cond))
          .value_or(old);
  world_.put(rank, off, &neu, sizeof neu);
  world_.all_fence();
  world_.unlock(rmw_mutex_, rank);
  return static_cast<std::int64_t>(old);
}

}  // namespace caf
