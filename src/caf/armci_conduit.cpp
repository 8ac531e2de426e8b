#include "caf/armci_conduit.hpp"

namespace caf {

ArmciConduit::ArmciConduit(armci::World& world)
    : world_(world), seg_bytes_(world.seg_bytes()) {}

std::int64_t ArmciConduit::emulated_rmw(
    int rank, std::uint64_t off,
    const std::function<std::int64_t(std::int64_t)>& f) {
  // Lazily create the conduit's emulation mutex (collective on first use is
  // not possible here, so it is created in the first collective call path:
  // allocate() precedes any atomic in the runtime's init()). We create it
  // on demand under the assumption every rank performs at least one
  // collective allocation first — enforced by Runtime::init().
  if (rmw_mutex_ < 0) {
    throw std::logic_error(
        "ArmciConduit: call init_mutexes() collectively before atomics");
  }
  world_.lock(rmw_mutex_, rank);
  std::int64_t old = 0;
  world_.get(&old, rank, off, sizeof old);
  const std::int64_t neu = f(old);
  world_.put(rank, off, &neu, sizeof neu);
  world_.all_fence();
  world_.unlock(rmw_mutex_, rank);
  return old;
}

std::int64_t ArmciConduit::do_amo_cswap(int rank, std::uint64_t off,
                                     std::int64_t cond, std::int64_t v) {
  return emulated_rmw(rank, off, [cond, v](std::int64_t old) {
    return old == cond ? v : old;
  });
}

}  // namespace caf
