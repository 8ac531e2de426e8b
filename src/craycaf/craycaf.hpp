// craycaf::Runtime — a model of Cray's Fortran coarray runtime over DMAPP.
//
// This is the vendor baseline the paper compares against on the XC30 and
// Titan (Figures 6, 8, 9; Table I: Cray-CAF uses Cray's DMAPP API). It is an
// independent implementation — not a Conduit behind caf::Runtime — because
// the comparison hinges on its *different design choices*:
//
//   * every operation pays the Fortran runtime's descriptor-setup overhead
//     above raw DMAPP (folded into the kCrayCaf software profile);
//   * strided transfers use a pipelined per-element nbi-put path rather
//     than 1-D NIC scatter along a chosen base dimension — this is what the
//     2dim_strided algorithm beats by ~3x in Figure 6(c,d);
//   * coarray locks are centralized ticket locks: a fetch-add to take a
//     ticket, then remote polling of now_serving — fair, but each waiter
//     keeps touching the lock holder's image, unlike the MCS queue's
//     local spinning (Figure 8's ~22% average gap).
//
// Image indices are 1-based, like the caf::Runtime API.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fabric/dmapp.hpp"
#include "net/profiles.hpp"
#include "shmem/heap.hpp"

namespace craycaf {

/// Stat codes, numerically aligned with caf::StatCode so the templated
/// apps can treat both runtimes uniformly.
inline constexpr int kStatOk = 0;
inline constexpr int kStatUnlocked = 2;
inline constexpr int kStatFailedImage = 4;

/// A coarray lock variable: two symmetric words (next_ticket, now_serving).
/// Under failure recovery (kills armed) the cell grows an owner ring of
/// num_images()+1 words: owners[ticket % ring] records which image grabbed
/// that ticket, so survivors can tell a dead holder's turn from a live one.
struct CoLock {
  std::uint64_t off = 0;
};

class Runtime {
 public:
  Runtime(sim::Engine& engine, net::Fabric& fabric, std::size_t heap_bytes,
          net::Machine machine = net::Machine::kXC30);
  ~Runtime();

  void launch(std::function<void()> image_main);

  int this_image() const;   // 1-based
  int num_images() const { return ctx_->npes(); }
  sim::Engine& engine() { return engine_; }
  fabric::dmapp::Context& dmapp() { return *ctx_; }

  // ---- collective symmetric allocation ----
  std::uint64_t allocate(std::size_t bytes);
  void deallocate(std::uint64_t off);
  std::byte* local_addr(std::uint64_t off);

  // ---- co-indexed RMA (runtime inserts gsync for CAF ordering) ----
  void put_bytes(int image, std::uint64_t dst_off, const void* src,
                 std::size_t n);
  void get_bytes(void* dst, int image, std::uint64_t src_off, std::size_t n);
  /// Pipelined put without the per-statement gsync (the runtime's deferred
  /// mode); complete with sync_memory().
  void put_bytes_nbi(int image, std::uint64_t dst_off, const void* src,
                     std::size_t n);
  void sync_memory() { dmapp().gsync_wait(); }

  /// Vendor strided put: pipelined per-element nbi puts along the section
  /// (elements described like shmem_iput: strides in elements).
  void put_strided_1d(int image, std::uint64_t dst_off,
                      std::ptrdiff_t dst_stride, const void* src,
                      std::ptrdiff_t src_stride, std::size_t elem_bytes,
                      std::size_t nelems);

  // ---- synchronization ----
  void sync_all();

  // ---- failed-image inquiry & stat= RMA (failure-recovery support) ----
  /// kStatFailedImage when `image` (1-based) has failed, else kStatOk.
  int image_status(int image);
  int put_bytes_stat(int image, std::uint64_t dst_off, const void* src,
                     std::size_t n);
  int get_bytes_stat(void* dst, int image, std::uint64_t src_off,
                     std::size_t n);

  // ---- centralized ticket locks ----
  CoLock make_lock();
  void lock(CoLock lck, int image);
  void unlock(CoLock lck, int image);
  /// lock with stat=: kStatFailedImage without acquiring when the lock
  /// variable's image is dead; kStatFailedImage *with* the lock acquired
  /// when this waiter's CAS skipped a dead ticket holder (reclamation —
  /// reported by exactly the CAS winner); kStatOk otherwise.
  int lock_stat(CoLock lck, int image);
  /// unlock with stat=: kStatUnlocked when not held, kStatFailedImage when
  /// the lock variable's image died while held, else kStatOk.
  int unlock_stat(CoLock lck, int image);

  // ---- collectives (tree over puts; enough for the benchmarks) ----
  void co_sum_f64(double* data, std::size_t nelems);

 private:
  void wait_local_ge(std::uint64_t off, std::int64_t value) {
    ctx_->domain().wait_until(me(), off, fabric::Cmp::kGe, value,
                              "craycaf_wait_until");
  }
  int me() const;
  /// Shared acquire path of lock and lock_stat: returns kStatOk /
  /// kStatFailedImage; *reclaimed set when this waiter's CAS bumped
  /// now_serving past a dead owner. Without kills armed it is the packed
  /// two-word ticket lock and never touches an owner ring.
  int ticket_lock(CoLock lck, int image, bool* reclaimed);
  /// Shared release path of unlock and unlock_stat.
  int ticket_unlock(CoLock lck, int image);
  /// Poll interval for a waiter on a lock homed at `home`.
  sim::Time poll_interval(int home) const;

  sim::Engine& engine_;
  std::unique_ptr<fabric::dmapp::Context> ctx_;
  shmem::FreeListAllocator allocator_;
  struct AllocOp {
    bool is_free;
    std::uint64_t arg;
    std::uint64_t result;
  };
  std::vector<AllocOp> alloc_log_;
  std::vector<std::size_t> alloc_cursor_;
  std::vector<std::int64_t> barrier_gen_;
  std::vector<std::int64_t> coll_gen_;
  /// Kills armed for this run (checked at launch): locks carry the owner
  /// ring and the acquire path reclaims past dead owners. Off by default so
  /// fault-free runs keep the original layout and RMA sequence exactly.
  bool resilient_ = false;
  /// Per-PE map (lock offset, home PE) -> held ticket. Every acquire
  /// records its ticket, so any mix of plain and stat= lock/unlock pairs
  /// up; the resilient unlock also needs the ticket to retire its
  /// owner-ring slot.
  std::vector<std::map<std::pair<std::uint64_t, int>, std::int64_t>>
      held_tickets_;

  // Internal layout at the base of every segment.
  static constexpr int kMaxRounds = fabric::Domain::kMaxRounds;
  static constexpr std::size_t kSlotBytes = 8192;
  std::uint64_t barrier_flags_off_ = 0;
  std::uint64_t coll_flags_off_ = 0;
  std::uint64_t coll_slots_off_ = 0;
  std::uint64_t internal_bytes_ = 0;
};

}  // namespace craycaf
