// mpi3::Window — the MPI-3.0 one-sided (RMA) subset used as the third
// conduit in the paper's motivation study (Figures 2-3).
//
// Models the passive-target usage PGAS runtimes employ: a window created
// over a symmetric buffer, MPI_Win_lock_all once at startup, MPI_Put /
// MPI_Get / MPI_Fetch_and_op / MPI_Compare_and_swap, and
// MPI_Win_flush(_all) for completion. The software profile charges the
// heavier per-operation path of an MPI library (window bookkeeping, datatype
// checks, target synchronization rules), which is exactly the latency gap
// Figure 2 shows at small sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "fabric/domain.hpp"
#include "net/profiles.hpp"
#include "shmem/heap.hpp"

namespace mpi3 {

class Window {
 public:
  /// Creates a window of `win_bytes` on every rank (MPI_Win_allocate over
  /// COMM_WORLD) and enters a passive-target lock_all epoch.
  Window(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
         std::size_t win_bytes);
  ~Window();

  void launch(std::function<void()> rank_main);

  int rank() const;
  int size() const { return domain_->npes(); }
  sim::Engine& engine() { return engine_; }
  fabric::Domain& domain() { return *domain_; }
  std::byte* base(int rank) { return domain_->segment(rank); }

  /// MPI_Put: origin buffer reusable on return; remote completion requires
  /// flush. (MPI says reuse needs flush too; the simulated payload capture
  /// is strictly stronger and benign.)
  void put(const void* origin, std::size_t n, int target_rank,
           std::uint64_t target_off);
  /// MPI_Get followed by MPI_Win_flush(target): blocking read.
  void get(void* origin, std::size_t n, int target_rank,
           std::uint64_t target_off);
  /// MPI_Put with an indexed datatype: one RMA call ships the packed payload
  /// and scatters it per `recs`. Remote completion requires flush, like put.
  void put_scatter(const fabric::ScatterRec* recs, std::size_t nrecs,
                   const void* payload, std::size_t payload_bytes,
                   int target_rank);
  /// MPI_Fetch_and_op(MPI_SUM) on a 64-bit target.
  std::int64_t fetch_and_op_sum(std::int64_t operand, int target_rank,
                                std::uint64_t target_off);
  /// MPI_Compare_and_swap on a 64-bit target.
  std::int64_t compare_and_swap(std::int64_t compare, std::int64_t value,
                                int target_rank, std::uint64_t target_off);
  /// MPI_Win_flush_all: all outstanding RMA from this rank complete.
  void flush_all();
  /// Collective window-memory allocation (MPI_Win_allocate_shared style
  /// bookkeeping): every rank calls with the same size, all receive the
  /// same offset. Includes a barrier.
  std::uint64_t allocate_collective(std::size_t bytes);
  void free_collective(std::uint64_t off);
  /// Blocks until the local int64 at `off` satisfies `cmp value` (an
  /// MPI_Win passive-target progress wait; used by layered runtimes), or
  /// `epoch` ends it as in fabric::Domain::wait_until.
  void wait_until_local(std::uint64_t off, fabric::Cmp cmp,
                        std::int64_t value,
                        std::uint64_t epoch = fabric::kNoEpoch) {
    domain_->wait_until(rank(), off, cmp, value, "mpi3_wait_until", epoch);
  }
  /// MPI_Barrier over COMM_WORLD (dissemination on flags in the window's
  /// reserved prefix, each round's flag sent as a blocking MPI_Put).
  void barrier();

  static constexpr std::size_t reserved_bytes() {
    return fabric::Domain::kMaxRounds * sizeof(std::int64_t);
  }

 private:
  sim::Engine& engine_;
  std::unique_ptr<fabric::Domain> domain_;
  std::vector<std::int64_t> barrier_gen_;

  // collective allocation replay (like the other worlds)
  std::unique_ptr<shmem::FreeListAllocator> allocator_;
  struct AllocOp {
    bool is_free;
    std::uint64_t arg;
    std::uint64_t result;  // offset, or kAllocFailed when the alloc failed
  };
  static constexpr std::uint64_t kAllocFailed = ~std::uint64_t{0};
  std::vector<AllocOp> alloc_log_;
  std::vector<std::size_t> alloc_cursor_;
};

}  // namespace mpi3
