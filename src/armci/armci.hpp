// armci::World — an ARMCI-like one-sided communication library.
//
// ARMCI (the Aggregate Remote Memory Copy Interface) is the other conduit
// UHCAF supports besides GASNet (paper Table I), and historically the
// runtime layer under Global Arrays. Its API differs from both GASNet and
// OpenSHMEM in ways that matter to a CAF runtime:
//
//   * collective memory registration  — ARMCI_Malloc returns the vector of
//     every process's base address (not symmetric offsets);
//   * native *strided* transfers      — ARMCI_PutS/GetS take per-dimension
//     stride and count arrays and move an N-dimensional patch in one call
//     (software-aggregated on most networks: the library pipelines the
//     contiguous runs, paying one injection gap per run);
//   * read-modify-write              — ARMCI_Rmw (fetch-add / swap only);
//   * mutexes                        — ARMCI_Create_mutexes / Lock(m, proc)
//     give per-process lock instances, which is actually a natural fit for
//     CAF locks (unlike OpenSHMEM's single global lock entity);
//   * ordering                       — ARMCI_Fence(proc) / AllFence.
//
// The simulation maps onto the same fabric::Domain machinery with its own
// software profile.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fabric/domain.hpp"
#include "net/profiles.hpp"
#include "shmem/heap.hpp"

namespace armci {

inline constexpr int kMaxStridedDims = 7;

/// Descriptor for ARMCI_PutS/GetS: counts[0] is the contiguous run length
/// in BYTES; counts[i>0] are repetition counts; strides[i] are byte strides
/// between consecutive blocks at level i (ARMCI's stride_levels convention).
struct StridedDesc {
  int stride_levels = 0;  // 0 => contiguous
  std::array<std::int64_t, kMaxStridedDims> counts{};
  std::array<std::int64_t, kMaxStridedDims> src_strides{};
  std::array<std::int64_t, kMaxStridedDims> dst_strides{};
};

class World {
 public:
  World(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
        std::size_t seg_bytes);
  ~World();

  void launch(std::function<void()> proc_main);

  int me() const;
  int nproc() const { return domain_->npes(); }
  sim::Engine& engine() { return engine_; }
  fabric::Domain& domain() { return *domain_; }
  std::byte* base(int proc) { return domain_->segment(proc); }
  std::size_t seg_bytes() const { return domain_->segment_bytes(); }

  /// ARMCI_Malloc: collective; every process contributes `bytes` and learns
  /// the offset (identical across processes in this model, like a
  /// symmetric allocation; real ARMCI returns per-process pointers).
  std::uint64_t malloc_collective(std::size_t bytes);
  void free_collective(std::uint64_t off);

  // ---- contiguous one-sided ----
  void put(int proc, std::uint64_t dst_off, const void* src, std::size_t n);
  void nb_put(int proc, std::uint64_t dst_off, const void* src, std::size_t n);
  void get(void* dst, int proc, std::uint64_t src_off, std::size_t n);

  /// ARMCI_PutV: vectored put. The descriptor list and packed payload move
  /// as ONE pipelined message; completion via fence/all_fence.
  void putv(int proc, const fabric::ScatterRec* recs, std::size_t nrecs,
            const void* payload, std::size_t payload_bytes);

  // ---- strided (ARMCI_PutS / ARMCI_GetS) ----
  /// Moves the N-d patch described by `d` from local memory at `src` into
  /// `proc`'s segment at dst_off. The library walks the contiguous runs and
  /// pipelines one injection per run (ARMCI's software aggregation).
  void puts(int proc, std::uint64_t dst_off, const void* src,
            const StridedDesc& d);
  void gets(void* dst, int proc, std::uint64_t src_off, const StridedDesc& d);

  // ---- RMW (ARMCI_Rmw): fetch-and-add and swap on 64-bit ----
  std::int64_t rmw_fetch_add(int proc, std::uint64_t off, std::int64_t v);
  std::int64_t rmw_swap(int proc, std::uint64_t off, std::int64_t v);

  // ---- ordering ----
  void fence(int proc);   ///< complete all ops to `proc` (modeled as quiet)
  void all_fence();       ///< complete all outstanding ops

  // ---- mutexes (ARMCI_Create_mutexes / Lock / Unlock) ----
  /// Collective: creates `count` mutexes hosted on every process; returns
  /// the handle base. Mutex m of process p is locked via lock(m, p).
  int create_mutexes(int count);
  void lock(int mutex, int proc);
  void unlock(int mutex, int proc);

  // ---- barrier (ARMCI relies on the host runtime; provided for tests) ----
  void barrier();

  /// Blocks until the int64 at `off` in the local segment satisfies
  /// `cmp value` (woken by remote deliveries; used by layered runtimes),
  /// or `epoch` ends it as in fabric::Domain::wait_until.
  void wait_until_local(std::uint64_t off, fabric::Cmp cmp,
                        std::int64_t value,
                        std::uint64_t epoch = fabric::kNoEpoch) {
    domain_->wait_until(me(), off, cmp, value, "armci_wait_until", epoch);
  }

 private:
  sim::Engine& engine_;
  std::unique_ptr<fabric::Domain> domain_;

  // collective allocation replay (ARMCI_Malloc is collective)
  std::uint64_t alloc_bump_;
  struct AllocOp {
    bool is_free;
    std::uint64_t arg;
    std::uint64_t result;  // offset, or kAllocFailed when the alloc failed
  };
  static constexpr std::uint64_t kAllocFailed = ~std::uint64_t{0};
  std::vector<AllocOp> alloc_log_;
  std::vector<std::size_t> alloc_cursor_;
  std::unique_ptr<shmem::FreeListAllocator> allocator_;

  std::vector<std::int64_t> barrier_gen_;
  std::uint64_t barrier_flags_off_ = 0;
  std::uint64_t mutex_off_ = 0;  // packed ticket words, one per mutex
  int mutexes_ = 0;
  std::vector<char> mutex_created_;  // per-process: collective-call guard

 public:
  static constexpr std::size_t reserved_bytes() {
    return fabric::Domain::kMaxRounds * sizeof(std::int64_t);
  }
};

}  // namespace armci
