// shmem::World — an OpenSHMEM library implementation for simulated PEs.
//
// This is the communication layer the paper proposes CAF be built on. The
// surface follows the OpenSHMEM 1.x specification style (the routines in
// paper Table II), implemented over a fabric::Domain whose profile decides
// the vendor behaviour:
//
//   * Cray SHMEM      — DMAPP profile: shmem_iput/iget are single
//                       NIC-offloaded transactions (hw_strided);
//   * MVAPICH2-X SHMEM — verbs profile: shmem_iput/iget loop contiguous
//                       puts/gets in software (the behaviour Figure 7 and
//                       the Himeno discussion hinge on).
//
// Symmetric heap pointers returned by shmalloc() are host pointers into the
// calling PE's segment; any symmetric address can be passed as a target to
// RMA routines with a PE number, exactly like the real API.
//
// All methods must be called from a PE fiber (spawned via launch()).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "fabric/domain.hpp"
#include "net/profiles.hpp"
#include "shmem/heap.hpp"

namespace shmem {

/// Comparison operators for shmem_wait_until.
using Cmp = fabric::Cmp;

/// Reduction operators for the to_all collectives.
enum class ReduceOp { kSum, kProd, kMin, kMax, kAnd, kOr, kXor };

/// An OpenSHMEM active set (PE_start, logPE_stride, PE_size).
using ActiveSet = fabric::ActiveSet;

/// Minimum pSync length (in int64 slots) our collectives require — one per
/// dissemination/tree round plus one broadcast flag (covers 2^16 PEs).
inline constexpr std::size_t kSyncSize = 17;

class World {
 public:
  /// Builds a SHMEM world of fabric.npes() PEs with `heap_bytes` of
  /// symmetric heap each (internal collective state is carved from the
  /// start of the heap).
  World(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
        std::size_t heap_bytes);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Spawns one fiber per PE running `pe_main`; equivalent to launching an
  /// SPMD OpenSHMEM program (start_pes). Call engine.run() afterwards.
  void launch(std::function<void()> pe_main);

  // ---- setup & query (shmem_my_pe / shmem_n_pes) ----
  int my_pe() const {
    sim::Fiber* f = engine_.current_fiber();
    assert(f != nullptr && "shmem calls require a PE fiber context");
    return f->pe();
  }
  int n_pes() const { return domain_->npes(); }
  sim::Engine& engine() { return engine_; }
  fabric::Domain& domain() { return *domain_; }
  const net::SwProfile& sw() const { return domain_->sw(); }

  // ---- symmetric memory (shmalloc / shfree); collective calls ----
  void* shmalloc(std::size_t bytes);
  void shfree(void* ptr);

  /// shmem_ptr: direct load/store access to `pe`'s copy of a symmetric
  /// object when `pe` is on the caller's node; nullptr otherwise.
  void* ptr(void* sym, int pe);

  // ---- RMA: contiguous ----
  void putmem(void* dst, const void* src, std::size_t n, int pe);
  void getmem(void* dst, const void* src, std::size_t n, int pe);
  void putmem_nbi(void* dst, const void* src, std::size_t n, int pe);
  /// shmemx-style vectored nbi put: the packed payload is delivered as ONE
  /// pipelined message and scattered at the target per `recs` (write
  /// combining). Records carry symmetric-heap offsets directly.
  void putmem_scatter_nbi(int pe, const fabric::ScatterRec* recs,
                          std::size_t nrecs, const void* payload,
                          std::size_t payload_bytes);

  template <typename T>
  void put(T* dst, const T* src, std::size_t nelems, int pe) {
    putmem(dst, src, nelems * sizeof(T), pe);
  }
  template <typename T>
  void get(T* dst, const T* src, std::size_t nelems, int pe) {
    getmem(dst, const_cast<T*>(src), nelems * sizeof(T), pe);
  }
  /// shmem_p / shmem_g single-element convenience.
  template <typename T>
  void p(T* dst, T value, int pe) {
    putmem(dst, &value, sizeof(T), pe);
  }
  template <typename T>
  T g(const T* src, int pe) {
    T v{};
    getmem(&v, const_cast<T*>(src), sizeof(T), pe);
    return v;
  }

  // ---- RMA: 1-D strided (shmem_iput / shmem_iget; strides in elements) ----
  void iputmem(void* dst, const void* src, std::ptrdiff_t dst_stride,
               std::ptrdiff_t src_stride, std::size_t elem_bytes,
               std::size_t nelems, int pe);
  void igetmem(void* dst, const void* src, std::ptrdiff_t dst_stride,
               std::ptrdiff_t src_stride, std::size_t elem_bytes,
               std::size_t nelems, int pe);
  template <typename T>
  void iput(T* dst, const T* src, std::ptrdiff_t dst_stride,
            std::ptrdiff_t src_stride, std::size_t nelems, int pe) {
    iputmem(dst, src, dst_stride, src_stride, sizeof(T), nelems, pe);
  }
  template <typename T>
  void iget(T* dst, const T* src, std::ptrdiff_t dst_stride,
            std::ptrdiff_t src_stride, std::size_t nelems, int pe) {
    igetmem(dst, const_cast<T*>(src), dst_stride, src_stride, sizeof(T),
            nelems, pe);
  }

  // ---- memory ordering ----
  void quiet();
  void fence();

  // ---- point-to-point sync (shmem_wait_until on 64-bit symmetric vars) ----
  /// `epoch` as in fabric::Domain::wait_until (layered runtimes' failure-
  /// aware waits); the default never ends early.
  void wait_until(const std::int64_t* ivar, Cmp cmp, std::int64_t value,
                  std::uint64_t epoch = fabric::kNoEpoch);

  // ---- atomics (64-bit, as used by the paper's lock design §IV-D) ----
  std::int64_t swap(std::int64_t* target, std::int64_t value, int pe);
  std::int64_t cswap(std::int64_t* target, std::int64_t cond,
                     std::int64_t value, int pe);
  std::int64_t fadd(std::int64_t* target, std::int64_t value, int pe);
  std::int64_t finc(std::int64_t* target, int pe);
  void add(std::int64_t* target, std::int64_t value, int pe);
  void inc(std::int64_t* target, int pe);
  std::int64_t fetch_and(std::int64_t* target, std::int64_t mask, int pe);
  std::int64_t fetch_or(std::int64_t* target, std::int64_t mask, int pe);
  std::int64_t fetch_xor(std::int64_t* target, std::int64_t mask, int pe);

  // ---- collectives over all PEs ----
  void barrier_all();
  /// Broadcasts nbytes from root's `buf` into every PE's `buf` (including
  /// the root's own, unlike shmem_broadcast32 — documented deviation kept
  /// for the CAF co_broadcast mapping).
  void broadcast(void* buf, std::size_t nbytes, int root);
  /// Element-wise reduction of `nelems` elements of T from src into dst on
  /// every PE (shmem_<T>_<op>_to_all with the whole world as active set).
  template <typename T>
  void reduce(T* dst, const T* src, std::size_t nelems, ReduceOp op);
  /// Concatenates nbytes from every PE (rank order) into dst on all PEs
  /// (shmem_fcollect).
  void fcollect(void* dst, const void* src, std::size_t nbytes);

  /// shmem_collect: like fcollect but each PE may contribute a different
  /// number of bytes; contributions are concatenated in PE order. The
  /// sizes are exchanged internally first.
  void collect(void* dst, const void* src, std::size_t nbytes);

  /// shmem_alltoall: PE i's j-th block of `block_bytes` lands in PE j's
  /// dst at block i. dst must hold n_pes()*block_bytes.
  void alltoall(void* dst, const void* src, std::size_t block_bytes);

  // ---- active-set collectives (shmem_barrier / shmem_broadcast64 /
  //      shmem_<T>_<op>_to_all with PE_start, logPE_stride, PE_size) ----

  /// shmem_barrier over an active set; pSync is a symmetric array of at
  /// least kSyncSize int64 slots, dedicated to this set.
  void barrier(const ActiveSet& as, std::int64_t* pSync);

  /// shmem_broadcast: root is *relative* to the active set, data lands in
  /// every member's dst (including the root's, as with broadcast()).
  void broadcast(const ActiveSet& as, void* dst, const void* src,
                 std::size_t nbytes, int root_rel, std::int64_t* pSync);

  /// shmem_<T>_<op>_to_all over an active set. pWrk is a symmetric staging
  /// array; this implementation requires pWrk to hold at least
  /// ceil(log2(PE_size)) * nelems elements (a documented strengthening of
  /// the spec's minimum, traded for slot-per-level overlap safety).
  template <typename T>
  void to_all(const ActiveSet& as, T* dst, const T* src, std::size_t nelems,
              ReduceOp op, T* pWrk, std::int64_t* pSync);

  // ---- OpenSHMEM global locks (single logical entity; §IV-D explains why
  //      these are NOT suitable for CAF locks) ----
  void set_lock(std::int64_t* lock);
  void clear_lock(std::int64_t* lock);
  int test_lock(std::int64_t* lock);

  // ---- introspection for tests/benches ----
  std::uint64_t offset_of(const void* sym) const;
  std::size_t heap_user_bytes() const;

 private:
  static constexpr int kMaxRounds = fabric::Domain::kMaxRounds;
  static constexpr std::size_t kReduceSlotBytes = 8192;

  struct CollectiveState;  // per-PE internal offsets & generation counters

  /// The Domain's dissemination barrier over `as`, its round flags put
  /// pipelined at flags_off + 8r.
  void dissemination(const ActiveSet& as, std::uint64_t flags_off,
                     std::int64_t gen);
  std::uint64_t sym_off(const void* ptr, const char* what) const;
  void reduce_bytes(void* dst, const void* src, std::size_t nelems,
                    std::size_t elem_bytes,
                    const std::function<void(void*, const void*)>& combine);
  void to_all_bytes(const ActiveSet& as, void* dst, const void* src,
                    std::size_t nelems, std::size_t elem_bytes,
                    const std::function<void(void*, const void*)>& combine_all,
                    std::byte* pWrk, std::int64_t* pSync);
  /// Per-(PE, pSync) monotone generation counters for active-set flags.
  std::int64_t next_psync_gen(int pe, std::uint64_t psync_off);
  void validate_member(const ActiveSet& as, const char* what) const;

  sim::Engine& engine_;
  std::unique_ptr<fabric::Domain> domain_;
  std::unique_ptr<FreeListAllocator> allocator_;

  // Collective-allocation log: shmalloc/shfree are collective; the first
  // arriving PE performs the operation, later PEs replay the result.
  struct AllocOp {
    bool is_free;
    std::uint64_t arg;     // size for alloc, offset for free
    std::uint64_t result;  // offset for alloc, or kAllocFailed
  };
  static constexpr std::uint64_t kAllocFailed = ~std::uint64_t{0};
  std::vector<AllocOp> alloc_log_;
  std::vector<std::size_t> alloc_cursor_;  // per PE

  std::vector<std::unique_ptr<CollectiveState>> coll_;
  std::vector<std::unordered_map<std::uint64_t, std::int64_t>> psync_gens_;

  // Internal symmetric layout (offsets within each segment).
  std::uint64_t internal_bytes_ = 0;
  std::uint64_t barrier_flags_off_ = 0;   // kMaxRounds int64
  std::uint64_t bcast_flag_off_ = 0;      // 1 int64
  std::uint64_t reduce_flags_off_ = 0;    // kMaxRounds int64
  std::uint64_t reduce_slots_off_ = 0;    // kMaxRounds * kReduceSlotBytes
};

namespace detail {

/// Element-wise combiner shared by reduce() and to_all().
template <typename T>
std::function<void(void*, const void*)> make_combiner(std::size_t nelems,
                                                      ReduceOp op) {
  auto combine_one = [op](void* acc_p, const void* in_p) {
    T acc;
    T in;
    std::memcpy(&acc, acc_p, sizeof(T));
    std::memcpy(&in, in_p, sizeof(T));
    switch (op) {
      case ReduceOp::kSum: acc = acc + in; break;
      case ReduceOp::kProd: acc = acc * in; break;
      case ReduceOp::kMin: acc = in < acc ? in : acc; break;
      case ReduceOp::kMax: acc = acc < in ? in : acc; break;
      case ReduceOp::kAnd:
      case ReduceOp::kOr:
      case ReduceOp::kXor:
        if constexpr (std::is_integral_v<T>) {
          if (op == ReduceOp::kAnd) acc = acc & in;
          if (op == ReduceOp::kOr) acc = acc | in;
          if (op == ReduceOp::kXor) acc = acc ^ in;
        }
        break;
    }
    std::memcpy(acc_p, &acc, sizeof(T));
  };
  return [combine_one, nelems](void* a, const void* b) {
    auto* ap = static_cast<std::byte*>(a);
    const auto* bp = static_cast<const std::byte*>(b);
    for (std::size_t i = 0; i < nelems; ++i) {
      combine_one(ap + i * sizeof(T), bp + i * sizeof(T));
    }
  };
}

}  // namespace detail

template <typename T>
void World::to_all(const ActiveSet& as, T* dst, const T* src,
                   std::size_t nelems, ReduceOp op, T* pWrk,
                   std::int64_t* pSync) {
  static_assert(std::is_trivially_copyable_v<T>);
  // pWrk size is validated in bytes against the tree depth inside
  // to_all_bytes; callers size it with log2(PE_size)*nelems elements.
  to_all_bytes(as, dst, src, nelems, sizeof(T),
               detail::make_combiner<T>(nelems, op),
               reinterpret_cast<std::byte*>(pWrk), pSync);
}

template <typename T>
void World::reduce(T* dst, const T* src, std::size_t nelems, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  reduce_bytes(dst, src, nelems, sizeof(T),
               detail::make_combiner<T>(nelems, op));
}

}  // namespace shmem
