// caf::Conduit — the communication-layer abstraction of the UHCAF runtime.
//
// The paper's UHCAF runtime can execute over GASNet, ARMCI, or (this
// paper's contribution) OpenSHMEM. This interface captures exactly the
// primitives the CAF translation of §IV needs:
//
//   * collective symmetric allocation       (allocate/deallocate — Table II
//     maps CAF `allocate` to `shmalloc`);
//   * contiguous one-sided put/get          (§IV-B, with quiet for CAF's
//     stronger completion ordering);
//   * 1-D strided put/get                   (§IV-C building block — may be
//     hardware-offloaded or a software loop, the conduit decides);
//   * 64-bit remote atomics                 (§IV-D locks; conduits without
//     native atomics emulate them, at a cost);
//   * local wait on a symmetric 64-bit word (MCS spin-on-local);
//   * barrier, and optionally native broadcast/reduction.
//
// All offsets are into the conduit's symmetric segment; CAF image indices
// here are 0-based ranks (the Runtime converts to CAF's 1-based images).
//
// The public RMA entry points (put/iput/put_scatter/quiet/...) are
// NON-virtual fronts over protected do_* hooks: the base class maintains a
// per-issuing-rank outstanding-put tracker so quiet() is elided (a cheap
// no-op, no conduit call) when nothing is in flight. This is the
// "deferred-quiet completion tracking" half of the nonblocking RMA pipeline;
// the runtime's aggregation buffer sits above it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "caf/index_set.hpp"
#include "fabric/domain.hpp"  // fabric::ScatterRec
#include "net/model.hpp"
#include "obs/obs.hpp"
#include "shmem/world.hpp"  // for the shmem::ReduceOp enum reused here

namespace caf {

using Cmp = fabric::Cmp;
using ReduceOp = shmem::ReduceOp;

/// Zeroes the `n` bytes at `p` only if one of them is not zero. A fresh
/// segment reads as zeros, so a runtime cell that no run uses is read but
/// never written, and its page stays the kernel's shared zero page.
inline void clear_if_stale(std::byte* p, std::size_t n) {
  if (std::any_of(p, p + n, [](std::byte b) { return b != std::byte{0}; })) {
    std::memset(p, 0, n);
  }
}

class Conduit {
 public:
  virtual ~Conduit() = default;

  // ---- identity & segment ----
  virtual int rank() const = 0;       // 0-based
  virtual int nranks() const = 0;
  virtual std::byte* segment(int rank) = 0;
  virtual std::size_t segment_bytes() const = 0;
  virtual const net::SwProfile& sw() const = 0;
  virtual sim::Engine& engine() = 0;

  /// True when the conduit's 1-D strided transfers are NIC-offloaded
  /// (Cray SHMEM over DMAPP); false when they loop in software
  /// (MVAPICH2-X SHMEM, GASNet).
  virtual bool hw_strided() const = 0;
  /// True when remote atomics run on the NIC; false when they are
  /// active-message emulations (GASNet).
  virtual bool native_amo() const = 0;

  /// The fabric::Domain this conduit's RMA rides on, or nullptr for
  /// conduits without one (caf::Runtime needs one: it resolves local
  /// addresses through it). Lets the runtime enable Domain-level features
  /// (the node-local shared-segment transport) and lets pricing layers
  /// (the collectives selector) query its state without knowing the
  /// concrete conduit type.
  virtual fabric::Domain* rma_domain() { return nullptr; }

  /// True when `target`'s segment is directly load/store addressable from
  /// the calling rank: the node-local shared-segment transport is active
  /// and `target` shares the calling rank's node, so same-node RMA to it
  /// completes via memcpy/SPSC rings with zero fabric messages. The one
  /// same-node query; layers above (the hierarchical collectives engine)
  /// use it to account intra-node stages.
  bool direct_reachable(int target) {
    fabric::Domain* d = rma_domain();
    return d != nullptr && d->node_transport() != nullptr &&
           d->fabric().same_node(rank(), target);
  }

  /// Collective hook invoked once per image by Runtime::init() after the
  /// runtime's internal allocations; conduits needing collective setup
  /// (e.g. ARMCI mutex creation) override it.
  virtual void post_init() {}

  /// Scheduler-context store into `rank`'s segment at virtual time `t`,
  /// waking any waiter whose flag word it overlaps. Used by the
  /// runtime's failure handler (and AM handlers) which mutate target memory
  /// from the event loop rather than through a fiber's NIC path.
  virtual void poke(int rank, std::uint64_t off, const void* src,
                    std::size_t n, sim::Time t) = 0;

  // ---- collective symmetric allocation ----
  /// Collective; every rank calls with the same size and receives the same
  /// segment offset. Includes an implicit barrier.
  virtual std::uint64_t allocate(std::size_t bytes) = 0;
  virtual void deallocate(std::uint64_t offset) = 0;

  // ---- one-sided RMA (non-virtual fronts over do_* hooks) ----
  void put(int rank, std::uint64_t dst_off, const void* src, std::size_t n,
           bool nbi) {
    note_put(rank);
    obs::Span sp(obs::Cat::kPut, n, static_cast<std::uint32_t>(rank));
    do_put(rank, dst_off, src, n, nbi);
  }
  void get(void* dst, int rank, std::uint64_t src_off, std::size_t n) {
    obs::Span sp(obs::Cat::kGet, n, static_cast<std::uint32_t>(rank));
    do_get(dst, rank, src_off, n);
  }
  /// 1-D strided put/get; strides in elements (shmem_iput conventions).
  void iput(int rank, std::uint64_t dst_off, std::ptrdiff_t dst_stride,
            const void* src, std::ptrdiff_t src_stride, std::size_t elem_bytes,
            std::size_t nelems) {
    note_put(rank);
    obs::Span sp(obs::Cat::kIput, elem_bytes * nelems,
                 static_cast<std::uint32_t>(rank));
    do_iput(rank, dst_off, dst_stride, src, src_stride, elem_bytes, nelems);
  }
  void iget(void* dst, std::ptrdiff_t dst_stride, int rank,
            std::uint64_t src_off, std::ptrdiff_t src_stride,
            std::size_t elem_bytes, std::size_t nelems) {
    obs::Span sp(obs::Cat::kIget, elem_bytes * nelems,
                 static_cast<std::uint32_t>(rank));
    do_iget(dst, dst_stride, rank, src_off, src_stride, elem_bytes, nelems);
  }
  /// Vectored (write-combining) put: packed payload + per-record headers as
  /// one nbi message, scattered at the target. Completion via quiet().
  void put_scatter(int rank, const fabric::ScatterRec* recs, std::size_t nrecs,
                   const void* payload, std::size_t payload_bytes) {
    Tracker& t = note_put(rank);
    ++*t.scatter_msgs;
    obs::Span sp(obs::Cat::kScatter, payload_bytes,
                 static_cast<std::uint32_t>(rank));
    do_put_scatter(rank, recs, nrecs, payload, payload_bytes);
  }
  /// Remote completion of all outstanding puts from this rank. Elided (no
  /// conduit call at all) when the tracker shows nothing in flight — the
  /// "cheap no-op" half of deferred-quiet.
  void quiet() {
    Tracker& t = tracker();
    ++*t.quiet_calls;
    if (t.dirty.empty()) {
      ++*t.quiet_elided;
      return;
    }
    obs::Span sp(obs::Cat::kQuiet, t.dirty.size());
    do_quiet();
    t.dirty.clear();
  }

  /// True when this rank has issued puts to `target` not yet covered by a
  /// quiet().
  bool pending(int target) { return tracker().dirty.contains(target); }
  /// True when any put from this rank is outstanding.
  bool pending_any() { return !tracker().dirty.empty(); }

  // ---- 64-bit remote atomics (non-virtual fronts over the do_amo hook) ----
  std::int64_t amo_swap(int rank, std::uint64_t off, std::int64_t value) {
    return amo(fabric::AmoOp::kSwap, rank, off, value);
  }
  std::int64_t amo_cswap(int rank, std::uint64_t off, std::int64_t cond,
                         std::int64_t value) {
    return amo(fabric::AmoOp::kCompareSwap, rank, off, value, cond);
  }
  std::int64_t amo_fadd(int rank, std::uint64_t off, std::int64_t value) {
    return amo(fabric::AmoOp::kFetchAdd, rank, off, value);
  }
  std::int64_t amo_fand(int rank, std::uint64_t off, std::int64_t mask) {
    return amo(fabric::AmoOp::kFetchAnd, rank, off, mask);
  }
  std::int64_t amo_for(int rank, std::uint64_t off, std::int64_t mask) {
    return amo(fabric::AmoOp::kFetchOr, rank, off, mask);
  }
  std::int64_t amo_fxor(int rank, std::uint64_t off, std::int64_t mask) {
    return amo(fabric::AmoOp::kFetchXor, rank, off, mask);
  }

  // ---- synchronization ----
  /// Blocks until the 64-bit word at `off` in the *local* segment satisfies
  /// cmp/value (woken by remote deliveries; no busy polling), or `epoch`
  /// ends it as in fabric::Domain::wait_until.
  virtual void wait_until(std::uint64_t off, Cmp cmp, std::int64_t value,
                          std::uint64_t epoch = fabric::kNoEpoch) = 0;
  void barrier() {
    obs::Span sp(obs::Cat::kBarrier);
    do_barrier();
  }

  // ---- optional native collectives (Table II: co_broadcast →
  //      shmem_broadcast, co_<op> → shmem_<op>_to_all) ----
  virtual bool has_native_collectives() const { return false; }
  virtual void native_broadcast(std::uint64_t /*off*/, std::size_t /*nbytes*/,
                                int /*root*/) {}
  virtual void native_reduce_f64(std::uint64_t /*off*/, std::size_t /*nelems*/,
                                 ReduceOp /*op*/) {}
  virtual void native_reduce_i64(std::uint64_t /*off*/, std::size_t /*nelems*/,
                                 ReduceOp /*op*/) {}

 protected:
  // ---- RMA hooks implemented by each conduit ----
  virtual void do_put(int rank, std::uint64_t dst_off, const void* src,
                      std::size_t n, bool nbi) = 0;
  virtual void do_get(void* dst, int rank, std::uint64_t src_off,
                      std::size_t n) = 0;
  virtual void do_iput(int rank, std::uint64_t dst_off,
                       std::ptrdiff_t dst_stride, const void* src,
                       std::ptrdiff_t src_stride, std::size_t elem_bytes,
                       std::size_t nelems) = 0;
  virtual void do_iget(void* dst, std::ptrdiff_t dst_stride, int rank,
                       std::uint64_t src_off, std::ptrdiff_t src_stride,
                       std::size_t elem_bytes, std::size_t nelems) = 0;
  /// Default: record-at-a-time nbi puts (no wire-level combining). Conduits
  /// with a vectored native call (shmemx scatter, GASNet access regions,
  /// ARMCI_PutV, MPI datatypes) override for one-message delivery.
  virtual void do_put_scatter(int rank, const fabric::ScatterRec* recs,
                              std::size_t nrecs, const void* payload,
                              std::size_t payload_bytes) {
    const auto* p = static_cast<const std::byte*>(payload);
    for (std::size_t i = 0; i < nrecs; ++i) {
      do_put(rank, recs[i].dst_off, p + recs[i].payload_off, recs[i].len,
             /*nbi=*/true);
    }
    (void)payload_bytes;
  }
  virtual void do_quiet() = 0;

  // ---- atomic / barrier hooks implemented by each conduit ----
  /// The AMO `op` on the word at `off` in `rank`'s segment: `operand` is
  /// the swap/add/mask value, `cond` kCompareSwap's comparand. Returns the
  /// word's old value.
  virtual std::int64_t do_amo(fabric::AmoOp op, int rank, std::uint64_t off,
                              std::int64_t operand, std::int64_t cond) = 0;
  virtual void do_barrier() = 0;

 private:
  std::int64_t amo(fabric::AmoOp op, int rank, std::uint64_t off,
                   std::int64_t operand, std::int64_t cond = 0) {
    obs::Span sp(obs::Cat::kAmo, 8, static_cast<std::uint32_t>(rank));
    return do_amo(op, rank, off, operand, cond);
  }

  /// Per-issuing-rank dirty-target tracking. All images share one Conduit
  /// object per stack, so state is keyed by the calling fiber's rank.
  /// Pipeline counters live in the obs registry under "rma.*" keyed by this
  /// rank; the registry zeroes values in place on reset, so the cached
  /// handles stay valid across back-to-back runs on one stack.
  struct Tracker {
    IndexSet dirty;  ///< targets put to since the last quiet
    std::uint64_t* tracked_puts = nullptr;
    std::uint64_t* scatter_msgs = nullptr;
    std::uint64_t* quiet_calls = nullptr;
    std::uint64_t* quiet_elided = nullptr;
  };

  Tracker& tracker() {
    if (trk_.empty()) trk_.resize(static_cast<std::size_t>(nranks()));
    Tracker& t = trk_[static_cast<std::size_t>(rank())];
    if (t.tracked_puts == nullptr) {
      auto& reg = obs::registry();
      const int r = rank();
      t.tracked_puts = &reg.counter(r, "rma.tracked_puts");
      t.scatter_msgs = &reg.counter(r, "rma.scatter_msgs");
      t.quiet_calls = &reg.counter(r, "rma.quiet_calls");
      t.quiet_elided = &reg.counter(r, "rma.quiet_elided");
    }
    return t;
  }

  Tracker& note_put(int target) {
    Tracker& t = tracker();
    ++*t.tracked_puts;
    t.dirty.insert(target);
    return t;
  }

  std::vector<Tracker> trk_;
};

}  // namespace caf
