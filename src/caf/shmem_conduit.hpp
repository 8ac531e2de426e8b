// ShmemConduit — the paper's contribution: CAF's runtime needs mapped
// directly onto the OpenSHMEM API (Table II).
//
//   allocate            → shmalloc            (collective, implicit barrier)
//   put/get             → shmem_putmem/getmem
//   1-D strided         → shmem_iput/iget     (vendor decides HW vs loop)
//   quiet               → shmem_quiet
//   atomics             → shmem_swap/cswap/fadd/and/or/xor
//   wait                → shmem_wait_until
//   barrier             → shmem_barrier_all
//   co_broadcast/co_op  → shmem_broadcast / shmem_<op>_to_all
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "caf/conduit.hpp"
#include "shmem/world.hpp"

namespace caf {

class ShmemConduit final : public Conduit {
 public:
  explicit ShmemConduit(shmem::World& world)
      : world_(world), seg_bytes_(world.domain().segment_bytes()) {}

  /// Enables the §VII future-work optimization: co-indexed accesses to
  /// images on the caller's node go through shmem_ptr as direct load/store
  /// (a host memcpy at intra-node copy bandwidth) instead of the library's
  /// put/get path.
  void set_intra_node_direct(bool on) { intra_node_direct_ = on; }
  bool intra_node_direct() const { return intra_node_direct_; }

  int rank() const override { return world_.my_pe(); }
  int nranks() const override { return world_.n_pes(); }
  std::byte* segment(int rank) override { return world_.domain().segment(rank); }
  std::size_t segment_bytes() const override { return seg_bytes_; }
  const net::SwProfile& sw() const override { return world_.sw(); }
  sim::Engine& engine() override { return world_.engine(); }
  bool hw_strided() const override { return world_.sw().hw_strided; }
  bool native_amo() const override { return world_.sw().nic_amo; }

  std::uint64_t allocate(std::size_t bytes) override {
    void* p = world_.shmalloc(bytes);
    return world_.offset_of(p);
  }
  void deallocate(std::uint64_t offset) override {
    world_.shfree(local_addr(offset));
  }

  void poke(int rank, std::uint64_t off, const void* src, std::size_t n,
            sim::Time t) override {
    world_.domain().poke(rank, off, src, n, t);
  }

  std::int64_t do_amo(fabric::AmoOp op, int rank, std::uint64_t off,
                      std::int64_t operand, std::int64_t cond) override {
    // offset_of checks the word lies in the symmetric heap, as the
    // shmem_<amo> calls do.
    return static_cast<std::int64_t>(world_.domain().amo(
        op, rank, world_.offset_of(i64_addr(off)),
        static_cast<std::uint64_t>(operand), static_cast<std::uint64_t>(cond)));
  }

  void wait_until(std::uint64_t off, Cmp cmp, std::int64_t value,
                  std::uint64_t epoch) override {
    world_.wait_until(i64_addr(off), cmp, value, epoch);
  }
  void do_barrier() override { world_.barrier_all(); }

  bool direct_reachable(int target) override {
    return (intra_node_direct_ && world_.ptr(local_addr(0), target) != nullptr) ||
           node_transport_reachable(target);
  }

  fabric::Domain* rma_domain() override { return &world_.domain(); }

  bool has_native_collectives() const override { return true; }
  void native_broadcast(std::uint64_t off, std::size_t nbytes,
                        int root) override {
    world_.broadcast(local_addr(off), nbytes, root);
  }
  void native_reduce_f64(std::uint64_t off, std::size_t nelems,
                         ReduceOp op) override {
    auto* p = reinterpret_cast<double*>(local_addr(off));
    world_.reduce(p, p, nelems, op);
  }
  void native_reduce_i64(std::uint64_t off, std::size_t nelems,
                         ReduceOp op) override {
    auto* p = reinterpret_cast<std::int64_t*>(local_addr(off));
    world_.reduce(p, p, nelems, op);
  }

  shmem::World& world() { return world_; }

 protected:
  void do_put(int rank, std::uint64_t dst_off, const void* src, std::size_t n,
              bool nbi) override {
    if (intra_node_direct_ && direct_store(rank, dst_off, src, n)) return;
    if (nbi) {
      world_.putmem_nbi(local_addr(dst_off), src, n, rank);
    } else {
      world_.putmem(local_addr(dst_off), src, n, rank);
    }
  }
  void do_get(void* dst, int rank, std::uint64_t src_off,
              std::size_t n) override {
    if (intra_node_direct_) {
      if (const void* p = world_.ptr(local_addr(src_off), rank)) {
        world_.engine().advance(direct_copy_cost(n));
        std::memcpy(dst, p, n);
        DirectCounters& t = direct_tele(world_.my_pe());
        ++*t.gets;
        ++*t.elided_msgs;
        *t.elided_bytes += n;
        return;
      }
    }
    world_.getmem(dst, local_addr(src_off), n, rank);
  }
  void do_iput(int rank, std::uint64_t dst_off, std::ptrdiff_t dst_stride,
               const void* src, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override {
    if (intra_node_direct_ && nelems > 0 &&
        world_.ptr(local_addr(dst_off), rank) != nullptr) {
      {
        world_.engine().advance(direct_strided_cost(elem_bytes, nelems));
        const auto* s = static_cast<const std::byte*>(src);
        const sim::Time now = world_.engine().now();
        const std::int64_t eb = static_cast<std::int64_t>(elem_bytes);
        for (std::size_t i = 0; i < nelems; ++i) {
          const std::int64_t k = static_cast<std::int64_t>(i);
          // poke (not a bare store) so wait_until watchers see each element.
          world_.domain().poke(
              rank, dst_off + static_cast<std::uint64_t>(dst_stride * eb * k),
              s + src_stride * eb * k, elem_bytes, now);
        }
        DirectCounters& t = direct_tele(world_.my_pe());
        ++*t.iputs;
        *t.elided_msgs += hw_strided() ? 1 : nelems;
        *t.elided_bytes += elem_bytes * nelems;
        return;
      }
    }
    world_.iputmem(local_addr(dst_off), src, dst_stride, src_stride,
                   elem_bytes, nelems, rank);
  }
  void do_iget(void* dst, std::ptrdiff_t dst_stride, int rank,
               std::uint64_t src_off, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override {
    if (intra_node_direct_ && nelems > 0) {
      if (const auto* p = static_cast<const std::byte*>(
              world_.ptr(local_addr(src_off), rank))) {
        world_.engine().advance(direct_strided_cost(elem_bytes, nelems));
        auto* d = static_cast<std::byte*>(dst);
        const std::int64_t eb = static_cast<std::int64_t>(elem_bytes);
        for (std::size_t i = 0; i < nelems; ++i) {
          const std::int64_t k = static_cast<std::int64_t>(i);
          std::memcpy(d + dst_stride * eb * k, p + src_stride * eb * k,
                      elem_bytes);
        }
        DirectCounters& t = direct_tele(world_.my_pe());
        ++*t.igets;
        *t.elided_msgs += hw_strided() ? 1 : nelems;
        *t.elided_bytes += elem_bytes * nelems;
        return;
      }
    }
    world_.igetmem(dst, local_addr(src_off), dst_stride, src_stride,
                   elem_bytes, nelems, rank);
  }
  void do_put_scatter(int rank, const fabric::ScatterRec* recs,
                      std::size_t nrecs, const void* payload,
                      std::size_t payload_bytes) override {
    if (intra_node_direct_ && nrecs > 0 &&
        world_.ptr(local_addr(0), rank) != nullptr) {
      world_.engine().advance(direct_copy_cost(payload_bytes) +
                              static_cast<sim::Time>(nrecs) * kDirectElemGap);
      const auto* p = static_cast<const std::byte*>(payload);
      const sim::Time now = world_.engine().now();
      for (std::size_t i = 0; i < nrecs; ++i) {
        world_.domain().poke(rank, recs[i].dst_off, p + recs[i].payload_off,
                             recs[i].len, now);
      }
      DirectCounters& t = direct_tele(world_.my_pe());
      ++*t.scatters;
      ++*t.elided_msgs;  // the write-combined message itself stays off the wire
      *t.elided_bytes += payload_bytes;
      return;
    }
    world_.putmem_scatter_nbi(rank, recs, nrecs, payload, payload_bytes);
  }
  void do_quiet() override { world_.quiet(); }

 private:
  std::byte* local_addr(std::uint64_t off) {
    return world_.domain().segment(world_.my_pe()) + off;
  }
  std::int64_t* i64_addr(std::uint64_t off) {
    return reinterpret_cast<std::int64_t*>(local_addr(off));
  }

  /// Per-element issue cost of a direct strided/scatter store stream (the
  /// loop-carried address arithmetic; no NIC, no library call).
  static constexpr sim::Time kDirectElemGap = 2;

  sim::Time direct_copy_cost(std::size_t n) const {
    // A cache-coherent store stream: ~20 ns issue plus copy bandwidth.
    return 20 + sim::from_ns(static_cast<double>(n) /
                             world_.domain().fabric().profile().local_bytes_per_ns);
  }

  sim::Time direct_strided_cost(std::size_t elem_bytes,
                                std::size_t nelems) const {
    return direct_copy_cost(elem_bytes * nelems) +
           static_cast<sim::Time>(nelems) * kDirectElemGap;
  }

  /// Same-node put through shmem_ptr: advance the clock by the copy cost,
  /// then store directly (poke wakes the waiters).
  bool direct_store(int rank, std::uint64_t dst_off, const void* src,
                    std::size_t n) {
    if (world_.ptr(local_addr(dst_off), rank) == nullptr) return false;
    world_.engine().advance(direct_copy_cost(n));
    world_.domain().poke(rank, dst_off, src, n, world_.engine().now());
    DirectCounters& t = direct_tele(world_.my_pe());
    ++*t.puts;
    ++*t.elided_msgs;
    *t.elided_bytes += n;
    return true;
  }

  /// Cached registry handles for the shmem_ptr direct load/store path
  /// ("direct.*" counters, keyed by rank): how often each operation class
  /// short-circuited the library, and how many network messages that elided
  /// (strided ops count per-element messages unless hardware-strided).
  struct DirectCounters {
    std::uint64_t* puts = nullptr;
    std::uint64_t* gets = nullptr;
    std::uint64_t* iputs = nullptr;
    std::uint64_t* igets = nullptr;
    std::uint64_t* scatters = nullptr;
    std::uint64_t* elided_msgs = nullptr;
    std::uint64_t* elided_bytes = nullptr;
  };

  DirectCounters& direct_tele(int rank) {
    if (direct_tele_.empty()) {
      direct_tele_.resize(static_cast<std::size_t>(world_.n_pes()));
    }
    DirectCounters& t = direct_tele_[static_cast<std::size_t>(rank)];
    if (t.puts == nullptr) {
      auto& reg = obs::registry();
      t.puts = &reg.counter(rank, "direct.puts");
      t.gets = &reg.counter(rank, "direct.gets");
      t.iputs = &reg.counter(rank, "direct.iputs");
      t.igets = &reg.counter(rank, "direct.igets");
      t.scatters = &reg.counter(rank, "direct.scatters");
      t.elided_msgs = &reg.counter(rank, "direct.elided_msgs");
      t.elided_bytes = &reg.counter(rank, "direct.elided_bytes");
    }
    return t;
  }

  shmem::World& world_;
  std::size_t seg_bytes_;
  bool intra_node_direct_ = false;
  std::vector<DirectCounters> direct_tele_;
};

}  // namespace caf
