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

#include "caf/conduit.hpp"
#include "shmem/world.hpp"

namespace caf {

class ShmemConduit final : public Conduit {
 public:
  explicit ShmemConduit(shmem::World& world)
      : world_(world), seg_bytes_(world.domain().segment_bytes()) {}

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
    if (nbi) {
      world_.putmem_nbi(local_addr(dst_off), src, n, rank);
    } else {
      world_.putmem(local_addr(dst_off), src, n, rank);
    }
  }
  void do_get(void* dst, int rank, std::uint64_t src_off,
              std::size_t n) override {
    world_.getmem(dst, local_addr(src_off), n, rank);
  }
  void do_iput(int rank, std::uint64_t dst_off, std::ptrdiff_t dst_stride,
               const void* src, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override {
    world_.iputmem(local_addr(dst_off), src, dst_stride, src_stride,
                   elem_bytes, nelems, rank);
  }
  void do_iget(void* dst, std::ptrdiff_t dst_stride, int rank,
               std::uint64_t src_off, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override {
    world_.igetmem(dst, local_addr(src_off), dst_stride, src_stride,
                   elem_bytes, nelems, rank);
  }
  void do_put_scatter(int rank, const fabric::ScatterRec* recs,
                      std::size_t nrecs, const void* payload,
                      std::size_t payload_bytes) override {
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

  shmem::World& world_;
  std::size_t seg_bytes_;
};

}  // namespace caf
