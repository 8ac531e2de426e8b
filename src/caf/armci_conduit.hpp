// ArmciConduit — UHCAF over ARMCI (the runtime's other conduit, Table I).
//
// Mapping notes versus the SHMEM and GASNet conduits:
//
//   * 1-D strided RMA maps to ARMCI_PutS/GetS with one stride level — the
//     library aggregates the runs in software (pipelined injections), so it
//     behaves between MVAPICH2-X SHMEM's blocking-put loop and a hardware
//     scatter;
//   * ARMCI_Rmw provides only fetch-add and swap natively; compare-and-swap
//     and the bitwise atomics are emulated inside a conduit-internal ARMCI
//     mutex hosted on the target process. This keeps the MCS lock (which
//     needs cswap on release) correct over ARMCI, at an honest extra cost —
//     which is part of why the paper's OpenSHMEM port is attractive;
//   * allocation maps to the collective ARMCI_Malloc.
#pragma once

#include <vector>

#include "armci/armci.hpp"
#include "caf/conduit.hpp"

namespace caf {

class ArmciConduit final : public Conduit {
 public:
  explicit ArmciConduit(armci::World& world);

  int rank() const override { return world_.me(); }
  int nranks() const override { return world_.nproc(); }
  std::byte* segment(int rank) override { return world_.base(rank); }
  std::size_t segment_bytes() const override { return seg_bytes_; }
  const net::SwProfile& sw() const override { return world_.domain().sw(); }
  sim::Engine& engine() override { return world_.engine(); }
  bool hw_strided() const override { return false; }
  bool native_amo() const override { return false; }

  void post_init() override {
    if (rmw_mutex_ < 0) {
      world_.create_mutexes(1);
      rmw_mutex_ = 0;
    }
  }

  std::uint64_t allocate(std::size_t bytes) override {
    return world_.malloc_collective(bytes);
  }
  void deallocate(std::uint64_t offset) override {
    world_.free_collective(offset);
  }

  void poke(int rank, std::uint64_t off, const void* src, std::size_t n,
            sim::Time t) override {
    world_.domain().poke(rank, off, src, n, t);
  }

  // ARMCI_Rmw only offers fetch-add and swap. The CAF runtime mixes swap,
  // fetch-add, and compare-swap on the SAME words (the MCS tail), and a
  // native Rmw is not atomic with respect to a mutex-emulated one — so ALL
  // conduit atomics are serialized through the per-process emulation mutex.
  // This honest cost is part of why the paper prefers OpenSHMEM's AMO set.
  std::int64_t do_amo(fabric::AmoOp op, int rank, std::uint64_t off,
                      std::int64_t operand, std::int64_t cond) override;

  void wait_until(std::uint64_t off, Cmp cmp, std::int64_t value,
                  std::uint64_t epoch) override {
    world_.wait_until_local(off, cmp, value, epoch);
  }
  void do_barrier() override { world_.barrier(); }

  fabric::Domain* rma_domain() override { return &world_.domain(); }

  armci::World& world() { return world_; }

 protected:
  void do_put(int rank, std::uint64_t dst_off, const void* src, std::size_t n,
              bool nbi) override {
    if (nbi) {
      world_.nb_put(rank, dst_off, src, n);
    } else {
      world_.put(rank, dst_off, src, n);
    }
  }
  void do_get(void* dst, int rank, std::uint64_t src_off,
              std::size_t n) override {
    world_.get(dst, rank, src_off, n);
  }
  void do_iput(int rank, std::uint64_t dst_off, std::ptrdiff_t dst_stride,
               const void* src, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override {
    armci::StridedDesc d;
    d.stride_levels = 1;
    d.counts[0] = static_cast<std::int64_t>(elem_bytes);
    d.counts[1] = static_cast<std::int64_t>(nelems);
    d.src_strides[0] = src_stride * static_cast<std::ptrdiff_t>(elem_bytes);
    d.dst_strides[0] = dst_stride * static_cast<std::ptrdiff_t>(elem_bytes);
    world_.puts(rank, dst_off, src, d);
  }
  void do_iget(void* dst, std::ptrdiff_t dst_stride, int rank,
               std::uint64_t src_off, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override {
    armci::StridedDesc d;
    d.stride_levels = 1;
    d.counts[0] = static_cast<std::int64_t>(elem_bytes);
    d.counts[1] = static_cast<std::int64_t>(nelems);
    d.src_strides[0] = src_stride * static_cast<std::ptrdiff_t>(elem_bytes);
    d.dst_strides[0] = dst_stride * static_cast<std::ptrdiff_t>(elem_bytes);
    world_.gets(dst, rank, src_off, d);
  }
  void do_put_scatter(int rank, const fabric::ScatterRec* recs,
                      std::size_t nrecs, const void* payload,
                      std::size_t payload_bytes) override {
    world_.putv(rank, recs, nrecs, payload, payload_bytes);
  }
  void do_quiet() override { world_.all_fence(); }

 private:
  armci::World& world_;
  std::size_t seg_bytes_;
  int rmw_mutex_ = -1;  // conduit-internal mutex index (one per process)
};

}  // namespace caf
