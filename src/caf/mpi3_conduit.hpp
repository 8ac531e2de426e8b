// Mpi3Conduit — a CAF runtime over MPI-3.0 one-sided communication.
//
// Table I lists two CAF implementations on MPI (Rice CAF 2.0 and Intel's),
// and the paper's related work (§VI, Yang et al. [24]) discusses the
// MPI-interoperable port in depth. This conduit maps the runtime onto the
// mpi3::Window passive-target subset:
//
//   put/get  → MPI_Put / MPI_Get (+ MPI_Win_flush_all for quiet);
//   atomics  → MPI_Fetch_and_op / MPI_Compare_and_swap (MPI-3 has the full
//              set natively, unlike GASNet or ARMCI);
//   1-D strided → software loop of MPI_Put/Get (a real implementation would
//              use datatypes; the per-op software overhead — the very thing
//              Figure 2 charges MPI for — dominates either way);
//   barrier  → MPI_Barrier.
#pragma once

#include "caf/conduit.hpp"
#include "mpi3/rma.hpp"

namespace caf {

class Mpi3Conduit final : public Conduit {
 public:
  explicit Mpi3Conduit(mpi3::Window& win)
      : win_(win), seg_bytes_(win.domain().segment_bytes()) {}

  int rank() const override { return win_.rank(); }
  int nranks() const override { return win_.size(); }
  std::byte* segment(int rank) override { return win_.base(rank); }
  std::size_t segment_bytes() const override { return seg_bytes_; }
  const net::SwProfile& sw() const override { return win_.domain().sw(); }
  sim::Engine& engine() override { return win_.engine(); }
  bool hw_strided() const override { return false; }
  bool native_amo() const override { return true; }

  std::uint64_t allocate(std::size_t bytes) override {
    return win_.allocate_collective(bytes);
  }
  void deallocate(std::uint64_t offset) override {
    win_.free_collective(offset);
  }

  void poke(int rank, std::uint64_t off, const void* src, std::size_t n,
            sim::Time t) override {
    win_.domain().poke(rank, off, src, n, t);
  }

  fabric::Domain* rma_domain() override { return &win_.domain(); }

  // MPI_Fetch_and_op / MPI_Compare_and_swap: native on the window.
  std::int64_t do_amo(fabric::AmoOp op, int rank, std::uint64_t off,
                      std::int64_t operand, std::int64_t cond) override {
    return static_cast<std::int64_t>(win_.domain().amo(
        op, rank, off, static_cast<std::uint64_t>(operand),
        static_cast<std::uint64_t>(cond)));
  }

  void wait_until(std::uint64_t off, Cmp cmp, std::int64_t value,
                  std::uint64_t epoch) override {
    win_.wait_until_local(off, cmp, value, epoch);
  }
  void do_barrier() override { win_.barrier(); }

  mpi3::Window& window() { return win_; }

 protected:
  void do_put(int rank, std::uint64_t dst_off, const void* src, std::size_t n,
              bool /*nbi*/) override {
    // MPI_Put is always "nbi" (origin completion at flush); the simulated
    // Window charges the blocking-issue overhead either way, matching the
    // per-op software cost Figure 2 measures.
    win_.put(src, n, rank, dst_off);
  }
  void do_get(void* dst, int rank, std::uint64_t src_off,
              std::size_t n) override {
    win_.get(dst, n, rank, src_off);
  }
  void do_iput(int rank, std::uint64_t dst_off, std::ptrdiff_t dst_stride,
               const void* src, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override {
    const auto* s = static_cast<const std::byte*>(src);
    for (std::size_t i = 0; i < nelems; ++i) {
      win_.put(s + static_cast<std::ptrdiff_t>(i) * src_stride *
                       static_cast<std::ptrdiff_t>(elem_bytes),
               elem_bytes, rank,
               dst_off + i * static_cast<std::uint64_t>(dst_stride) *
                             elem_bytes);
    }
  }
  void do_iget(void* dst, std::ptrdiff_t dst_stride, int rank,
               std::uint64_t src_off, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override {
    auto* d = static_cast<std::byte*>(dst);
    for (std::size_t i = 0; i < nelems; ++i) {
      win_.get(d + static_cast<std::ptrdiff_t>(i) * dst_stride *
                       static_cast<std::ptrdiff_t>(elem_bytes),
               elem_bytes, rank,
               src_off + i * static_cast<std::uint64_t>(src_stride) *
                             elem_bytes);
    }
  }
  void do_put_scatter(int rank, const fabric::ScatterRec* recs,
                      std::size_t nrecs, const void* payload,
                      std::size_t payload_bytes) override {
    win_.put_scatter(recs, nrecs, payload, payload_bytes, rank);
  }
  void do_quiet() override { win_.flush_all(); }

 private:
  mpi3::Window& win_;
  std::size_t seg_bytes_;
};

}  // namespace caf
