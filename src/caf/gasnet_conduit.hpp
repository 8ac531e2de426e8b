// GasnetConduit — the baseline UHCAF communication layer (Table I).
//
// GASNet provides one-sided put/get and active messages but no remote
// atomics and no strided transfers, so:
//
//   * 1-D strided transfers loop contiguous nbi puts / blocking gets in
//     software;
//   * remote atomics are emulated with AM round-trips whose handler
//     executes the read-modify-write on the target CPU (serializing there —
//     the contention behaviour that makes Figure 8's GASNet locks slower);
//   * collective allocation is replayed through a shared log (GASNet has no
//     symmetric allocator; UHCAF manages the segment itself).
#pragma once

#include <memory>
#include <vector>

#include "caf/conduit.hpp"
#include "gasnet/gasnet.hpp"
#include "shmem/heap.hpp"

namespace caf {

class GasnetConduit final : public Conduit {
 public:
  explicit GasnetConduit(gasnet::World& world);

  int rank() const override { return world_.mynode(); }
  int nranks() const override { return world_.nodes(); }
  std::byte* segment(int rank) override { return world_.seg(rank); }
  std::size_t segment_bytes() const override { return seg_bytes_; }
  const net::SwProfile& sw() const override { return world_.domain().sw(); }
  sim::Engine& engine() override { return world_.engine(); }
  bool hw_strided() const override { return false; }
  bool native_amo() const override { return false; }

  std::uint64_t allocate(std::size_t bytes) override;
  void deallocate(std::uint64_t offset) override;

  void poke(int rank, std::uint64_t off, const void* src, std::size_t n,
            sim::Time t) override {
    world_.domain().poke(rank, off, src, n, t);
  }

  std::int64_t do_amo(fabric::AmoOp op, int rank, std::uint64_t off,
                      std::int64_t operand, std::int64_t cond) override;

  void wait_until(std::uint64_t off, Cmp cmp, std::int64_t value,
                  std::uint64_t epoch) override {
    world_.block_until(off, cmp, value, epoch);
  }
  void do_barrier() override { world_.barrier(); }

  fabric::Domain* rma_domain() override { return &world_.domain(); }

  gasnet::World& world() { return world_; }

 protected:
  void do_put(int rank, std::uint64_t dst_off, const void* src, std::size_t n,
              bool nbi) override {
    if (nbi) {
      world_.put_nbi(rank, dst_off, src, n);
    } else {
      // UHCAF-over-GASNet uses nbi puts for RMA and syncs at fences; the
      // blocking flavour here still has only local-completion semantics to
      // match the SHMEM conduit's putmem (CAF inserts quiet itself).
      world_.put_nbi(rank, dst_off, src, n);
      // Charge the blocking call's extra bookkeeping.
      world_.engine().advance(sw().put_overhead - sw().per_msg_gap);
    }
  }
  void do_get(void* dst, int rank, std::uint64_t src_off,
              std::size_t n) override {
    world_.get(dst, rank, src_off, n);
  }
  void do_iput(int rank, std::uint64_t dst_off, std::ptrdiff_t dst_stride,
               const void* src, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override;
  void do_iget(void* dst, std::ptrdiff_t dst_stride, int rank,
               std::uint64_t src_off, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems) override;
  void do_put_scatter(int rank, const fabric::ScatterRec* recs,
                      std::size_t nrecs, const void* payload,
                      std::size_t payload_bytes) override {
    world_.put_scatter_nbi(rank, recs, nrecs, payload, payload_bytes);
  }
  void do_quiet() override { world_.wait_syncnbi_puts(); }

 private:
  gasnet::World& world_;
  std::size_t seg_bytes_;
  int amo_handler_ = -1;

  // Shared collective-allocation replay log (same discipline as shmalloc).
  shmem::FreeListAllocator allocator_;
  struct AllocOp {
    bool is_free;
    std::uint64_t arg;
    std::uint64_t result;  // offset, or kAllocFailed when the alloc failed
  };
  static constexpr std::uint64_t kAllocFailed = ~std::uint64_t{0};
  std::vector<AllocOp> alloc_log_;
  std::vector<std::size_t> alloc_cursor_;
};

}  // namespace caf
