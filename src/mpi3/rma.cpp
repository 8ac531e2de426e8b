#include "mpi3/rma.hpp"

#include <cassert>
#include <stdexcept>

namespace mpi3 {

Window::Window(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
               std::size_t win_bytes)
    : engine_(engine) {
  if (win_bytes <= reserved_bytes()) {
    throw std::invalid_argument("mpi3::Window: window too small");
  }
  domain_ = std::make_unique<fabric::Domain>(engine, fabric, std::move(sw),
                                             win_bytes);
  barrier_gen_.assign(domain_->npes(), 0);
  const std::uint64_t base = (reserved_bytes() + 15) & ~std::uint64_t{15};
  allocator_ = std::make_unique<shmem::FreeListAllocator>(base,
                                                          win_bytes - base);
  alloc_cursor_.assign(domain_->npes(), 0);
}

Window::~Window() = default;

void Window::launch(std::function<void()> rank_main) {
  for (int r = 0; r < size(); ++r) engine_.spawn(r, rank_main);
}

int Window::rank() const {
  sim::Fiber* f = engine_.current_fiber();
  assert(f != nullptr);
  return f->pe();
}

void Window::put(const void* origin, std::size_t n, int target_rank,
                 std::uint64_t target_off) {
  domain_->put(target_rank, target_off, origin, n, /*pipelined=*/false);
}

void Window::get(void* origin, std::size_t n, int target_rank,
                 std::uint64_t target_off) {
  domain_->get(origin, target_rank, target_off, n);
}

void Window::put_scatter(const fabric::ScatterRec* recs, std::size_t nrecs,
                         const void* payload, std::size_t payload_bytes,
                         int target_rank) {
  // A single MPI_Put with an indexed datatype pays one call overhead, not
  // one per record — model it as one non-pipelined injection.
  domain_->put_scatter(target_rank, recs, nrecs, payload, payload_bytes,
                       /*pipelined=*/false);
}

std::int64_t Window::fetch_and_op_sum(std::int64_t operand, int target_rank,
                                      std::uint64_t target_off) {
  return static_cast<std::int64_t>(
      domain_->amo(fabric::AmoOp::kFetchAdd, target_rank, target_off,
                   static_cast<std::uint64_t>(operand)));
}

std::int64_t Window::compare_and_swap(std::int64_t compare, std::int64_t value,
                                      int target_rank,
                                      std::uint64_t target_off) {
  return static_cast<std::int64_t>(
      domain_->amo(fabric::AmoOp::kCompareSwap, target_rank, target_off,
                   static_cast<std::uint64_t>(value),
                   static_cast<std::uint64_t>(compare)));
}

void Window::flush_all() { domain_->quiet(); }

std::uint64_t Window::allocate_collective(std::size_t bytes) {
  const int me = rank();
  const std::size_t cursor = alloc_cursor_[me];
  if (cursor == alloc_log_.size()) {
    auto got = allocator_->allocate(bytes);
    // Failures are logged too (result = kAllocFailed) so replaying ranks
    // observe the same failure at the same op index; later, smaller
    // allocations still succeed.
    alloc_log_.push_back({false, bytes, got ? *got : kAllocFailed});
  }
  alloc_cursor_[me] = cursor + 1;
  const AllocOp op = alloc_log_[cursor];  // copy: log grows during barrier
  if (op.is_free || op.arg != bytes) {
    throw std::logic_error("mpi3 allocate: collective mismatch");
  }
  if (op.result == kAllocFailed) {
    throw shmem::HeapExhaustedError("mpi3 allocate", bytes,
                                    allocator_->bytes_in_use(),
                                    allocator_->capacity());
  }
  barrier();
  return op.result;
}

void Window::free_collective(std::uint64_t off) {
  const std::size_t cursor = alloc_cursor_[rank()]++;
  if (cursor == alloc_log_.size()) {
    allocator_->release(off);
    alloc_log_.push_back({true, off, 0});
  }
  const AllocOp op = alloc_log_[cursor];
  if (!op.is_free || op.arg != off) {
    throw std::logic_error("mpi3 free: collective mismatch");
  }
  barrier();
}

void Window::barrier() {
  const int me = rank();
  const int n = size();
  if (n == 1) return;
  // The round flags sit at the base of the reserved prefix.
  domain_->barrier(me, {0, 0, n}, 0, ++barrier_gen_[me],
                   domain_->put_flags(/*pipelined=*/false), "mpi3_wait_until");
}

}  // namespace mpi3
