#include "armci/armci.hpp"

#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "shmem/heap.hpp"

namespace armci {

World::World(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
             std::size_t seg_bytes)
    : engine_(engine) {
  if (seg_bytes <= reserved_bytes()) {
    throw std::invalid_argument("armci::World: segment too small");
  }
  domain_ = std::make_unique<fabric::Domain>(engine, fabric, std::move(sw),
                                             seg_bytes);
  const std::uint64_t base = (reserved_bytes() + 15) & ~std::uint64_t{15};
  alloc_bump_ = base;
  allocator_ = std::make_unique<shmem::FreeListAllocator>(base,
                                                          seg_bytes - base);
  alloc_cursor_.assign(domain_->npes(), 0);
  barrier_gen_.assign(domain_->npes(), 0);
  mutex_created_.assign(domain_->npes(), 0);
}

World::~World() = default;

void World::launch(std::function<void()> proc_main) {
  for (int p = 0; p < nproc(); ++p) engine_.spawn(p, proc_main);
}

int World::me() const {
  sim::Fiber* f = engine_.current_fiber();
  assert(f != nullptr && "armci calls require a process fiber context");
  return f->pe();
}

std::uint64_t World::malloc_collective(std::size_t bytes) {
  const int r = me();
  const std::size_t cursor = alloc_cursor_[r];
  if (cursor == alloc_log_.size()) {
    auto got = allocator_->allocate(bytes);
    // Failures are logged too (result = kAllocFailed) so replaying ranks
    // observe the same failure at the same op index; later, smaller
    // allocations still succeed.
    alloc_log_.push_back({false, bytes, got ? *got : kAllocFailed});
  }
  alloc_cursor_[r] = cursor + 1;
  const AllocOp op = alloc_log_[cursor];  // copy: log grows during barrier
  if (op.is_free || op.arg != bytes) {
    throw std::logic_error("ARMCI_Malloc: collective mismatch");
  }
  if (op.result == kAllocFailed) {
    throw shmem::HeapExhaustedError("ARMCI_Malloc", bytes,
                                    allocator_->bytes_in_use(),
                                    allocator_->capacity());
  }
  barrier();
  return op.result;
}

void World::free_collective(std::uint64_t off) {
  const std::size_t cursor = alloc_cursor_[me()]++;
  if (cursor == alloc_log_.size()) {
    allocator_->release(off);
    alloc_log_.push_back({true, off, 0});
  }
  const AllocOp op = alloc_log_[cursor];
  if (!op.is_free || op.arg != off) {
    throw std::logic_error("ARMCI_Free: collective mismatch");
  }
  barrier();
}

void World::put(int proc, std::uint64_t dst_off, const void* src,
                std::size_t n) {
  domain_->put(proc, dst_off, src, n, /*pipelined=*/false);
}

void World::nb_put(int proc, std::uint64_t dst_off, const void* src,
                   std::size_t n) {
  domain_->put(proc, dst_off, src, n, /*pipelined=*/true);
}

void World::putv(int proc, const fabric::ScatterRec* recs, std::size_t nrecs,
                 const void* payload, std::size_t payload_bytes) {
  domain_->put_scatter(proc, recs, nrecs, payload, payload_bytes,
                       /*pipelined=*/true);
}

void World::get(void* dst, int proc, std::uint64_t src_off, std::size_t n) {
  domain_->get(dst, proc, src_off, n);
}

void World::puts(int proc, std::uint64_t dst_off, const void* src,
                 const StridedDesc& d) {
  // ARMCI software aggregation: walk the patch's contiguous runs (counts[0]
  // bytes each) and pipeline one nb injection per run.
  if (d.stride_levels == 0) {
    put(proc, dst_off, src, static_cast<std::size_t>(d.counts[0]));
    return;
  }
  std::array<std::int64_t, kMaxStridedDims> idx{};
  const auto* s = static_cast<const std::byte*>(src);
  std::int64_t runs = 1;
  for (int l = 1; l <= d.stride_levels; ++l) runs *= d.counts[l];
  for (std::int64_t r = 0; r < runs; ++r) {
    std::int64_t soff = 0;
    std::int64_t doff = 0;
    for (int l = 1; l <= d.stride_levels; ++l) {
      soff += idx[l] * d.src_strides[l - 1];
      doff += idx[l] * d.dst_strides[l - 1];
    }
    domain_->put(proc, dst_off + static_cast<std::uint64_t>(doff), s + soff,
                 static_cast<std::size_t>(d.counts[0]), /*pipelined=*/true);
    for (int l = 1; l <= d.stride_levels; ++l) {
      if (++idx[l] < d.counts[l]) break;
      idx[l] = 0;
    }
  }
  // ARMCI_PutS is blocking: local completion of every run.
}

void World::gets(void* dst, int proc, std::uint64_t src_off,
                 const StridedDesc& d) {
  if (d.stride_levels == 0) {
    get(dst, proc, src_off, static_cast<std::size_t>(d.counts[0]));
    return;
  }
  std::array<std::int64_t, kMaxStridedDims> idx{};
  auto* dd = static_cast<std::byte*>(dst);
  std::int64_t runs = 1;
  for (int l = 1; l <= d.stride_levels; ++l) runs *= d.counts[l];
  for (std::int64_t r = 0; r < runs; ++r) {
    std::int64_t soff = 0;
    std::int64_t doff = 0;
    for (int l = 1; l <= d.stride_levels; ++l) {
      soff += idx[l] * d.src_strides[l - 1];
      doff += idx[l] * d.dst_strides[l - 1];
    }
    domain_->get(dd + doff, proc, src_off + static_cast<std::uint64_t>(soff),
                 static_cast<std::size_t>(d.counts[0]));
    for (int l = 1; l <= d.stride_levels; ++l) {
      if (++idx[l] < d.counts[l]) break;
      idx[l] = 0;
    }
  }
}

std::int64_t World::rmw_fetch_add(int proc, std::uint64_t off, std::int64_t v) {
  return static_cast<std::int64_t>(
      domain_->amo(fabric::AmoOp::kFetchAdd, proc, off,
                   static_cast<std::uint64_t>(v)));
}

std::int64_t World::rmw_swap(int proc, std::uint64_t off, std::int64_t v) {
  return static_cast<std::int64_t>(domain_->amo(
      fabric::AmoOp::kSwap, proc, off, static_cast<std::uint64_t>(v)));
}

void World::fence(int /*proc*/) {
  // Per-destination fences are modeled at full strength (see DESIGN.md on
  // fence == quiet).
  domain_->quiet();
}

void World::all_fence() { domain_->quiet(); }

int World::create_mutexes(int count) {
  // Collective: every process calls once.
  if (mutex_created_[me()]) {
    throw std::logic_error("ARMCI_Create_mutexes: already created");
  }
  mutex_created_[me()] = 1;
  mutex_off_ = malloc_collective(static_cast<std::size_t>(count) *
                                 sizeof(std::int64_t));
  std::memset(domain_->segment(me()) + mutex_off_, 0,
              static_cast<std::size_t>(count) * sizeof(std::int64_t));
  mutexes_ = count;
  barrier();
  return 0;
}

void World::lock(int mutex, int proc) {
  assert(mutex >= 0 && mutex < mutexes_);
  // Packed ticket mutex, like ARMCI's default implementation: fetch-add a
  // ticket, then poll remotely with backoff.
  constexpr std::int64_t kTicketOne = std::int64_t{1} << 32;
  const std::uint64_t off =
      mutex_off_ + static_cast<std::uint64_t>(mutex) * sizeof(std::int64_t);
  const std::int64_t grabbed = rmw_fetch_add(proc, off, kTicketOne);
  const std::int64_t my_ticket = grabbed >> 32;
  std::int64_t serving = grabbed & 0xffffffff;
  while (serving != my_ticket) {
    engine_.advance(2'000 * std::max<std::int64_t>(1, my_ticket - serving));
    serving = rmw_fetch_add(proc, off, 0) & 0xffffffff;
  }
}

void World::unlock(int mutex, int proc) {
  assert(mutex >= 0 && mutex < mutexes_);
  const std::uint64_t off =
      mutex_off_ + static_cast<std::uint64_t>(mutex) * sizeof(std::int64_t);
  (void)rmw_fetch_add(proc, off, 1);
}

void World::barrier() {
  const int r = me();
  const int n = nproc();
  if (n == 1) return;
  domain_->quiet();
  domain_->barrier(r, {0, 0, n}, barrier_flags_off_, ++barrier_gen_[r],
                   domain_->put_flags(/*pipelined=*/true), "armci_wait_until");
}

}  // namespace armci
