#include "shmem/world.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace shmem {

struct World::CollectiveState {
  std::int64_t barrier_gen = 0;
  std::int64_t bcast_gen = 0;
  std::int64_t reduce_gen = 0;
};

World::World(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
             std::size_t heap_bytes)
    : engine_(engine) {
  // Internal symmetric layout at the base of every segment.
  std::uint64_t off = 0;
  barrier_flags_off_ = off;
  off += kMaxRounds * sizeof(std::int64_t);
  bcast_flag_off_ = off;
  off += sizeof(std::int64_t);
  reduce_flags_off_ = off;
  off += kMaxRounds * sizeof(std::int64_t);
  reduce_slots_off_ = off;
  off += kMaxRounds * kReduceSlotBytes;
  internal_bytes_ = (off + 15) & ~std::uint64_t{15};
  if (heap_bytes <= internal_bytes_) {
    throw std::invalid_argument(
        "shmem::World: heap too small for internal collective state (need > " +
        std::to_string(internal_bytes_) + " bytes)");
  }

  domain_ = std::make_unique<fabric::Domain>(engine, fabric, std::move(sw),
                                             heap_bytes);
  allocator_ = std::make_unique<FreeListAllocator>(internal_bytes_,
                                                   heap_bytes - internal_bytes_);
  alloc_cursor_.assign(domain_->npes(), 0);
  psync_gens_.resize(domain_->npes());
  coll_.reserve(domain_->npes());
  for (int i = 0; i < domain_->npes(); ++i) {
    coll_.push_back(std::make_unique<CollectiveState>());
  }
}

World::~World() = default;

void World::launch(std::function<void()> pe_main) {
  for (int pe = 0; pe < n_pes(); ++pe) {
    engine_.spawn(pe, pe_main);
  }
}

std::uint64_t World::sym_off(const void* ptr, const char* what) const {
  const auto* base = domain_->segment(my_pe());
  const auto* p = static_cast<const std::byte*>(ptr);
  if (p < base || p >= base + domain_->segment_bytes()) {
    throw std::invalid_argument(std::string(what) +
                                ": address is not a symmetric heap address");
  }
  return static_cast<std::uint64_t>(p - base);
}

std::uint64_t World::offset_of(const void* sym) const {
  return sym_off(sym, "offset_of");
}

std::size_t World::heap_user_bytes() const {
  return domain_->segment_bytes() - internal_bytes_;
}

// ---------------------------------------------------------------------------
// Symmetric allocation (collective)
// ---------------------------------------------------------------------------

void* World::shmalloc(std::size_t bytes) {
  const int me = my_pe();
  const std::size_t cursor = alloc_cursor_[me];
  if (cursor == alloc_log_.size()) {
    auto got = allocator_->allocate(bytes);
    // Failures are logged too (result = kAllocFailed): PEs are not
    // synchronized here, so a replaying PE must observe the same failure at
    // the same op index. Later, smaller shmallocs still succeed.
    alloc_log_.push_back({false, bytes, got ? *got : kAllocFailed});
  }
  alloc_cursor_[me] = cursor + 1;
  // Copy, not reference: other PEs append to the log while we sit in the
  // barrier below, which can reallocate the vector.
  const AllocOp op = alloc_log_[cursor];
  if (op.is_free || op.arg != bytes) {
    throw std::logic_error(
        "shmalloc: collective call mismatch across PEs (differing sizes or "
        "interleaved shfree)");
  }
  if (op.result == kAllocFailed) {
    // No barrier: every PE throws at this op, so none reaches it.
    throw HeapExhaustedError("shmalloc (symmetric heap)", bytes,
                             allocator_->bytes_in_use(),
                             allocator_->capacity());
  }
  // The specification gives shmalloc an implicit barrier: all PEs own the
  // block when any PE returns.
  barrier_all();
  return domain_->segment(me) + op.result;
}

void World::shfree(void* ptr) {
  const int me = my_pe();
  const std::uint64_t off = sym_off(ptr, "shfree");
  const std::size_t cursor = alloc_cursor_[me]++;
  if (cursor == alloc_log_.size()) {
    allocator_->release(off);
    alloc_log_.push_back({true, off, 0});
  }
  const AllocOp op = alloc_log_[cursor];  // copy; see shmalloc
  if (!op.is_free || op.arg != off) {
    throw std::logic_error("shfree: collective call mismatch across PEs");
  }
  barrier_all();
}

void* World::ptr(void* sym, int pe) {
  const std::uint64_t off = sym_off(sym, "shmem_ptr");
  if (!domain_->fabric().same_node(my_pe(), pe)) return nullptr;
  return domain_->segment(pe) + off;
}

// ---------------------------------------------------------------------------
// RMA
// ---------------------------------------------------------------------------

void World::putmem(void* dst, const void* src, std::size_t n, int pe) {
  domain_->put(pe, sym_off(dst, "putmem"), src, n, /*pipelined=*/false);
}

void World::putmem_nbi(void* dst, const void* src, std::size_t n, int pe) {
  domain_->put(pe, sym_off(dst, "putmem_nbi"), src, n, /*pipelined=*/true);
}

void World::putmem_scatter_nbi(int pe, const fabric::ScatterRec* recs,
                               std::size_t nrecs, const void* payload,
                               std::size_t payload_bytes) {
  domain_->put_scatter(pe, recs, nrecs, payload, payload_bytes,
                       /*pipelined=*/true);
}

void World::getmem(void* dst, const void* src, std::size_t n, int pe) {
  domain_->get(dst, pe, sym_off(src, "getmem"), n);
}

void World::iputmem(void* dst, const void* src, std::ptrdiff_t dst_stride,
                    std::ptrdiff_t src_stride, std::size_t elem_bytes,
                    std::size_t nelems, int pe) {
  if (nelems == 0) return;
  const std::uint64_t dst_off = sym_off(dst, "iput");
  if (domain_->sw().hw_strided) {
    // Cray SHMEM: one DMAPP scatter transaction.
    domain_->iput_hw(pe, dst_off, dst_stride, src, src_stride, elem_bytes,
                     nelems, /*pipelined=*/false);
    return;
  }
  // MVAPICH2-X SHMEM: a software loop of contiguous blocking puts (paper
  // §V-B-2: "shmem_iput ... performing multiple shmem_putmem calls
  // underneath" — which is why naive and 2dim_strided coincide there).
  const auto* s = static_cast<const std::byte*>(src);
  for (std::size_t i = 0; i < nelems; ++i) {
    const std::uint64_t doff =
        dst_off + i * static_cast<std::uint64_t>(dst_stride) * elem_bytes;
    domain_->put(pe, doff,
                 s + static_cast<std::ptrdiff_t>(i) * src_stride *
                         static_cast<std::ptrdiff_t>(elem_bytes),
                 elem_bytes, /*pipelined=*/false);
  }
}

void World::igetmem(void* dst, const void* src, std::ptrdiff_t dst_stride,
                    std::ptrdiff_t src_stride, std::size_t elem_bytes,
                    std::size_t nelems, int pe) {
  if (nelems == 0) return;
  const std::uint64_t src_off = sym_off(src, "iget");
  if (domain_->sw().hw_strided) {
    domain_->iget_hw(dst, dst_stride, pe, src_off, src_stride, elem_bytes,
                     nelems);
    return;
  }
  auto* d = static_cast<std::byte*>(dst);
  for (std::size_t i = 0; i < nelems; ++i) {
    const std::uint64_t soff =
        src_off + i * static_cast<std::uint64_t>(src_stride) * elem_bytes;
    domain_->get(d + static_cast<std::ptrdiff_t>(i) * dst_stride *
                         static_cast<std::ptrdiff_t>(elem_bytes),
                 pe, soff, elem_bytes);
  }
}

void World::quiet() { domain_->quiet(); }
void World::fence() { domain_->fence(); }

// ---------------------------------------------------------------------------
// Point-to-point synchronization
// ---------------------------------------------------------------------------

void World::wait_until(const std::int64_t* ivar, Cmp cmp, std::int64_t value,
                       std::uint64_t epoch) {
  domain_->wait_until(my_pe(), sym_off(ivar, "wait_until"), cmp, value,
                      "shmem_wait_until", epoch);
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

std::int64_t World::swap(std::int64_t* target, std::int64_t value, int pe) {
  return static_cast<std::int64_t>(domain_->amo(
      fabric::AmoOp::kSwap, pe, sym_off(target, "swap"),
      static_cast<std::uint64_t>(value)));
}

std::int64_t World::cswap(std::int64_t* target, std::int64_t cond,
                          std::int64_t value, int pe) {
  return static_cast<std::int64_t>(domain_->amo(
      fabric::AmoOp::kCompareSwap, pe, sym_off(target, "cswap"),
      static_cast<std::uint64_t>(value), static_cast<std::uint64_t>(cond)));
}

std::int64_t World::fadd(std::int64_t* target, std::int64_t value, int pe) {
  return static_cast<std::int64_t>(domain_->amo(
      fabric::AmoOp::kFetchAdd, pe, sym_off(target, "fadd"),
      static_cast<std::uint64_t>(value)));
}

std::int64_t World::finc(std::int64_t* target, int pe) {
  return fadd(target, 1, pe);
}

void World::add(std::int64_t* target, std::int64_t value, int pe) {
  (void)fadd(target, value, pe);
}

void World::inc(std::int64_t* target, int pe) { (void)finc(target, pe); }

std::int64_t World::fetch_and(std::int64_t* target, std::int64_t mask, int pe) {
  return static_cast<std::int64_t>(domain_->amo(
      fabric::AmoOp::kFetchAnd, pe, sym_off(target, "fetch_and"),
      static_cast<std::uint64_t>(mask)));
}

std::int64_t World::fetch_or(std::int64_t* target, std::int64_t mask, int pe) {
  return static_cast<std::int64_t>(domain_->amo(
      fabric::AmoOp::kFetchOr, pe, sym_off(target, "fetch_or"),
      static_cast<std::uint64_t>(mask)));
}

std::int64_t World::fetch_xor(std::int64_t* target, std::int64_t mask, int pe) {
  return static_cast<std::int64_t>(domain_->amo(
      fabric::AmoOp::kFetchXor, pe, sym_off(target, "fetch_xor"),
      static_cast<std::uint64_t>(mask)));
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

void World::barrier_all() {
  const int n = n_pes();
  if (n == 1) return;
  const std::int64_t gen = ++coll_[my_pe()]->barrier_gen;
  dissemination(ActiveSet{0, 0, n}, barrier_flags_off_, gen);
}

void World::dissemination(const ActiveSet& as, std::uint64_t flags_off,
                          std::int64_t gen) {
  domain_->barrier(my_pe(), as, flags_off, gen,
                   domain_->put_flags(/*pipelined=*/true), "shmem_wait_until");
}

void World::broadcast(void* buf, std::size_t nbytes, int root) {
  const int me = my_pe();
  const int n = n_pes();
  auto& cs = *coll_[me];
  const std::int64_t gen = ++cs.bcast_gen;
  if (n == 1) return;
  const int vrank = (me - root + n) % n;
  auto* flag_addr = reinterpret_cast<std::int64_t*>(domain_->segment(me) +
                                                    bcast_flag_off_);
  // Binomial tree on virtual ranks (root == vrank 0).
  int mask = 1;
  if (vrank != 0) {
    while (!(vrank & mask)) mask <<= 1;
    wait_until(flag_addr, Cmp::kGe, gen);  // parent delivered data + flag
  } else {
    while (mask < n) mask <<= 1;
  }
  // Forward to children: vrank + m for each m = mask/2 ... 1.
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (vrank + m < n) {
      const int child = (vrank + m + root) % n;
      // Same-pair deliveries are FIFO, so the flag trips only after the
      // data landed; skipping the quiet lets the root stream all subtree
      // sends back-to-back instead of paying a round trip per child.
      putmem_nbi(buf, buf, nbytes, child);
      putmem_nbi(flag_addr, &gen, sizeof gen, child);
    }
  }
}

void World::reduce_bytes(
    void* dst, const void* src, std::size_t nelems, std::size_t elem_bytes,
    const std::function<void(void*, const void*)>& combine_all) {
  const std::size_t bytes = nelems * elem_bytes;
  if (bytes > kReduceSlotBytes) {
    throw std::invalid_argument("reduce: payload exceeds internal slot");
  }
  const int me = my_pe();
  const int n = n_pes();
  if (dst != src) std::memmove(dst, src, bytes);
  if (n == 1) return;
  auto& cs = *coll_[me];
  const std::int64_t gen = ++cs.reduce_gen;
  // Binomial combine toward PE 0, one slot+flag per tree level, then
  // broadcast the result (§IV footnote: UHCAF reductions are built from
  // one-sided operations).
  int level = 0;
  for (int mask = 1; mask < n; mask <<= 1, ++level) {
    assert(level < kMaxRounds);
    if (me & mask) {
      const int peer = me - mask;
      auto* slot = domain_->segment(me) + reduce_slots_off_ +
                   static_cast<std::size_t>(level) * kReduceSlotBytes;
      putmem_nbi(slot, dst, bytes, peer);
      // FIFO same-pair delivery orders the slot write before the flag.
      auto* flag = reinterpret_cast<std::int64_t*>(
          domain_->segment(me) + reduce_flags_off_) + level;
      putmem_nbi(flag, &gen, sizeof gen, peer);
      break;  // sent up; wait for the broadcast
    }
    if (me + mask < n) {
      auto* flag = reinterpret_cast<std::int64_t*>(
          domain_->segment(me) + reduce_flags_off_) + level;
      wait_until(flag, Cmp::kGe, gen);
      const auto* slot = domain_->segment(me) + reduce_slots_off_ +
                         static_cast<std::size_t>(level) * kReduceSlotBytes;
      combine_all(dst, slot);
    }
  }
  broadcast(dst, bytes, 0);
}

void World::fcollect(void* dst, const void* src, std::size_t nbytes) {
  const int me = my_pe();
  const int n = n_pes();
  auto* d = static_cast<std::byte*>(dst);
  for (int pe = 0; pe < n; ++pe) {
    putmem(d + static_cast<std::size_t>(me) * nbytes, src, nbytes, pe);
  }
  quiet();
  barrier_all();
}

void World::collect(void* dst, const void* src, std::size_t nbytes) {
  const int me = my_pe();
  const int n = n_pes();
  // Exchange contribution sizes through an internal reduce slot: reuse the
  // level-0 reduce slot as an n-wide size table (fits for n <= slot/8).
  if (static_cast<std::size_t>(n) * sizeof(std::int64_t) > kReduceSlotBytes) {
    throw std::invalid_argument("collect: too many PEs for the size table");
  }
  auto* sizes = reinterpret_cast<std::int64_t*>(domain_->segment(me) +
                                                reduce_slots_off_);
  const std::int64_t mine = static_cast<std::int64_t>(nbytes);
  for (int pe = 0; pe < n; ++pe) {
    putmem_nbi(&sizes[me], &mine, sizeof mine, pe);
  }
  quiet();
  barrier_all();
  std::uint64_t my_off = 0;
  for (int pe = 0; pe < me; ++pe) {
    my_off += static_cast<std::uint64_t>(sizes[pe]);
  }
  auto* d = static_cast<std::byte*>(dst);
  for (int pe = 0; pe < n; ++pe) {
    if (nbytes > 0) putmem_nbi(d + my_off, src, nbytes, pe);
  }
  quiet();
  barrier_all();
}

void World::alltoall(void* dst, const void* src, std::size_t block_bytes) {
  const int me = my_pe();
  const int n = n_pes();
  auto* d = static_cast<std::byte*>(dst);
  const auto* s = static_cast<const std::byte*>(src);
  for (int pe = 0; pe < n; ++pe) {
    putmem_nbi(d + static_cast<std::size_t>(me) * block_bytes,
               s + static_cast<std::size_t>(pe) * block_bytes, block_bytes,
               pe);
  }
  quiet();
  barrier_all();
}

// ---------------------------------------------------------------------------
// Active-set collectives (classic PE_start/logPE_stride/PE_size triplets)
// ---------------------------------------------------------------------------

std::int64_t World::next_psync_gen(int pe, std::uint64_t psync_off) {
  return ++psync_gens_[pe][psync_off];
}

void World::validate_member(const ActiveSet& as, const char* what) const {
  if (as.pe_size < 1 || as.pe_start < 0 ||
      as.world_pe(as.pe_size - 1) >= n_pes()) {
    throw std::invalid_argument(std::string(what) + ": active set out of range");
  }
  if (as.rel_of(my_pe()) < 0) {
    throw std::logic_error(std::string(what) +
                           ": calling PE is not in the active set");
  }
}

void World::barrier(const ActiveSet& as, std::int64_t* pSync) {
  validate_member(as, "shmem_barrier");
  if (as.pe_size == 1) return;
  const std::uint64_t psync_off = sym_off(pSync, "shmem_barrier pSync");
  dissemination(as, psync_off, next_psync_gen(my_pe(), psync_off));
}

void World::broadcast(const ActiveSet& as, void* dst, const void* src,
                      std::size_t nbytes, int root_rel, std::int64_t* pSync) {
  validate_member(as, "shmem_broadcast");
  const int me = my_pe();
  const int rel = as.rel_of(me);
  const int n = as.pe_size;
  const std::uint64_t psync_off = sym_off(pSync, "shmem_broadcast pSync");
  const std::int64_t gen = next_psync_gen(me, psync_off);
  if (rel == root_rel && dst != src) std::memmove(dst, src, nbytes);
  if (n == 1) return;
  const int vrank = (rel - root_rel + n) % n;
  auto* flag = pSync + (kSyncSize - 1);
  int mask = 1;
  if (vrank != 0) {
    while (!(vrank & mask)) mask <<= 1;
    wait_until(flag, Cmp::kGe, gen);
  } else {
    while (mask < n) mask <<= 1;
  }
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (vrank + m < n) {
      const int child = as.world_pe((vrank + m + root_rel) % n);
      putmem_nbi(dst, dst, nbytes, child);
      quiet();
      putmem_nbi(flag, &gen, sizeof gen, child);
    }
  }
}

void World::to_all_bytes(
    const ActiveSet& as, void* dst, const void* src, std::size_t nelems,
    std::size_t elem_bytes,
    const std::function<void(void*, const void*)>& combine_all,
    std::byte* pWrk, std::int64_t* pSync) {
  validate_member(as, "shmem_to_all");
  const int me = my_pe();
  const int rel = as.rel_of(me);
  const int n = as.pe_size;
  const std::size_t nbytes = nelems * elem_bytes;
  if (dst != src) std::memmove(dst, src, nbytes);
  if (n == 1) return;
  const std::uint64_t psync_off = sym_off(pSync, "shmem_to_all pSync");
  (void)sym_off(pWrk, "shmem_to_all pWrk");
  const std::int64_t gen = next_psync_gen(me, psync_off);
  // Binomial combine toward relative rank 0 with one pWrk slot per tree
  // level (pWrk must hold ceil(log2(n)) * nelems elements), then broadcast.
  int level = 0;
  for (int mask = 1; mask < n; mask <<= 1, ++level) {
    assert(level < static_cast<int>(kSyncSize) - 1);
    std::byte* slot = pWrk + static_cast<std::size_t>(level) * nbytes;
    auto* flag = pSync + level;
    if (rel & mask) {
      const int peer = as.world_pe(rel - mask);
      putmem_nbi(slot, dst, nbytes, peer);
      quiet();
      putmem_nbi(flag, &gen, sizeof gen, peer);
      break;
    }
    if (rel + mask < n) {
      wait_until(flag, Cmp::kGe, gen);
      combine_all(dst, slot);
    }
  }
  broadcast(as, dst, dst, nbytes, /*root_rel=*/0, pSync);
}

// ---------------------------------------------------------------------------
// OpenSHMEM global locks (test/set/clear) — a single logical lock entity.
// ---------------------------------------------------------------------------

void World::set_lock(std::int64_t* lock) {
  // The canonical portable implementation spins with compare-and-swap on
  // PE 0's copy of the lock word. This treats the symmetric variable as one
  // global lock — exactly the property (§IV-D) that makes the OpenSHMEM
  // lock API unsuitable for CAF's per-image locks.
  const std::int64_t ticket = my_pe() + 1;
  sim::Time backoff = 200;
  while (cswap(lock, 0, ticket, 0) != 0) {
    engine_.advance(backoff);
    backoff = std::min<sim::Time>(backoff * 2, 20'000);
  }
}

void World::clear_lock(std::int64_t* lock) {
  const std::int64_t ticket = my_pe() + 1;
  const std::int64_t prev = cswap(lock, ticket, 0, 0);
  if (prev != ticket) {
    throw std::logic_error("clear_lock: calling PE does not hold the lock");
  }
}

int World::test_lock(std::int64_t* lock) {
  return cswap(lock, 0, my_pe() + 1, 0) == 0 ? 0 : 1;
}

}  // namespace shmem
