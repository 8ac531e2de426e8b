#include "craycaf/craycaf.hpp"

#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

namespace craycaf {

Runtime::Runtime(sim::Engine& engine, net::Fabric& fabric,
                 std::size_t heap_bytes, net::Machine machine)
    : engine_(engine), allocator_(0, 0) {
  ctx_ = std::make_unique<fabric::dmapp::Context>(
      engine, fabric, heap_bytes,
      net::sw_profile(net::Library::kCrayCaf, machine));
  // Internal symmetric prefix: barrier flags, collective flags + slots.
  std::uint64_t off = 0;
  barrier_flags_off_ = off;
  off += kMaxRounds * sizeof(std::int64_t);
  coll_flags_off_ = off;
  off += (kMaxRounds + 1) * sizeof(std::int64_t);
  coll_slots_off_ = off;
  off += (kMaxRounds + 1) * kSlotBytes;
  internal_bytes_ = (off + 15) & ~std::uint64_t{15};
  if (heap_bytes <= internal_bytes_) {
    throw std::invalid_argument("craycaf::Runtime: heap too small");
  }
  allocator_ =
      shmem::FreeListAllocator(internal_bytes_, heap_bytes - internal_bytes_);
  alloc_cursor_.assign(ctx_->npes(), 0);
  barrier_gen_.assign(ctx_->npes(), 0);
  coll_gen_.assign(ctx_->npes(), 0);
  held_tickets_.resize(static_cast<std::size_t>(ctx_->npes()));
}

Runtime::~Runtime() = default;

void Runtime::launch(std::function<void()> image_main) {
  resilient_ = engine_.kills_armed();
  for (int pe = 0; pe < ctx_->npes(); ++pe) engine_.spawn(pe, image_main);
}

int Runtime::me() const {
  sim::Fiber* f = engine_.current_fiber();
  assert(f != nullptr);
  return f->pe();
}

int Runtime::this_image() const { return me() + 1; }

std::byte* Runtime::local_addr(std::uint64_t off) {
  return ctx_->domain().segment(me()) + off;
}

std::uint64_t Runtime::allocate(std::size_t bytes) {
  const std::size_t cursor = alloc_cursor_[me()]++;
  if (cursor == alloc_log_.size()) {
    auto got = allocator_.allocate(bytes);
    if (!got) throw std::bad_alloc();
    alloc_log_.push_back({false, bytes, *got});
  }
  const AllocOp op = alloc_log_[cursor];  // copy: log grows during barrier
  if (op.is_free || op.arg != bytes) {
    throw std::logic_error("craycaf allocate: collective mismatch");
  }
  sync_all();
  return op.result;
}

void Runtime::deallocate(std::uint64_t off) {
  const std::size_t cursor = alloc_cursor_[me()]++;
  if (cursor == alloc_log_.size()) {
    allocator_.release(off);
    alloc_log_.push_back({true, off, 0});
  }
  const AllocOp op = alloc_log_[cursor];
  if (!op.is_free || op.arg != off) {
    throw std::logic_error("craycaf deallocate: collective mismatch");
  }
  sync_all();
}

void Runtime::put_bytes(int image, std::uint64_t dst_off, const void* src,
                        std::size_t n) {
  ctx_->put(image - 1, dst_off, src, n);
  ctx_->gsync_wait();  // Cray CAF also enforces CAF completion ordering
}

void Runtime::put_bytes_nbi(int image, std::uint64_t dst_off, const void* src,
                            std::size_t n) {
  // Deferred-completion statement: the Fortran runtime still pays its
  // per-statement descriptor setup (a blocking-local dmapp_put), only the
  // gsync is deferred. The 45 ns nbi gap is reserved for the runtime's
  // *internal* strided element pipeline.
  ctx_->put(image - 1, dst_off, src, n);
}

void Runtime::get_bytes(void* dst, int image, std::uint64_t src_off,
                        std::size_t n) {
  ctx_->gsync_wait();
  ctx_->get(dst, image - 1, src_off, n);
}

void Runtime::put_strided_1d(int image, std::uint64_t dst_off,
                             std::ptrdiff_t dst_stride, const void* src,
                             std::ptrdiff_t src_stride, std::size_t elem_bytes,
                             std::size_t nelems) {
  // Vendor path: pipeline one nbi put per element (kCrayCaf per_msg_gap),
  // then globally sync. Cheaper than blocking per-element puts, slower than
  // a single NIC scatter.
  const auto* s = static_cast<const std::byte*>(src);
  for (std::size_t i = 0; i < nelems; ++i) {
    ctx_->put_nbi(image - 1,
                  dst_off + i * static_cast<std::uint64_t>(dst_stride) *
                                elem_bytes,
                  s + static_cast<std::ptrdiff_t>(i) * src_stride *
                          static_cast<std::ptrdiff_t>(elem_bytes),
                  elem_bytes);
  }
  ctx_->gsync_wait();
}

void Runtime::sync_all() {
  ctx_->gsync_wait();
  const int r = me();
  const int n = ctx_->npes();
  if (n == 1) return;
  fabric::Domain& d = ctx_->domain();
  d.barrier(r, {0, 0, n}, barrier_flags_off_, ++barrier_gen_[r],
            d.put_flags(/*pipelined=*/true), "craycaf_wait_until");
}

int Runtime::image_status(int image) {
  return engine_.pe_failed(image - 1) ? kStatFailedImage : kStatOk;
}

int Runtime::put_bytes_stat(int image, std::uint64_t dst_off, const void* src,
                            std::size_t n) {
  if (engine_.pe_failed(image - 1)) return kStatFailedImage;
  try {
    put_bytes(image, dst_off, src, n);
  } catch (const fabric::PeerFailedError&) {
    return kStatFailedImage;
  }
  return kStatOk;
}

int Runtime::get_bytes_stat(void* dst, int image, std::uint64_t src_off,
                            std::size_t n) {
  if (engine_.pe_failed(image - 1)) return kStatFailedImage;
  try {
    get_bytes(dst, image, src_off, n);
  } catch (const fabric::PeerFailedError&) {
    return kStatFailedImage;
  }
  return kStatOk;
}

namespace {
/// Owner-ring slot values: ticket * kRingTagBase + image + 1, so a waiter
/// can tell the *current* ticket's owner entry from a stale one left by a
/// skipped (dead) previous occupant of the slot.
constexpr std::int64_t kRingTagBase = std::int64_t{1} << 21;
}  // namespace

CoLock Runtime::make_lock() {
  // Resilient cells append an owner ring of npes+1 slots: at most npes
  // tickets are outstanding (one per image per lock), so ticket t and
  // t + ring never coexist.
  const std::size_t words =
      resilient_ ? 2 + static_cast<std::size_t>(ctx_->npes()) + 1 : 2;
  const std::uint64_t off = allocate(words * sizeof(std::int64_t));
  std::memset(local_addr(off), 0, words * sizeof(std::int64_t));
  sync_all();
  return CoLock{off};
}

void Runtime::lock(CoLock lck, int image) {
  bool reclaimed = false;
  if (ticket_lock(lck, image, &reclaimed) != kStatOk) {
    throw std::runtime_error("craycaf lock: lock image has failed");
  }
}

void Runtime::unlock(CoLock lck, int image) {
  if (ticket_unlock(lck, image) == kStatFailedImage) {
    throw std::runtime_error("craycaf unlock: lock image has failed");
  }
}

int Runtime::lock_stat(CoLock lck, int image) {
  bool reclaimed = false;
  const int st = ticket_lock(lck, image, &reclaimed);
  if (st != kStatOk) return st;
  return reclaimed ? kStatFailedImage : kStatOk;
}

int Runtime::unlock_stat(CoLock lck, int image) {
  return ticket_unlock(lck, image);
}

sim::Time Runtime::poll_interval(int home) const {
  // ~1.5x the AMO round-trip to the lock's home.
  const auto& mp = ctx_->domain().fabric().profile();
  const bool local = ctx_->domain().fabric().same_node(me(), home);
  return ctx_->domain().sw().amo_overhead +
         2 * (local ? mp.local_latency : mp.hw_latency) + mp.nic_amo_gap;
}

int Runtime::ticket_lock(CoLock lck, int image, bool* reclaimed) {
  const int home = image - 1;
  if (engine_.pe_failed(home)) return kStatFailedImage;
  const sim::Time rt_est = poll_interval(home);
  // Packed centralized ticket lock: one 64-bit word holds the next ticket
  // (high 32 bits) and now_serving (low 32 bits), so the uncontended
  // acquire is a single NIC fetch-add. Under contention every waiter must
  // keep *remotely polling* the word with atomic reads that serialize on
  // the target NIC's AMO unit — the behaviour the MCS queue's local
  // spinning avoids, and the source of Figure 8's gap. The poll interval
  // scales with queue distance to bound the poll storm.
  constexpr std::int64_t kTicketOne = std::int64_t{1} << 32;
  if (!resilient_) {
    const std::int64_t grabbed = ctx_->afadd(home, lck.off, kTicketOne);
    const std::int64_t my_ticket = grabbed >> 32;
    std::int64_t serving = grabbed & 0xffffffff;
    while (serving != my_ticket) {
      engine_.advance(rt_est *
                      std::max<std::int64_t>(1, my_ticket - serving));
      serving = static_cast<std::int64_t>(ctx_->afadd(home, lck.off, 0)) &
                0xffffffff;
    }
    held_tickets_[static_cast<std::size_t>(me())][{lck.off, home}] = my_ticket;
    return kStatOk;
  }
  const std::int64_t ring = ctx_->npes() + 1;
  auto slot_off = [&](std::int64_t ticket) {
    return lck.off + 16 +
           static_cast<std::uint64_t>(ticket % ring) * sizeof(std::int64_t);
  };
  try {
    const std::int64_t grabbed = ctx_->afadd(home, lck.off, kTicketOne);
    const std::int64_t my_ticket = grabbed >> 32;
    // Publish my owner-ring slot BEFORE polling: once now_serving reaches
    // my_ticket, any other waiter must be able to see who holds that turn.
    const std::int64_t tag = my_ticket * kRingTagBase + (me() + 1);
    ctx_->put(home, slot_off(my_ticket), &tag, sizeof tag);
    ctx_->gsync_wait();

    std::int64_t packed = grabbed;
    std::int64_t last_packed = -1;
    int stagnant = 0;
    while ((packed & 0xffffffff) != my_ticket) {
      const std::int64_t serving = packed & 0xffffffff;
      // Who owns the serving ticket? Authoritative only when the slot's
      // embedded ticket matches: a waiter may not have published yet.
      std::int64_t sv = 0;
      ctx_->get(&sv, home, slot_off(serving), sizeof sv);
      const std::int64_t slot_ticket = sv / kRingTagBase;
      const int slot_image0 = static_cast<int>(sv % kRingTagBase) - 1;
      bool bump = false;
      if (sv != 0 && slot_ticket == serving) {
        // Current holder identified; skip its turn iff it is dead.
        if (engine_.pe_failed(slot_image0)) bump = true;
      } else {
        // Slot stale or unpublished. If the lock word has not moved for a
        // while and some image has failed, assume the serving grabber died
        // between its fetch-add and its slot publish, and skip its turn.
        // (Window: a live publisher delayed pathologically long could be
        // wrongly skipped; see DESIGN.md Known limits.)
        if (packed == last_packed) ++stagnant;
        else stagnant = 0;
        if (stagnant >= 8 && engine_.failed_count() > 0) bump = true;
      }
      last_packed = packed;
      if (bump) {
        const std::int64_t seen =
            ctx_->acswap(home, lck.off, packed, packed + 1);
        if (seen == packed) {
          *reclaimed = true;  // this waiter retired the dead holder's turn
          stagnant = 0;
        }
        packed = (seen == packed) ? packed + 1 : seen;
        continue;
      }
      engine_.advance(rt_est *
                      std::max<std::int64_t>(1, my_ticket - serving));
      packed = ctx_->afadd(home, lck.off, 0);
    }
    held_tickets_[static_cast<std::size_t>(me())][{lck.off, home}] = my_ticket;
  } catch (const fabric::PeerFailedError&) {
    return kStatFailedImage;
  }
  return kStatOk;
}

int Runtime::ticket_unlock(CoLock lck, int image) {
  const int home = image - 1;
  auto& held = held_tickets_[static_cast<std::size_t>(me())];
  const auto it = held.find({lck.off, home});
  if (it == held.end()) return kStatUnlocked;
  const std::int64_t my_ticket = it->second;
  held.erase(it);
  if (engine_.pe_failed(home)) return kStatFailedImage;
  if (!resilient_) {
    (void)ctx_->afadd(home, lck.off, 1);  // bump now_serving
    return kStatOk;
  }
  const std::int64_t ring = ctx_->npes() + 1;
  const std::uint64_t my_slot =
      lck.off + 16 +
      static_cast<std::uint64_t>(my_ticket % ring) * sizeof(std::int64_t);
  try {
    // Retire my slot before bumping now_serving: the next waiter must never
    // read my (now stale) tag as the owner of a later ticket in this slot.
    const std::int64_t zero = 0;
    ctx_->put(home, my_slot, &zero, sizeof zero);
    ctx_->gsync_wait();
    (void)ctx_->afadd(home, lck.off, 1);
  } catch (const fabric::PeerFailedError&) {
    return kStatFailedImage;
  }
  return kStatOk;
}

void Runtime::co_sum_f64(double* data, std::size_t nelems) {
  const std::size_t nbytes = nelems * sizeof(double);
  assert(nbytes <= kSlotBytes);
  const int r = me();
  const int n = ctx_->npes();
  if (n == 1) return;
  const std::int64_t gen = ++coll_gen_[r];
  int level = 0;
  for (int mask = 1; mask < n; mask <<= 1, ++level) {
    assert(level < kMaxRounds);
    const std::uint64_t slot =
        coll_slots_off_ + static_cast<std::uint64_t>(level) * kSlotBytes;
    const std::uint64_t flag =
        coll_flags_off_ + static_cast<std::uint64_t>(level) * sizeof(std::int64_t);
    if (r & mask) {
      const int peer = r - mask;
      ctx_->put(peer, slot, data, nbytes);
      ctx_->gsync_wait();
      ctx_->put_nbi(peer, flag, &gen, sizeof gen);
      break;
    }
    if (r + mask < n) {
      wait_local_ge(flag, gen);
      const auto* in = reinterpret_cast<const double*>(
          ctx_->domain().segment(r) + slot);
      for (std::size_t i = 0; i < nelems; ++i) data[i] += in[i];
    }
  }
  // Broadcast the result down a binomial tree.
  const std::uint64_t bslot =
      coll_slots_off_ + static_cast<std::uint64_t>(kMaxRounds) * kSlotBytes;
  const std::uint64_t bflag =
      coll_flags_off_ + static_cast<std::uint64_t>(kMaxRounds) * sizeof(std::int64_t);
  std::memcpy(local_addr(bslot), data, nbytes);
  int mask = 1;
  if (r != 0) {
    while (!(r & mask)) mask <<= 1;
    wait_local_ge(bflag, gen);
  } else {
    while (mask < n) mask <<= 1;
  }
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (r + m < n) {
      ctx_->put(r + m, bslot, local_addr(bslot), nbytes);
      ctx_->gsync_wait();
      ctx_->put_nbi(r + m, bflag, &gen, sizeof gen);
    }
  }
  std::memcpy(data, local_addr(bslot), nbytes);
}

}  // namespace craycaf
