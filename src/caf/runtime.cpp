#include "caf/runtime.hpp"

#include <cassert>
#include <new>
#include <stdexcept>

#include "caf/rpc.hpp"
#include "fabric/domain.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace caf {

namespace {

/// Marks the calling image parked for the duration of a blocking runtime
/// wait. The constructor drains the RPC mailbox first and raises the flag
/// with no yield in between, so no request can slip into the gap between
/// the last poll and the block; while the flag is up, a sender's doorbell
/// completion drains this image's mailbox from the event loop.
struct RpcParkGuard {
  RpcEngine* eng;
  int image;
  RpcParkGuard(RpcEngine* e, int img) : eng(e), image(img) {
    // Re-entrant: a wait nested inside an outer park leaves it to the outer
    // guard, whose exit unparks.
    if (eng != nullptr && eng->parked(image)) eng = nullptr;
    if (eng != nullptr) {
      eng->progress();
      eng->set_parked(image, true);
    }
  }
  ~RpcParkGuard() {
    if (eng != nullptr) eng->set_parked(image, false);
  }
  RpcParkGuard(const RpcParkGuard&) = delete;
  RpcParkGuard& operator=(const RpcParkGuard&) = delete;
};

}  // namespace

Runtime::Runtime(Conduit& conduit, Options opts)
    : conduit_(conduit), dom_(*conduit.rma_domain()), opts_(opts) {
  per_image_.resize(conduit_.nranks());
  if (opts_.node.enabled) {
    // Enable the node-local shared-segment transport on the conduit's RMA
    // domain (idempotent). Done here — not per-fiber — so it is set before
    // any image runs.
    dom_.enable_node_transport(opts_.node);
  }
  if (opts_.rpc.enabled) {
    rpc_engine_ = std::make_unique<RpcEngine>(*this, opts_.rpc);
  }
}

Runtime::~Runtime() = default;

void Runtime::rpc_progress() {
  if (rpc_engine_) rpc_engine_->progress();
}

void Runtime::require_init() const {
  if (!inited_) {
    throw std::logic_error("caf::Runtime: call init() from every image first");
  }
}

void Runtime::init() {
  if (opts_.trace && !obs::enabled()) obs::enable({});
  // The robust lock layout is only used when the run's fault plan schedules
  // kills or partitions; fault-free runs keep the original lock cells and
  // RMA sequences bit-for-bit.
  resilient_ = conduit_.engine().kills_armed();
  // Collective allocations: every image calls in the same order, so every
  // image receives identical offsets (the conduits replay the log).
  const std::uint64_t slab = conduit_.allocate(opts_.nonsym_slab_bytes);
  const std::uint64_t sync =
      conduit_.allocate(static_cast<std::size_t>(num_images()) *
                        sizeof(std::int64_t));
  const std::uint64_t flags =
      conduit_.allocate((kMaxRounds + 1) * sizeof(std::int64_t));
  const std::uint64_t slots = conduit_.allocate(kSlotBytes * (kMaxRounds + 1));
  const std::uint64_t crit = conduit_.allocate(lock_cell_bytes());
  slab_off_ = slab;
  sync_ctrs_off_ = sync;
  coll_flags_off_ = flags;
  coll_slot_off_ = slots;
  critical_off_ = crit;
  // The CRITICAL cell shares its page with the engine's team cells, which
  // a fault-free run never writes: clear it only if it holds stale bytes.
  clear_if_stale(local_addr(crit), lock_cell_bytes());
  // Topology-aware collectives engine: its symmetric staging areas are
  // allocated here, in the same collective order on every image, whether or
  // not the engine ends up selected — so the heap layout never depends on
  // which dispatch path later runs. Its flag waits go through wait_fault so
  // a declaration ends them.
  if (!coll_engine_) {
    coll_engine_ = std::make_unique<CollectiveEngine>(
        conduit_, opts_.coll,
        [this](std::uint64_t off, Cmp cmp, std::int64_t v) {
          wait_fault(off, cmp, v);
        });
  }
  coll_engine_->init();
  // RPC mailbox rings / doorbell / ack array: allocated collectively here so
  // every image's symmetric heap carries the same layout (opts_.rpc must be
  // uniform across images, like every other Options field).
  if (rpc_engine_) rpc_engine_->init_symmetric();
  sync_offsets_ready_ = true;

  if (!failure_hook_registered_) {
    failure_hook_registered_ = true;
    conduit_.engine().on_pe_failure([this](const sim::PeFailure& f) {
      handle_image_failure(f.pe, f.at);
    });
  }

  conduit_.post_init();

  auto& st = per_image_[me()];
  st.slab = std::make_unique<shmem::FreeListAllocator>(
      slab_off_, opts_.nonsym_slab_bytes);
  inited_ = true;
  if (opts_.rma.write_combining) {
    // Carve the per-image write-combining chunk out of the managed slab so
    // staged payloads live in registered (remotely-accessible) memory, like
    // the bounce buffers a real runtime would register with the NIC.
    st.agg_chunk = nonsym_alloc(kAggChunkBytes);
    st.agg_recs.reserve(64);
  }
  conduit_.barrier();
}

// ---------------------------------------------------------------------------
// Synchronization
// ---------------------------------------------------------------------------

void Runtime::sync_all() {
  require_init();
  ++per_image_[me()].stats.syncs;
  // sync all implies completion of this image's outstanding RMA followed by
  // a global barrier (§IV-B + Table II: sync all → shmem_barrier_all).
  rma_fence();
  // The barrier is an RPC progress point: drain the mailbox, then let
  // senders drain it remotely while this image sits in the barrier.
  RpcParkGuard park(rpc_engine_.get(), me());
  conduit_.barrier();
}

std::int64_t Runtime::read_local_i64(std::uint64_t off) {
  std::int64_t v = 0;
  std::memcpy(&v, local_addr(off), sizeof v);
  return v;
}

void Runtime::wait_fault(std::uint64_t off, Cmp cmp, std::int64_t value) {
  if (fabric::compare(read_local_i64(off), cmp, value)) return;
  // The epoch is taken before the park guard's drain, which may yield: a
  // declaration landing there ends the wait as soon as it starts.
  const std::uint64_t epoch = conduit_.engine().membership_epoch();
  RpcParkGuard park(rpc_engine_.get(), me());
  conduit_.wait_until(off, cmp, value, epoch);
}

bool Runtime::await_partner(int partner) {
  auto& st = per_image_[me()];
  sim::Engine& eng = conduit_.engine();
  const std::uint64_t cell =
      sync_ctrs_off_ + static_cast<std::uint64_t>(partner) *
                           sizeof(std::int64_t);
  const std::int64_t need = st.sync_sent[partner];
  while (read_local_i64(cell) < need) {
    if (eng.pe_declared(partner)) return false;
    st.sync_wait = partner;
    conduit_.wait_until(cell, Cmp::kGe, need, eng.membership_epoch());
    st.sync_wait = -1;
  }
  return true;
}

void Runtime::sync_images(std::span<const int> images) {
  require_init();
  ++per_image_[me()].stats.syncs;
  obs::Span sp(obs::Cat::kSyncWait, images.size());
  rma_fence();
  auto& st = per_image_[me()];
  for (int image : images) {
    const int partner = image - 1;
    ++st.sync_sent[partner];
    // Tell `partner` that I reached a sync point with it: bump my slot in
    // its counter array.
    (void)conduit_.amo_fadd(partner,
                            sync_ctrs_off_ + static_cast<std::uint64_t>(me()) *
                                                 sizeof(std::int64_t),
                            1);
  }
  RpcParkGuard park(rpc_engine_.get(), me());
  for (int image : images) {
    const int partner = image - 1;
    // A partner declared before it reached this sync point leaves the plain
    // (non-stat) statement no escape — park forever so the watchdog's drain
    // report names this image and the corpse it waited on.
    if (!await_partner(partner)) {
      sim::Engine& eng = conduit_.engine();
      eng.current_fiber()->set_block_op("sync images (failed partner)",
                                        partner);
      for (;;) eng.block();
    }
  }
}

int Runtime::sync_images_stat(std::span<const int> images) {
  require_init();
  auto& st = per_image_[me()];
  ++st.stats.syncs;
  obs::Span sp(obs::Cat::kSyncWait, images.size());
  sim::Engine& eng = conduit_.engine();
  bool any_failed = fence_stat() != kStatOk;
  for (int image : images) {
    const int partner = image - 1;
    ++st.sync_sent[partner];
    if (eng.pe_declared(partner)) {
      any_failed = true;
      continue;
    }
    try {
      (void)conduit_.amo_fadd(
          partner,
          sync_ctrs_off_ + static_cast<std::uint64_t>(me()) *
                               sizeof(std::int64_t),
          1);
    } catch (const fabric::PeerFailedError&) {
      any_failed = true;
    }
  }
  RpcParkGuard park(rpc_engine_.get(), me());
  for (int image : images) {
    const int partner = image - 1;
    if (!await_partner(partner) || eng.pe_declared(partner)) any_failed = true;
  }
  return any_failed ? kStatFailedImage : kStatOk;
}

bool Runtime::sync_test(int image) {
  require_init();
  auto& st = per_image_[me()];
  const int partner = image - 1;
  bool& pending = st.sync_probe_pending[partner];
  if (!pending) {
    // First probe of a round: run the send half of sync_images — complete
    // my outstanding RMA, then bump my slot in the partner's counter array.
    // This is a bounded round trip (the amo acks), not an unbounded wait.
    rma_fence();
    ++st.sync_sent[partner];
    (void)conduit_.amo_fadd(partner,
                            sync_ctrs_off_ + static_cast<std::uint64_t>(me()) *
                                                 sizeof(std::int64_t),
                            1);
    pending = true;
  }
  // Every probe (including the first) is then a single local read of the
  // partner's slot in my counter array — no blocking, no fiber yield.
  const std::uint64_t cell =
      sync_ctrs_off_ + static_cast<std::uint64_t>(partner) *
                           sizeof(std::int64_t);
  if (read_local_i64(cell) >= st.sync_sent[partner]) {
    pending = false;
    ++st.stats.syncs;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Failed-image semantics (Fortran 2018)
// ---------------------------------------------------------------------------

void Runtime::handle_image_failure(int failed_pe, sim::Time at) {
  // Scheduler context (engine failure hook). A plain `sync all` barrier
  // still hangs — by design, so the engine's drain-time diagnostic
  // identifies who was stuck on whom. Only stat= and failure-aware waits
  // end.
  if (!sync_offsets_ready_) return;
  // Team operations first: members a neighbour's death leaves behind are
  // handed results, which their ended waits then find.
  coll_engine_->serve_stranded(at);
  sim::Engine& eng = conduit_.engine();
  // End every survivor's failure-aware wait (wait_fault, or sync images on
  // the dead image); a sync images wait on a live partner goes on.
  for (int r = 0; r < num_images(); ++r) {
    if (r == failed_pe || eng.pe_declared(r)) continue;
    const int partner = per_image_[r].sync_wait;
    if (partner < 0 || partner == failed_pe) dom_.end_wait(r, at);
  }
}

int Runtime::image_status(int image) {
  return conduit_.engine().pe_declared(image - 1) ? kStatFailedImage : kStatOk;
}

std::vector<int> Runtime::failed_images() {
  std::vector<int> out;
  for (const auto& f : conduit_.engine().declared_failures()) out.push_back(f.pe + 1);
  std::sort(out.begin(), out.end());
  return out;
}

int Runtime::sync_all_stat() {
  Team all;
  for (int i = 1; i <= num_images(); ++i) all.members.push_back(i);
  return team_sync(all);
}

int Runtime::fence_stat() {
  try {
    rma_fence();
  } catch (const fabric::PeerFailedError&) {
    return kStatFailedImage;  // a staged/in-flight put's target died
  }
  return kStatOk;
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

std::uint64_t Runtime::allocate_coarray_bytes(std::size_t bytes) {
  require_init();
  // The allocation's implicit barrier is a completion point.
  if (deferred()) rma_fence();
  return conduit_.allocate(bytes);
}

std::uint64_t Runtime::allocate_coarray_bytes(std::size_t bytes, int* stat) {
  require_init();
  assert(stat != nullptr);
  if (conduit_.engine().declared_count() > 0) {
    // The allocation is collective; with a dead image it can never complete.
    *stat = kStatFailedImage;
    return 0;
  }
  try {
    if (deferred()) rma_fence();
    const std::uint64_t off = conduit_.allocate(bytes);
    *stat = kStatOk;
    return off;
  } catch (const shmem::HeapExhaustedError&) {
    *stat = kStatOutOfMemory;
    return 0;
  } catch (const fabric::PeerFailedError&) {
    *stat = kStatFailedImage;  // a staged/in-flight put's target died
    return 0;
  }
}

void Runtime::deallocate_coarray_bytes(std::uint64_t off) {
  require_init();
  if (deferred()) rma_fence();
  conduit_.deallocate(off);
}

RemotePtr Runtime::nonsym_alloc(std::size_t bytes) {
  require_init();
  auto& st = per_image_[me()];
  auto got = st.slab->allocate(bytes);
  if (!got) {
    throw shmem::HeapExhaustedError("caf nonsym_alloc (managed slab)", bytes,
                                    st.slab->bytes_in_use(),
                                    st.slab->capacity());
  }
  if (*got > RemotePtr::kMaxOffset) {
    throw std::runtime_error("nonsym_alloc: offset exceeds 36-bit packing");
  }
  return RemotePtr(me(), *got);
}

void Runtime::nonsym_free(RemotePtr p) {
  require_init();
  if (p.image() != me()) {
    throw std::invalid_argument("nonsym_free: pointer belongs to another image");
  }
  per_image_[me()].slab->release(p.offset());
}

// ---------------------------------------------------------------------------
// Nonblocking RMA pipeline: write-combining aggregation + deferred quiet
// ---------------------------------------------------------------------------

void Runtime::agg_flush() {
  auto& img = per_image_[me()];
  if (img.agg_recs.empty()) return;
  ++img.stats.agg_flushes;
  const int target = img.agg_target;
  img.agg_target = -1;
  // Reset the stage BEFORE issuing: the conduit may throw PeerFailedError
  // (dead target), and the staged records are consumed either way — exactly
  // like nbi puts whose delivery fails after issue.
  const std::size_t used = img.agg_used;
  img.agg_used = 0;
  std::vector<fabric::ScatterRec> recs;
  recs.swap(img.agg_recs);
  conduit_.put_scatter(target, recs.data(), recs.size(),
                       local_addr(img.agg_chunk.offset()), used);
  recs.clear();
  img.agg_recs = std::move(recs);  // keep the capacity
}

void Runtime::rma_fence() {
  obs::Span sp(obs::Cat::kFence);
  if (rpc_engine_) rpc_engine_->progress();  // fence is an RPC progress point
  agg_flush();
  conduit_.quiet();  // tracker-elided when nothing is in flight
}

int Runtime::sync_memory_stat() {
  require_init();
  obs::Span sp(obs::Cat::kFence);
  int stat = kStatOk;
  // Flush and complete independently: a dead staged-chunk target must not
  // keep in-flight nbi puts to live targets from being retired — the
  // replication chain acks on "every *surviving* owner has the bytes".
  try {
    agg_flush();
  } catch (const fabric::PeerFailedError&) {
    stat = kStatFailedImage;
  }
  try {
    conduit_.quiet();
  } catch (const fabric::PeerFailedError&) {
    stat = kStatFailedImage;
  }
  return stat;
}

bool Runtime::stage_put(int rank0, std::uint64_t dst_off, const void* src,
                        std::size_t n) {
  if (!opts_.rma.write_combining || !per_image_[me()].agg_chunk) return false;
  if (n == 0 || n > kAggMaxPut) return false;
  auto& img = per_image_[me()];
  if (!img.agg_recs.empty() && img.agg_target != rank0) agg_flush();
  if (img.agg_used + n > kAggChunkBytes) agg_flush();
  conduit_.engine().advance(kAggStageCpuNs);
  std::byte* stage = local_addr(img.agg_chunk.offset());
  std::memcpy(stage + img.agg_used, src, n);
  if (!img.agg_recs.empty() &&
      img.agg_recs.back().dst_off + img.agg_recs.back().len == dst_off) {
    // The new bytes extend the previous record's destination range and the
    // staged payload is contiguous by construction: grow it in place.
    img.agg_recs.back().len += static_cast<std::uint32_t>(n);
  } else {
    img.agg_recs.push_back({dst_off, static_cast<std::uint32_t>(n),
                            static_cast<std::uint32_t>(img.agg_used)});
  }
  img.agg_target = rank0;
  img.agg_used += n;
  ++img.stats.agg_staged;
  if (img.agg_used >= kAggChunkBytes) agg_flush();
  return true;
}

void Runtime::pipelined_put(int rank0, std::uint64_t dst_off, const void* src,
                            std::size_t n) {
  if (stage_put(rank0, dst_off, src, n)) return;
  // Direct nbi put. If records to the same image are staged, they precede
  // this put in program order — flush them first; the transport's in-order
  // delivery then keeps the memory ordering.
  auto& img = per_image_[me()];
  if (!img.agg_recs.empty() && img.agg_target == rank0) agg_flush();
  conduit_.put(rank0, dst_off, src, n, /*nbi=*/true);
}

// ---------------------------------------------------------------------------
// RMA (§IV-B): quiet insertion per the paper's translation (eager mode), or
// nbi issue with deferred completion (pipeline mode)
// ---------------------------------------------------------------------------

void Runtime::put_bytes(int image, std::uint64_t dst_off, const void* src,
                        std::size_t n) {
  require_init();
  auto& st = per_image_[me()].stats;
  ++st.puts;
  st.put_bytes += n;
  if (deferred()) {
    pipelined_put(image - 1, dst_off, src, n);
    return;
  }
  conduit_.put(image - 1, dst_off, src, n, /*nbi=*/false);
  if (opts_.memory_model == MemoryModel::kStrict) conduit_.quiet();
}

void Runtime::get_bytes(void* dst, int image, std::uint64_t src_off,
                        std::size_t n) {
  require_init();
  auto& st = per_image_[me()].stats;
  ++st.gets;
  st.get_bytes += n;
  if (opts_.memory_model == MemoryModel::kStrict) {
    // A strict-mode get must observe this image's program-order-earlier
    // puts: flush staged records headed to the read target, then complete
    // in-flight puts — but only when the tracker shows any toward it.
    auto& img = per_image_[me()];
    if (!img.agg_recs.empty() && img.agg_target == image - 1) agg_flush();
    if (conduit_.pending(image - 1)) conduit_.quiet();
  }
  conduit_.get(dst, image - 1, src_off, n);
}

int Runtime::put_bytes_stat(int image, std::uint64_t dst_off, const void* src,
                            std::size_t n) {
  require_init();
  if (conduit_.engine().pe_declared(image - 1)) return kStatFailedImage;
  try {
    put_bytes(image, dst_off, src, n);
    // stat= demands synchronous failure reporting: in deferred mode the
    // failure would otherwise surface at some later fence, where no stat=
    // variable is in scope. Completing here keeps the Fortran contract —
    // the stat= put is itself a completion point.
    if (deferred()) rma_fence();
  } catch (const fabric::PeerFailedError&) {
    return kStatFailedImage;
  }
  return kStatOk;
}

int Runtime::get_bytes_stat(void* dst, int image, std::uint64_t src_off,
                            std::size_t n) {
  require_init();
  if (conduit_.engine().pe_declared(image - 1)) return kStatFailedImage;
  try {
    get_bytes(dst, image, src_off, n);
  } catch (const fabric::PeerFailedError&) {
    return kStatFailedImage;
  }
  return kStatOk;
}

// ---------------------------------------------------------------------------
// MCS coarray locks (§IV-D)
// ---------------------------------------------------------------------------

std::size_t Runtime::lock_cell_bytes() const {
  // Non-resilient: the bare MCS tail word. Resilient: tail, holder word,
  // repair mutex, then a 2-word {qnode_bits, pred_bits} record per image so
  // queue repair can reconstruct the waiter list after a failure.
  if (!resilient_) return sizeof(std::int64_t);
  return (3 + 2 * static_cast<std::size_t>(num_images())) *
         sizeof(std::int64_t);
}

CoLock Runtime::make_lock() {
  const std::uint64_t off = allocate_coarray_bytes(lock_cell_bytes());
  std::memset(local_addr(off), 0, lock_cell_bytes());
  conduit_.barrier();  // all images see an unlocked tail
  return CoLock{off};
}

void Runtime::free_lock(CoLock lck) {
  conduit_.barrier();
  deallocate_coarray_bytes(lck.tail_off);
}

namespace {
constexpr std::uint64_t kQnodeBytes = 2 * sizeof(std::int64_t);
constexpr std::uint64_t kLockedField = 0;
constexpr std::uint64_t kNextField = sizeof(std::int64_t);
// Resilient lock-cell layout, offsets from CoLock::tail_off.
constexpr std::uint64_t kTailWord = 0;
constexpr std::uint64_t kHolderWord = sizeof(std::int64_t);
constexpr std::uint64_t kRepairWord = 2 * sizeof(std::int64_t);
constexpr std::uint64_t kRecordsBase = 3 * sizeof(std::int64_t);
constexpr std::uint64_t kRecordBytes = 2 * sizeof(std::int64_t);
// Grant codes written into a waiter's qnode locked field.
constexpr std::int64_t kReclaimGrant = -1;  // lock reclaimed from a corpse
// A record's pred field between "record published" and "tail swap's result
// published": the member is in (or entering) the queue but its predecessor
// is not yet knowable.
constexpr std::int64_t kPendingPred = -1;
// Released qnodes sit out this much virtual time before slab reuse, so a
// late in-flight handoff or repair write cannot land in a recycled slot.
constexpr sim::Time kQuarantineNs = 10'000'000;  // 10 ms virtual
constexpr sim::Time kRepairBackoffNs = 2'000;    // repair-mutex retry gap
}  // namespace

std::uint8_t Runtime::next_epoch() {
  auto& e = per_image_[me()].qnode_epoch;
  e = static_cast<std::uint8_t>((e + 1) & RemotePtr::kMaxEpoch);
  return e;
}

void Runtime::quarantine_qnode(RemotePtr qn) {
  per_image_[me()].quarantine.emplace_back(
      qn, conduit_.engine().now() + kQuarantineNs);
}

void Runtime::drain_quarantine() {
  auto& q = per_image_[me()].quarantine;
  const sim::Time now = conduit_.engine().now();
  for (auto it = q.begin(); it != q.end();) {
    if (it->second <= now) {
      nonsym_free(it->first);
      it = q.erase(it);
    } else {
      ++it;
    }
  }
}

bool Runtime::holds_lock(CoLock lck, int image) const {
  return per_image_[me()].held.contains(LockKey{lck.tail_off, image});
}

void Runtime::lock(CoLock lck, int image) {
  require_init();
  obs::Span sp(obs::Cat::kLockAcquire, 0,
               static_cast<std::uint32_t>(image - 1));
  if (rpc_engine_) rpc_engine_->progress();  // image control = progress point
  if (deferred()) rma_fence();  // lock is an image-control completion point
  auto& st = per_image_[me()];
  const LockKey key{lck.tail_off, image};
  if (st.held.contains(key)) {
    throw std::logic_error("lock: image already holds this lock");
  }
  if (resilient_) {
    bool reclaimed = false;
    if (mcs_lock(lck, image, &reclaimed) != kStatOk) {
      // Fortran semantics: lock without stat= on a failed lock image is an
      // error termination.
      throw std::runtime_error("lock: lock variable's image has failed");
    }
    return;
  }
  // Allocate my qnode out of the managed non-symmetric buffer so the
  // predecessor/successor can reach it remotely (§IV-D).
  const RemotePtr qn = nonsym_alloc(kQnodeBytes);
  std::byte* q = local_addr(qn.offset());
  const std::int64_t one = 1, null = 0;
  std::memcpy(q + kLockedField, &one, sizeof one);   // locked = 1
  std::memcpy(q + kNextField, &null, sizeof null);   // next = nil
  const auto packed = static_cast<std::int64_t>(qn.bits());
  // Atomically splice myself onto the tail of the queue at image `image`.
  const std::int64_t pred_bits =
      conduit_.amo_swap(image - 1, lck.tail_off, packed);
  const RemotePtr pred = RemotePtr::from_bits(
      static_cast<std::uint64_t>(pred_bits));
  if (pred) {
    // Link into my predecessor's next field, then spin locally until the
    // predecessor hands the lock over by resetting my locked field. The
    // link rides nbi: delivery timing is identical, issue is cheaper.
    conduit_.put(pred.image(), pred.offset() + kNextField, &packed,
                 sizeof packed, /*nbi=*/true);
    conduit_.wait_until(qn.offset() + kLockedField, Cmp::kEq, 0);
  }
  ++st.stats.locks_acquired;
  st.held.emplace(key, qn);
}

int Runtime::mcs_lock(CoLock lck, int image, bool* reclaimed) {
  *reclaimed = false;
  drain_quarantine();
  sim::Engine& eng = conduit_.engine();
  auto& st = per_image_[me()];
  const int home = image - 1;
  if (eng.pe_declared(home)) return kStatFailedImage;
  const std::uint64_t L = lck.tail_off;
  const std::uint64_t my_rec =
      L + kRecordsBase + static_cast<std::uint64_t>(me()) * kRecordBytes;
  const RemotePtr slot = nonsym_alloc(kQnodeBytes);
  const RemotePtr qn = RemotePtr::with_epoch(me(), slot.offset(), next_epoch());
  std::byte* q = local_addr(qn.offset());
  const std::int64_t one = 1, null = 0;
  std::memcpy(q + kLockedField, &one, sizeof one);
  std::memcpy(q + kNextField, &null, sizeof null);
  const auto packed = static_cast<std::int64_t>(qn.bits());
  std::int64_t pred_bits = 0;
  try {
    // Publish my record *before* swapping onto the tail, so queue repair
    // can account for me from the instant my swap could land. nbi issue +
    // flush: the quiet is still needed (an AMO is not ordered behind a put
    // by the transport), but the cheap injection is.
    const std::int64_t rec[2] = {packed, kPendingPred};
    conduit_.put(home, my_rec, rec, sizeof rec, /*nbi=*/true);
    conduit_.quiet();
    pred_bits = conduit_.amo_swap(home, L + kTailWord, packed);
    // The pred-record update rides nbi; its flush merges with the next
    // phase's (holder word or predecessor link) single quiet.
    conduit_.put(home, my_rec + sizeof(std::int64_t), &pred_bits,
                 sizeof pred_bits, /*nbi=*/true);
  } catch (const fabric::PeerFailedError&) {
    quarantine_qnode(qn);
    return kStatFailedImage;
  }
  const RemotePtr pred =
      RemotePtr::from_bits(static_cast<std::uint64_t>(pred_bits));
  if (!pred) {
    // Uncontended: record myself as the holder and enter. One flush covers
    // both the pred-record update above and the holder word.
    try {
      conduit_.put(home, L + kHolderWord, &packed, sizeof packed,
                   /*nbi=*/true);
      conduit_.quiet();
    } catch (const fabric::PeerFailedError&) {
      quarantine_qnode(qn);
      return kStatFailedImage;
    }
    st.held.emplace(LockKey{L, image}, qn);
    ++st.stats.locks_acquired;
    return kStatOk;
  }
  // Link into the predecessor's next field. A dead predecessor (or one
  // that dies mid-put) is fine: the repair path below splices me in.
  if (!eng.pe_declared(pred.image())) {
    try {
      conduit_.put(pred.image(), pred.offset() + kNextField, &packed,
                   sizeof packed, /*nbi=*/true);
    } catch (const fabric::PeerFailedError&) {
    }
  }
  // Single flush for the pred-record update and the link put.
  conduit_.quiet();
  for (;;) {
    const std::int64_t g = read_local_i64(qn.offset() + kLockedField);
    if (g == 0 || g == kReclaimGrant) {
      if (g == kReclaimGrant) *reclaimed = true;
      st.held.emplace(LockKey{L, image}, qn);
      ++st.stats.locks_acquired;
      return kStatOk;
    }
    if (eng.pe_declared(home)) {
      quarantine_qnode(qn);
      return kStatFailedImage;
    }
    // Refresh my predecessor from the home-side record: queue repair may
    // have re-linked me behind someone else.
    std::int64_t cur_pred = 0;
    try {
      conduit_.get(&cur_pred, home, my_rec + sizeof(std::int64_t),
                   sizeof cur_pred);
    } catch (const fabric::PeerFailedError&) {
      quarantine_qnode(qn);
      return kStatFailedImage;
    }
    const RemotePtr p =
        RemotePtr::from_bits(static_cast<std::uint64_t>(cur_pred));
    if (cur_pred != kPendingPred && p && eng.pe_declared(p.image())) {
      // Dead predecessor: repair the queue (this may grant me the lock).
      if (repair_mutex_acquire(home, lck) != kStatOk) {
        quarantine_qnode(qn);
        return kStatFailedImage;
      }
      (void)mcs_rebuild(lck, image);
      repair_mutex_release(home, lck);
      continue;
    }
    // Predecessor looks alive: block until the grant lands or a
    // declaration ends the wait. Re-check the home first: the cur_pred get
    // above yields, a declaration landing in that window already ran the
    // failure hook, and the wait only ends on declarations after it starts
    // — blocking now would sleep through a grant that can never come.
    if (eng.pe_declared(home)) {
      quarantine_qnode(qn);
      return kStatFailedImage;
    }
    wait_fault(qn.offset() + kLockedField, Cmp::kNe, 1);
  }
}

int Runtime::lock_stat(CoLock lck, int image) {
  obs::Span sp(obs::Cat::kLockAcquire, 0,
               static_cast<std::uint32_t>(image - 1));
  // lock(lck[j], stat=s): STAT_LOCKED when the executing image already
  // holds the lock; no error termination (Fortran 2008 8.5.6). Under
  // failure recovery: STAT_FAILED_IMAGE without acquiring when the lock
  // variable's image is dead, and STAT_FAILED_IMAGE *with* the lock
  // acquired when it was reclaimed from a failed holder (exactly one
  // survivor observes the reclamation) — check holds_lock() to tell the
  // two apart.
  auto& st = per_image_[me()];
  if (st.held.contains(LockKey{lck.tail_off, image})) return kStatLocked;
  if (deferred() && fence_stat() != kStatOk) return kStatFailedImage;
  if (resilient_) {
    bool reclaimed = false;
    const int s = mcs_lock(lck, image, &reclaimed);
    if (s != kStatOk) return s;
    return reclaimed ? kStatFailedImage : kStatOk;
  }
  lock(lck, image);
  return kStatOk;
}

int Runtime::unlock_stat(CoLock lck, int image) {
  obs::Span sp(obs::Cat::kLockHandoff, 0,
               static_cast<std::uint32_t>(image - 1));
  auto& st = per_image_[me()];
  if (!st.held.contains(LockKey{lck.tail_off, image})) return kStatUnlocked;
  if (deferred() && fence_stat() != kStatOk) return kStatFailedImage;
  if (resilient_) return mcs_unlock(lck, image);
  unlock(lck, image);
  return kStatOk;
}

bool Runtime::try_lock(CoLock lck, int image) {
  require_init();
  obs::Span sp(obs::Cat::kLockAcquire, 0,
               static_cast<std::uint32_t>(image - 1));
  if (deferred()) rma_fence();
  auto& st = per_image_[me()];
  const LockKey key{lck.tail_off, image};
  if (st.held.contains(key)) return false;
  if (resilient_) return mcs_try_lock(lck, image);
  const RemotePtr qn = nonsym_alloc(kQnodeBytes);
  std::byte* q = local_addr(qn.offset());
  const std::int64_t one = 1, null = 0;
  std::memcpy(q + kLockedField, &one, sizeof one);
  std::memcpy(q + kNextField, &null, sizeof null);
  const auto packed = static_cast<std::int64_t>(qn.bits());
  const std::int64_t prev =
      conduit_.amo_cswap(image - 1, lck.tail_off, 0, packed);
  if (prev != 0) {
    nonsym_free(qn);
    return false;
  }
  st.held.emplace(key, qn);
  ++st.stats.locks_acquired;
  return true;
}

bool Runtime::mcs_try_lock(CoLock lck, int image) {
  drain_quarantine();
  sim::Engine& eng = conduit_.engine();
  auto& st = per_image_[me()];
  const int home = image - 1;
  // Dead lock image: fail fast instead of burning RMA timeouts.
  if (eng.pe_declared(home)) return false;
  const std::uint64_t L = lck.tail_off;
  const RemotePtr slot = nonsym_alloc(kQnodeBytes);
  const RemotePtr qn = RemotePtr::with_epoch(me(), slot.offset(), next_epoch());
  std::byte* q = local_addr(qn.offset());
  const std::int64_t one = 1, null = 0;
  std::memcpy(q + kLockedField, &one, sizeof one);
  std::memcpy(q + kNextField, &null, sizeof null);
  const auto packed = static_cast<std::int64_t>(qn.bits());
  try {
    if (conduit_.amo_cswap(home, L + kTailWord, 0, packed) != 0) {
      nonsym_free(qn);  // never published anywhere — safe to reuse at once
      return false;
    }
    // Record + holder word, so repair sees this acquisition.
    const std::int64_t rec[2] = {packed, 0};
    conduit_.put(home,
                 L + kRecordsBase +
                     static_cast<std::uint64_t>(me()) * kRecordBytes,
                 rec, sizeof rec, /*nbi=*/true);
    conduit_.put(home, L + kHolderWord, &packed, sizeof packed, /*nbi=*/true);
    conduit_.quiet();
  } catch (const fabric::PeerFailedError&) {
    quarantine_qnode(qn);
    return false;
  }
  st.held.emplace(LockKey{L, image}, qn);
  ++st.stats.locks_acquired;
  return true;
}

int Runtime::mcs_unlock(CoLock lck, int image) {
  drain_quarantine();
  sim::Engine& eng = conduit_.engine();
  auto& st = per_image_[me()];
  const LockKey key{lck.tail_off, image};
  const RemotePtr qn = st.held.at(key);
  st.held.erase(key);
  const int home = image - 1;
  const std::uint64_t L = lck.tail_off;
  if (eng.pe_declared(home)) {
    // The whole lock cell died with its image; nothing left to release.
    quarantine_qnode(qn);
    return kStatFailedImage;
  }
  const auto packed = static_cast<std::int64_t>(qn.bits());
  const std::int64_t zero2[2] = {0, 0};
  const int n = num_images();
  try {
    // Retire my record first: from here on, repair treats me as gone and
    // my bits in other records/tail as external.
    conduit_.put(home,
                 L + kRecordsBase +
                     static_cast<std::uint64_t>(me()) * kRecordBytes,
                 zero2, sizeof zero2, /*nbi=*/true);
    conduit_.quiet();  // retire must be visible before the tail CAS
    if (conduit_.amo_cswap(home, L + kTailWord, packed, 0) == packed) {
      quarantine_qnode(qn);
      return kStatOk;
    }
  } catch (const fabric::PeerFailedError&) {
    quarantine_qnode(qn);
    return kStatFailedImage;
  }
  // Someone swapped in behind me. Find them and hand over, repairing
  // around corpses as needed.
  for (;;) {
    std::int64_t next_bits = read_local_i64(qn.offset() + kNextField);
    if (eng.pe_declared(home)) {
      quarantine_qnode(qn);
      return kStatFailedImage;
    }
    if (next_bits != 0) {
      const RemotePtr succ =
          RemotePtr::from_bits(static_cast<std::uint64_t>(next_bits));
      if (!eng.pe_declared(succ.image())) {
        try {
          // Holder word first, then the grant: a successor that dies
          // between the two leaves the holder word naming a corpse, which
          // is exactly what repair keys on. Both ride nbi; when the
          // successor waits on the home image the transport's in-order
          // delivery already sequences them, so one flush suffices.
          conduit_.put(home, L + kHolderWord, &next_bits, sizeof next_bits,
                       /*nbi=*/true);
          if (succ.image() != home) conduit_.quiet();
          const std::int64_t grant = 0;
          conduit_.put(succ.image(), succ.offset() + kLockedField, &grant,
                       sizeof grant, /*nbi=*/true);
          conduit_.quiet();
          quarantine_qnode(qn);
          return kStatOk;
        } catch (const fabric::PeerFailedError&) {
          // fall through to repair
        }
      }
      // Dead successor: splice it out under the repair mutex; the rebuild
      // grants the first live waiter (or empties the queue).
      if (repair_mutex_acquire(home, lck) != kStatOk) {
        quarantine_qnode(qn);
        return kStatFailedImage;
      }
      (void)mcs_rebuild(lck, image);
      repair_mutex_release(home, lck);
      quarantine_qnode(qn);
      return kStatOk;
    }
    // next == 0 but the tail CAS failed: a successor exists somewhere in
    // the pipeline. Snapshot the records to see who.
    std::vector<std::int64_t> snap(static_cast<std::size_t>(3 + 2 * n));
    try {
      conduit_.get(snap.data(), home, L,
                   snap.size() * sizeof(std::int64_t));
    } catch (const fabric::PeerFailedError&) {
      quarantine_qnode(qn);
      return kStatFailedImage;
    }
    int succ_rank = -1;
    bool any_live_pending = false;
    for (int r = 0; r < n; ++r) {
      const std::int64_t qb = snap[static_cast<std::size_t>(3 + 2 * r)];
      const std::int64_t pb = snap[static_cast<std::size_t>(3 + 2 * r + 1)];
      if (qb == 0) continue;
      if (pb == packed) succ_rank = r;
      if (pb == kPendingPred && !eng.pe_declared(r)) any_live_pending = true;
    }
    if (succ_rank >= 0 && !eng.pe_declared(succ_rank)) {
      // Live direct successor: its link put is in flight; wait for it
      // (a declaration re-opens the scan).
      wait_fault(qn.offset() + kNextField, Cmp::kNe, 0);
      continue;
    }
    const RemotePtr tail = RemotePtr::from_bits(
        static_cast<std::uint64_t>(snap[0]));
    if (succ_rank >= 0 || (tail && eng.pe_declared(tail.image()))) {
      // My successor died (directly visible, or only as a dead tail whose
      // pred-publication never landed): repair. Re-check my next under the
      // mutex first — the link may have raced in.
      if (repair_mutex_acquire(home, lck) != kStatOk) {
        quarantine_qnode(qn);
        return kStatFailedImage;
      }
      if (read_local_i64(qn.offset() + kNextField) != 0) {
        repair_mutex_release(home, lck);
        continue;  // normal successor handling above
      }
      const RebuildResult rb = mcs_rebuild(lck, image);
      repair_mutex_release(home, lck);
      if (rb.granted || rb.queue_empty) {
        quarantine_qnode(qn);
        return kStatOk;
      }
      // A live member is still mid-enqueue; its own pass (or a link to my
      // next) resolves things — keep watching.
      continue;
    }
    if (!any_live_pending) {
      // Nobody's record names my qnode and nobody is mid-enqueue, so no
      // one can ever link to me: repair has already moved the queue past
      // my (retired) record. My handoff duty is void.
      quarantine_qnode(qn);
      return kStatOk;
    }
    // A live member is mid-enqueue and may turn out to be my direct
    // successor. Its publication doesn't touch my memory, so poll rather
    // than block.
    eng.advance(kRepairBackoffNs);
  }
}

int Runtime::repair_mutex_acquire(int home, CoLock lck) {
  sim::Engine& eng = conduit_.engine();
  const std::uint64_t mtx = lck.tail_off + kRepairWord;
  const std::int64_t mine = me() + 1;
  for (;;) {
    if (eng.pe_declared(home)) return kStatFailedImage;
    std::int64_t cur = 0;
    try {
      cur = conduit_.amo_cswap(home, mtx, 0, mine);
    } catch (const fabric::PeerFailedError&) {
      return kStatFailedImage;
    }
    if (cur == 0) return kStatOk;
    if (eng.pe_declared(static_cast<int>(cur) - 1)) {
      // The previous repairer died holding the mutex: steal it. The CAS
      // makes the steal race-free among surviving contenders.
      try {
        if (conduit_.amo_cswap(home, mtx, cur, mine) == cur) return kStatOk;
      } catch (const fabric::PeerFailedError&) {
        return kStatFailedImage;
      }
      continue;
    }
    eng.advance(kRepairBackoffNs);
  }
}

void Runtime::repair_mutex_release(int home, CoLock lck) {
  try {
    (void)conduit_.amo_cswap(home, lck.tail_off + kRepairWord, me() + 1, 0);
  } catch (const fabric::PeerFailedError&) {
    // Home died; the mutex died with it.
  }
}

Runtime::RebuildResult Runtime::mcs_rebuild(CoLock lck, int image) {
  // Runs under the repair mutex. Reconstructs the waiter queue from the
  // home-side acquisition records: splices out dead members, re-links the
  // survivors in (repaired) FIFO order, grants the lock when its recorded
  // holder is dead or gone, and swings a dead tail pointer back to the
  // last live member.
  RebuildResult out;
  sim::Engine& eng = conduit_.engine();
  const int home = image - 1;
  const std::uint64_t L = lck.tail_off;
  const int n = num_images();
  struct Node {
    int rank;
    std::int64_t qnode, pred;
    bool alive, pending;
  };
  auto rec_off = [&](int r) {
    return L + kRecordsBase + static_cast<std::uint64_t>(r) * kRecordBytes;
  };
  try {
    std::vector<std::int64_t> snap(static_cast<std::size_t>(3 + 2 * n));
    conduit_.get(snap.data(), home, L, snap.size() * sizeof(std::int64_t));
    const std::int64_t tail_bits = snap[0];
    const std::int64_t holder_bits = snap[1];
    std::vector<Node> nodes;
    std::vector<std::uint64_t> scrub;
    bool live_pending = false;
    for (int r = 0; r < n; ++r) {
      const std::int64_t qb = snap[static_cast<std::size_t>(3 + 2 * r)];
      if (qb == 0) continue;
      const std::int64_t pb = snap[static_cast<std::size_t>(3 + 2 * r + 1)];
      const bool alive = !eng.pe_declared(r);
      const bool pending = pb == kPendingPred;
      if (!alive && pending) {
        // Died mid-enqueue with its predecessor unknown: drop the record
        // entirely so pointers at it read as external.
        scrub.push_back(rec_off(r));
        continue;
      }
      if (alive && pending) live_pending = true;
      nodes.push_back(Node{r, qb, pb, alive, pending});
    }
    auto find = [&](std::int64_t bits) -> Node* {
      if (bits == 0) return nullptr;
      for (auto& nd : nodes)
        if (nd.qnode == bits) return &nd;
      return nullptr;
    };
    if (tail_bits == 0) {
      for (const auto& nd : nodes)
        if (!nd.alive) scrub.push_back(rec_off(nd.rank));
      for (const std::uint64_t off : scrub) {
        const std::int64_t z2[2] = {0, 0};
        conduit_.put(home, off, z2, sizeof z2, /*nbi=*/true);
      }
      conduit_.quiet();
      out.queue_empty = true;
      return out;
    }
    // Head: the recorded holder when its record is present; otherwise the
    // best candidate whose pred is null or names no present record (live
    // preferred, then lowest rank). Preferring live matters: picking a dead
    // candidate over a live (still-holding) one would grant a second owner.
    Node* head = find(holder_bits);
    if (head == nullptr) {
      for (auto& nd : nodes) {
        if (nd.pending) continue;
        if (nd.pred != 0 && find(nd.pred) != nullptr) continue;
        if (head == nullptr || (nd.alive && !head->alive)) head = &nd;
      }
    }
    // Walk successor edges (exact-bit pred matches; epochs make stale
    // pointers miss) to recover the FIFO order, then append live members
    // the chain lost track of, in rank order.
    std::vector<char> in_chain(nodes.size(), 0);
    std::vector<Node*> order;
    for (Node* cur = head; cur != nullptr;) {
      const auto idx = static_cast<std::size_t>(cur - nodes.data());
      if (in_chain[idx]) break;
      in_chain[idx] = 1;
      if (cur->alive) order.push_back(cur);
      Node* succ = nullptr;
      for (auto& nd : nodes) {
        const auto j = static_cast<std::size_t>(&nd - nodes.data());
        if (nd.pending || in_chain[j] || nd.pred != cur->qnode) continue;
        succ = &nd;
        break;
      }
      cur = succ;
    }
    // Members the chain lost track of sit behind a record the walk could
    // not cross. When a live member is still mid-enqueue, that is (or may
    // be) the crossing point: relinking a stranded member onto the prefix
    // would give some predecessor a second successor, and the enqueuer's
    // own link-put races the relink — last write wins and the loser is
    // orphaned with a live, already-departed predecessor it waits on
    // forever. The stranded members' real next-pointer links are intact
    // (they linked into the pending member at enqueue, and the pending
    // member links into its own predecessor once its record lands), so
    // leave them alone; only append when no live enqueue is in flight.
    if (!live_pending) {
      for (auto& nd : nodes) {
        const auto idx = static_cast<std::size_t>(&nd - nodes.data());
        if (nd.pending || in_chain[idx] || !nd.alive) continue;
        order.push_back(&nd);
      }
    }
    for (const auto& nd : nodes)
      if (!nd.alive) scrub.push_back(rec_off(nd.rank));
    // Re-link the surviving order: forward qnode next pointers plus the
    // home-side pred records (idempotent for pairs that were adjacent).
    for (std::size_t i = 1; i < order.size(); ++i) {
      const RemotePtr a =
          RemotePtr::from_bits(static_cast<std::uint64_t>(order[i - 1]->qnode));
      conduit_.put(a.image(), a.offset() + kNextField, &order[i]->qnode,
                   sizeof(std::int64_t), /*nbi=*/true);
      conduit_.put(home, rec_off(order[i]->rank) + sizeof(std::int64_t),
                   &order[i - 1]->qnode, sizeof(std::int64_t), /*nbi=*/true);
    }
    for (const std::uint64_t off : scrub) {
      const std::int64_t z2[2] = {0, 0};
      conduit_.put(home, off, z2, sizeof z2, /*nbi=*/true);
    }
    conduit_.quiet();
    // Grant when the recorded holder is not a live present member that
    // actually holds the lock. A reclaim grant (the head actually owned or
    // was entering ownership of the lock when it died) tells the grantee to
    // report STAT_FAILED_IMAGE.
    const Node* holder_node = find(holder_bits);
    bool held_live = holder_node != nullptr && holder_node->alive;
    if (held_live && !holder_node->pending && holder_node->pred != 0) {
      // A live member can be *named* by the holder word without holding:
      // the handoff is two puts (holder word, then the grant), and a
      // granter that dies between them leaves its successor named but
      // still waiting, with no predecessor left to wake it. When the named
      // holder's recorded predecessor is gone (dead, or retired from the
      // records), read its grant word: locked still 1 means the handoff
      // never completed and repair must deliver it. This is idempotent
      // with an in-flight grant from a live mid-handoff granter — both
      // write the same holder word and the same zero grant.
      const Node* hp = find(holder_node->pred);
      if (hp == nullptr || !hp->alive) {
        const RemotePtr hq = RemotePtr::from_bits(
            static_cast<std::uint64_t>(holder_node->qnode));
        std::int64_t hl = 0;
        conduit_.get(&hl, hq.image(), hq.offset() + kLockedField, sizeof hl);
        if (hl == 1) held_live = false;
      }
    }
    if (!order.empty() && !held_live) {
      conduit_.put(home, L + kHolderWord, &order[0]->qnode,
                   sizeof(std::int64_t), /*nbi=*/false);
      conduit_.quiet();
      std::int64_t grant = 0;
      if (head != nullptr && !head->alive &&
          (holder_bits == head->qnode || head->pred == 0)) {
        grant = kReclaimGrant;
      }
      const RemotePtr g =
          RemotePtr::from_bits(static_cast<std::uint64_t>(order[0]->qnode));
      conduit_.put(g.image(), g.offset() + kLockedField, &grant,
                   sizeof grant, /*nbi=*/false);
      conduit_.quiet();
      out.granted = true;
    }
    // A dead tail pointer: swing it to the last live member, or clear the
    // queue outright — unless a live member is still mid-enqueue (its swap
    // already landed in this tail chain), in which case leave it for that
    // member's own repair pass.
    const RemotePtr tp =
        RemotePtr::from_bits(static_cast<std::uint64_t>(tail_bits));
    if (tp && eng.pe_declared(tp.image())) {
      if (!order.empty() && !live_pending) {
        // Same caution as above: with a live enqueue in flight the relinked
        // order may be a strict prefix of the real queue, and swinging the
        // tail onto its last member would route new arrivals into next
        // fields the stranded suffix already owns.
        (void)conduit_.amo_cswap(home, L + kTailWord, tail_bits,
                                 order.back()->qnode);
      } else if (order.empty() && !live_pending) {
        if (conduit_.amo_cswap(home, L + kTailWord, tail_bits, 0) ==
            tail_bits) {
          out.queue_empty = true;
        }
      }
    }
  } catch (const fabric::PeerFailedError&) {
    // Home died mid-repair; callers re-check and bail out.
  }
  return out;
}

void Runtime::unlock(CoLock lck, int image) {
  require_init();
  obs::Span sp(obs::Cat::kLockHandoff, 0,
               static_cast<std::uint32_t>(image - 1));
  if (rpc_engine_) rpc_engine_->progress();  // image control = progress point
  // Release consistency: work done inside the critical section (staged or
  // in flight) completes before the lock can be handed to the next holder.
  if (deferred()) rma_fence();
  auto& st = per_image_[me()];
  const LockKey key{lck.tail_off, image};
  auto it = st.held.find(key);
  if (it == st.held.end()) {
    throw std::logic_error("unlock: image does not hold this lock");
  }
  if (resilient_) {
    if (mcs_unlock(lck, image) == kStatFailedImage) {
      throw std::runtime_error("unlock: lock variable's image has failed");
    }
    return;
  }
  const RemotePtr qn = it->second;
  st.held.erase(it);
  const auto packed = static_cast<std::int64_t>(qn.bits());
  // If I am still the tail, swing it back to nil and we are done.
  if (conduit_.amo_cswap(image - 1, lck.tail_off, packed, 0) == packed) {
    nonsym_free(qn);
    return;
  }
  // A successor exists but may not have linked yet: wait for my next field.
  conduit_.wait_until(qn.offset() + kNextField, Cmp::kNe, 0);
  std::int64_t succ_bits = 0;
  std::memcpy(&succ_bits, local_addr(qn.offset() + kNextField),
              sizeof succ_bits);
  const RemotePtr succ =
      RemotePtr::from_bits(static_cast<std::uint64_t>(succ_bits));
  // Hand over: reset the successor's locked field (nbi — the successor
  // wakes at delivery either way; the cheaper issue shortens handoff).
  const std::int64_t zero = 0;
  conduit_.put(succ.image(), succ.offset() + kLockedField, &zero, sizeof zero,
               /*nbi=*/true);
  nonsym_free(qn);
}

std::size_t Runtime::held_qnodes() const { return per_image_[me()].held.size(); }

void Runtime::begin_critical() { lock(CoLock{critical_off_}, 1); }
void Runtime::end_critical() { unlock(CoLock{critical_off_}, 1); }

// ---------------------------------------------------------------------------
// Events (extension)
// ---------------------------------------------------------------------------

CoEvent Runtime::make_event() {
  const std::uint64_t off = allocate_coarray_bytes(sizeof(std::int64_t));
  std::memset(local_addr(off), 0, sizeof(std::int64_t));
  conduit_.barrier();
  return CoEvent{off};
}

void Runtime::event_post(CoEvent ev, int image) {
  require_init();
  rma_fence();  // posted work must be visible before the count bumps
  (void)conduit_.amo_fadd(image - 1, ev.count_off, 1);
}

void Runtime::event_wait(CoEvent ev, std::int64_t until_count) {
  require_init();
  obs::Span sp(obs::Cat::kSyncWait);
  auto& consumed = per_image_[me()].event_consumed[ev.count_off];
  RpcParkGuard park(rpc_engine_.get(), me());
  conduit_.wait_until(ev.count_off, Cmp::kGe, consumed + until_count);
  consumed += until_count;
}

bool Runtime::event_test(CoEvent ev, std::int64_t until_count) {
  require_init();
  // A pure local probe: one read of the count cell, no blocking, no fiber
  // yield on either outcome. Success consumes like event_wait would.
  auto& consumed = per_image_[me()].event_consumed[ev.count_off];
  if (read_local_i64(ev.count_off) - consumed >= until_count) {
    consumed += until_count;
    return true;
  }
  return false;
}

std::int64_t Runtime::event_query(CoEvent ev) {
  require_init();
  return read_local_i64(ev.count_off) -
         per_image_[me()].event_consumed[ev.count_off];
}

int Runtime::event_post_stat(CoEvent ev, int image) {
  require_init();
  if (conduit_.engine().pe_declared(image - 1)) return kStatFailedImage;
  try {
    event_post(ev, image);
  } catch (const fabric::PeerFailedError&) {
    return kStatFailedImage;
  }
  return kStatOk;
}

int Runtime::event_wait_stat(CoEvent ev, std::int64_t until_count) {
  require_init();
  obs::Span sp(obs::Cat::kSyncWait);
  auto& consumed = per_image_[me()].event_consumed[ev.count_off];
  sim::Engine& eng = conduit_.engine();
  for (;;) {
    if (read_local_i64(ev.count_off) - consumed >= until_count) {
      // Only a satisfied wait advances the consumed ledger: a poster that
      // died mid-post must not leave the count debited below what actually
      // arrived (the classic accounting underflow).
      consumed += until_count;
      return kStatOk;
    }
    if (eng.declared_count() > 0) return kStatFailedImage;
    wait_fault(ev.count_off, Cmp::kGe, consumed + until_count);
  }
}

// ---------------------------------------------------------------------------
// Survivor teams (minimal FORM TEAM facility)
// ---------------------------------------------------------------------------

std::vector<int> Runtime::team_ranks(const Team& team) {
  std::vector<int> ranks;
  ranks.reserve(team.members.size());
  for (const int image : team.members) ranks.push_back(image - 1);
  return ranks;
}

Team Runtime::form_team(int* stat) {
  require_init();
  sim::Engine& eng = conduit_.engine();
  // Barrier with every currently-live image, then snapshot the survivors.
  // Two images' snapshots can differ only in images that died mid-formation
  // — which every team operation skips anyway, so the teams interoperate.
  auto live = [&] {
    Team t;
    for (int i = 1; i <= num_images(); ++i) {
      if (!eng.pe_declared(i - 1)) t.members.push_back(i);
    }
    return t;
  };
  (void)team_sync(live());
  const Team t = live();
  if (stat != nullptr) {
    *stat = eng.declared_count() > 0 ? kStatFailedImage : kStatOk;
  }
  return t;
}

int Runtime::team_sync(const Team& team) {
  require_init();
  ++per_image_[me()].stats.syncs;
  const int fence = fence_stat();
  // The engine's hierarchical dissemination barrier while nobody has failed
  // (an intra-node counter gather at each leader, log2(nodes) dissemination
  // rounds across leaders, an intra-node release); the failure-aware tree
  // barrier over the live members otherwise.
  RpcParkGuard park(rpc_engine_.get(), me());
  return team_stat(fence, coll_engine_->team_barrier(team_ranks(team)));
}

int Runtime::team_broadcast_bytes(const Team& team, void* data,
                                  std::size_t nbytes, int root_image) {
  require_init();
  if (!team.contains(root_image)) {
    throw std::invalid_argument("team_broadcast_bytes: root not a member");
  }
  obs::Span sp(obs::Cat::kBroadcast, nbytes,
               static_cast<std::uint32_t>(root_image - 1));
  const int fence = deferred() ? fence_stat() : kStatOk;
  RpcParkGuard park(rpc_engine_.get(), me());
  return team_stat(fence, coll_engine_->team_broadcast(
                              team_ranks(team), data, nbytes, root_image - 1));
}

int Runtime::team_coll_bytes(const Team& team, void* data, std::size_t nbytes,
                             const std::function<void(void*, const void*)>& comb) {
  require_init();
  if (team.members.empty()) return kStatFailedImage;
  obs::Span sp(obs::Cat::kReduce, nbytes);
  const int fence = deferred() ? fence_stat() : kStatOk;
  RpcParkGuard park(rpc_engine_.get(), me());
  return team_stat(fence,
                   coll_engine_->team_allreduce(team_ranks(team), data, nbytes,
                                                comb));
}

// ---------------------------------------------------------------------------
// Collectives (paper footnote 1: built from one-sided + atomics, or mapped
// to the conduit's native collectives per Table II)
// ---------------------------------------------------------------------------

void Runtime::coll_broadcast_bytes(void* data, std::size_t nbytes, int root0) {
  if (deferred()) rma_fence();  // collective = completion point for staged RMA
  if (num_images() == 1) return;
  const std::uint64_t slot = coll_slot_off_ +
                             static_cast<std::uint64_t>(kMaxRounds) * kSlotBytes;
  // Only the root stages its payload into the slot: a non-root image may
  // reach this point *after* the root's data already landed in its slot
  // (image clocks skew under contention), and staging would overwrite it.
  if (me() == root0) std::memcpy(local_addr(slot), data, nbytes);
  conduit_.native_broadcast(slot, nbytes, root0);
  std::memcpy(data, local_addr(slot), nbytes);
}

void Runtime::coll_reduce_bytes(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb) {
  if (deferred()) rma_fence();  // collective = completion point for staged RMA
  const int n = num_images();
  const std::size_t nbytes = nelems * elem;
  assert(nbytes <= kSlotBytes);
  if (n == 1) return;
  auto& st = per_image_[me()];
  const std::int64_t gen = ++st.coll_gen;
  // Binomial combine toward image 1 with a slot + flag per tree level,
  // then broadcast the result.
  int level = 0;
  for (int mask = 1; mask < n; mask <<= 1, ++level) {
    assert(level < kMaxRounds);
    const std::uint64_t slot =
        coll_slot_off_ + static_cast<std::uint64_t>(level) * kSlotBytes;
    const std::uint64_t flag =
        coll_flags_off_ + static_cast<std::uint64_t>(level) * sizeof(std::int64_t);
    if (me() & mask) {
      const int peer = me() - mask;
      // In-order same-pair delivery sequences payload before flag; the
      // sender leaves both puts in flight and lets the tracker retire them
      // at the next completion point instead of stalling here.
      conduit_.put(peer, slot, data, nbytes, /*nbi=*/true);
      conduit_.put(peer, flag, &gen, sizeof gen, /*nbi=*/true);
      break;
    }
    if (me() + mask < n) {
      conduit_.wait_until(flag, Cmp::kGe, gen);
      for (std::size_t i = 0; i < nelems; ++i) {
        comb(static_cast<std::byte*>(data) + i * elem,
             local_addr(slot) + i * elem);
      }
    }
  }
  coll_broadcast_bytes(data, nbytes, 0);
}

void Runtime::broadcast_bytes_any(void* data, std::size_t nbytes, int root0) {
  obs::Span sp(obs::Cat::kBroadcast, nbytes,
               static_cast<std::uint32_t>(root0));
  if (deferred()) rma_fence();  // collective = completion point for staged RMA
  // Collective boundary = RPC progress point; stay drainable while blocked
  // inside the collective's internal waits.
  RpcParkGuard park(rpc_engine_.get(), me());
  if (num_images() == 1 || nbytes == 0) return;
  const bool native =
      conduit_.has_native_collectives() && opts_.use_native_collectives;
  if (!native) {
    coll_engine_->broadcast(data, nbytes, root0);
    return;
  }
  // Native (Table II) mapping, chunked through the staging slot.
  auto* bytes = static_cast<std::byte*>(data);
  std::size_t remaining = nbytes;
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, kSlotBytes);
    coll_broadcast_bytes(bytes, chunk, root0);
    bytes += chunk;
    remaining -= chunk;
  }
}

void Runtime::allreduce_bytes_any(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb) {
  obs::Span sp(obs::Cat::kReduce, nelems * elem);
  if (deferred()) rma_fence();  // collective = completion point for staged RMA
  // Collective boundary = RPC progress point (see broadcast_bytes_any).
  RpcParkGuard park(rpc_engine_.get(), me());
  if (num_images() == 1 || nelems == 0) return;
  const bool native =
      conduit_.has_native_collectives() && opts_.use_native_collectives;
  if (!native) {
    coll_engine_->allreduce(data, nelems, elem, comb);
    return;
  }
  auto* bytes = static_cast<std::byte*>(data);
  std::size_t done = 0;
  const std::size_t per_chunk = std::max<std::size_t>(1, kSlotBytes / elem);
  while (done < nelems) {
    const std::size_t n = std::min(nelems - done, per_chunk);
    coll_reduce_bytes(bytes + done * elem, n, elem, comb);
    done += n;
  }
}

}  // namespace caf
