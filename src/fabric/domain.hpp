// Domain: the functional core of every simulated RDMA-capable fabric API.
//
// A Domain binds together the DES engine, a net::Fabric timing oracle, and a
// software profile, and actually moves bytes between the registered memory
// segments of simulated PEs at the virtual times the oracle dictates:
//
//   * put        — payload captured at issue (OpenSHMEM local-completion
//                  semantics), memcpy'd into the target segment at delivery.
//   * get        — target memory snapshotted at the request's service time,
//                  initiator blocked until the reply arrives.
//   * amo        — read-modify-write executed in the delivery event at the
//                  target (atomicity is trivial: one event at a time).
//   * iput/iget  — NIC-offloaded 1-D strided transfers (only when the
//                  profile has hw_strided; software stacks loop puts above).
//   * quiet      — block until every remote completion this PE issued has
//                  landed.
//
// On that core sits the one synchronisation layer every runtime shares
// (DESIGN.md §6): a parked flag wait (wait_until) and a dissemination barrier
// whose round flags go out through a runtime-supplied FlagSend (a put, an
// nbi put, or a GASNet active message). Every delivery — put, scatter and
// strided records, AMO, poke — wakes the waiter whose flag word it overlaps
// by a direct call; there is no write hook.
//
// The vendor-style APIs (fabric::verbs, fabric::dmapp), the OpenSHMEM
// transports, and the MPI-3 RMA subset are all thin veneers over Domain with
// different profiles and capability surfaces.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/model.hpp"
#include "net/node_channel.hpp"
#include "sim/engine.hpp"

namespace fabric {

/// Thrown by one-sided operations when the reliable-delivery layer gave up:
/// the retransmit budget was exhausted because the peer is dead (or loss is
/// sustained beyond the RetryPolicy's budget). Carries enough context for
/// runtimes to map it to language-level failure codes (STAT_FAILED_IMAGE).
class PeerFailedError : public std::runtime_error {
 public:
  PeerFailedError(const char* op, int src_pe, int dst_pe, int attempts,
                  sim::Time t);

  const char* op() const { return op_; }
  int src_pe() const { return src_pe_; }
  int dst_pe() const { return dst_pe_; }
  int attempts() const { return attempts_; }
  sim::Time time() const { return time_; }

 private:
  const char* op_;
  int src_pe_;
  int dst_pe_;
  int attempts_;
  sim::Time time_;
};

/// Remote atomic operation kinds (the OpenSHMEM/DMAPP AMO set used by the
/// paper: swap, compare-and-swap, fetch-add, fetch-inc, and bitwise ops).
enum class AmoOp {
  kSwap,
  kCompareSwap,
  kFetchAdd,
  kFetchAnd,
  kFetchOr,
  kFetchXor,
};

/// The word AMO `op` leaves in a target word holding `old`: `operand` is the
/// swap/add/mask value, `cond` kCompareSwap's comparand. Empty when a
/// compare-and-swap fails and the word is not written.
inline std::optional<std::uint64_t> amo_apply(AmoOp op, std::uint64_t old,
                                              std::uint64_t operand,
                                              std::uint64_t cond) {
  switch (op) {
    case AmoOp::kSwap: return operand;
    case AmoOp::kCompareSwap:
      if (old != cond) return std::nullopt;
      return operand;
    case AmoOp::kFetchAdd: return old + operand;
    case AmoOp::kFetchAnd: return old & operand;
    case AmoOp::kFetchOr: return old | operand;
    case AmoOp::kFetchXor: return old ^ operand;
  }
  return std::nullopt;
}

/// One record of a scatter (write-combining) put: `len` payload bytes
/// starting at `payload_off` in the packed payload land at `dst_off` in the
/// target segment. Mirrors the iovec-style descriptors of ARMCI_PutV, MPI
/// indexed datatypes, and the GASNet access-region idiom.
struct ScatterRec {
  std::uint64_t dst_off;    ///< destination offset in the target segment
  std::uint32_t len;        ///< bytes for this record
  std::uint32_t payload_off;///< source offset in the packed payload
};

/// Wire overhead charged per scatter record: an (offset, length) header
/// travels with each record in the packed message.
inline constexpr std::size_t kScatterRecWire = 12;

/// Slab pool of intrusive records (any type with a `T* next` link): a free
/// list in front of bump allocation out of fixed-size slabs, so steady-state
/// acquire/release never touch the heap. A record comes back as its last
/// user left it; the issue site writes every field it uses.
template <typename T>
class SlabPool {
 public:
  T* acquire() {
    if (free_ != nullptr) {
      T* r = free_;
      free_ = r->next;
      return r;
    }
    if (bump_left_ == 0) {
      slabs_.push_back(std::make_unique_for_overwrite<Slab>());
      bump_ = slabs_.back()->items;
      bump_left_ = kSlabItems;
    }
    --bump_left_;
    return bump_++;
  }
  void release(T* r) {
    r->next = free_;
    free_ = r;
  }

 private:
  static constexpr std::size_t kSlabItems = 256;
  struct Slab {
    T items[kSlabItems];
  };
  std::vector<std::unique_ptr<Slab>> slabs_;
  T* free_ = nullptr;
  T* bump_ = nullptr;
  std::size_t bump_left_ = 0;
};

/// Power-of-two size-class pool for payload buffers. Buffers are recycled
/// through per-class free lists (the next pointer lives in the buffer's
/// first bytes while free); everything is freed when the pool dies.
class BufPool {
 public:
  std::byte* acquire(std::size_t n, std::uint8_t* cls_out);
  void release(std::byte* p, std::uint8_t cls);
  ~BufPool();

 private:
  std::byte* free_[48] = {};
  std::vector<std::byte*> all_;
};

/// Comparison operators for flag waits (shmem_wait_until's set).
enum class Cmp { kEq, kNe, kGt, kGe, kLt, kLe };

/// True when `v cmp ref` holds.
inline bool compare(std::int64_t v, Cmp cmp, std::int64_t ref) {
  switch (cmp) {
    case Cmp::kEq: return v == ref;
    case Cmp::kNe: return v != ref;
    case Cmp::kGt: return v > ref;
    case Cmp::kGe: return v >= ref;
    case Cmp::kLt: return v < ref;
    case Cmp::kLe: return v <= ref;
  }
  return false;
}

/// The epoch of a wait_until that no failure declaration ends.
inline constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

/// An OpenSHMEM active set: the PEs PE_start + k*2^logPE_stride for
/// k in [0, PE_size). The classic triplet addressing of the 1.x
/// collectives, and the member set of Domain::barrier.
struct ActiveSet {
  int pe_start = 0;
  int log_pe_stride = 0;
  int pe_size = 1;

  int stride() const { return 1 << log_pe_stride; }
  int world_pe(int rel) const { return pe_start + rel * stride(); }
  /// Relative rank of a world PE in this set, or -1 if not a member.
  int rel_of(int pe) const {
    const int d = pe - pe_start;
    if (d < 0 || d % stride() != 0) return -1;
    const int rel = d / stride();
    return rel < pe_size ? rel : -1;
  }
};

/// How a barrier round's flag reaches its peer: `fn(ctx, me, now, peer,
/// off, gen, pair)` sends `gen` from PE `me` at its clock `now` to the
/// int64 at `off` in `peer`'s segment. Same contract as Domain::put_at: it
/// prices and queues the send but neither advances a clock nor throws, and
/// a send the transport gave up on comes back with `ok` false; `pair` is
/// put_at's pair-id cache for the round.
struct FlagSend {
  net::PutCompletion (*fn)(void* ctx, int me, sim::Time now, int peer,
                           std::uint64_t off, std::int64_t gen,
                           std::uint32_t* pair);
  void* ctx;
  const char* op;  ///< PeerFailedError's op when a send fails
};

class Domain {
 public:
  /// One segment of `segment_bytes` is allocated per PE; segments are
  /// symmetric (same size, addressable by (pe, offset)).
  Domain(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
         std::size_t segment_bytes);

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  int npes() const { return fabric_.npes(); }
  std::size_t segment_bytes() const { return segment_bytes_; }
  const net::SwProfile& sw() const { return sw_; }
  net::Fabric& fabric() { return fabric_; }
  sim::Engine& engine() { return engine_; }

  /// Base address of `pe`'s segment (host pointer; valid for local reads
  /// and for the delivery machinery).
  std::byte* segment(int pe) {
    assert(pe >= 0 && pe < npes());
    return segments_[pe].data();
  }
  const std::byte* segment(int pe) const {
    assert(pe >= 0 && pe < npes());
    return segments_[pe].data();
  }

  /// The PE whose fiber is running (fabric operations need one).
  int current_pe() const {
    sim::Fiber* f = engine_.current_fiber();
    assert(f != nullptr && "fabric operations require a PE fiber context");
    return f->pe();
  }

  /// Enables the node-local shared-segment transport: same-node puts, gets,
  /// strided/scatter transfers, and AMOs complete via direct memory
  /// operations priced by a net::NodeChannel (SPSC rings for small
  /// messages, NUMA-aware memcpy for bulk) and produce zero fabric
  /// messages. Byte movement still rides the per-pair in-order streams, so
  /// delivery ordering — and with it same-seed reproducibility — is
  /// unchanged. Elided fabric traffic is counted under the obs `node.*`
  /// family. No-op when `opts.enabled` is false; idempotent.
  void enable_node_transport(const net::NodeTransportOptions& opts);
  /// The active node transport, or nullptr when disabled.
  net::NodeChannel* node_transport() { return node_.get(); }
  const net::NodeChannel* node_transport() const { return node_.get(); }

  // ---- one-sided operations; must be called from the issuing PE's fiber ----

  /// Contiguous put. Returns after local completion (source reusable);
  /// remote completion is tracked for quiet(). If `pipelined`, the call
  /// models a non-blocking-implicit (nbi) injection. The returned times let
  /// callers with stronger semantics (e.g. GASNet's remotely-blocking
  /// gasnet_put) wait for the delivery themselves.
  net::PutCompletion put(int dst_pe, std::uint64_t dst_off, const void* src,
                         std::size_t n, bool pipelined = false);

  /// The body of put() for PE `me` at its clock `now`: prices the put,
  /// captures the payload and queues the message, but neither advances the
  /// clock nor throws. A message the reliable-delivery layer gave up on
  /// comes back with `ok` false and is not queued. Callable from the
  /// scheduler (a parked fiber's gate, see sim::Engine::park); put() is
  /// put_at() plus the advance to local completion and the
  /// PeerFailedError. The range must lie within the segment.
  ///
  /// `pair`, when given, caches the (me, dst_pe) pair id for a caller that
  /// puts to the same peer again and again: a queued put that finds
  /// kNoPair there looks the id up (minting it on first contact, as every
  /// put does) and stores it; later puts skip the lookup.
  net::PutCompletion put_at(int me, sim::Time now, int dst_pe,
                            std::uint64_t dst_off, const void* src,
                            std::size_t n, bool pipelined,
                            std::uint32_t* pair = nullptr);
  /// An empty put_at pair-id cache.
  static constexpr std::uint32_t kNoPair = ~std::uint32_t{0};

  /// Writes `n` bytes into `dst_pe`'s segment immediately (at the current
  /// scheduler event's virtual time `t`) and wakes an overlapping waiter.
  /// Used by active-message handlers, which mutate target memory from the
  /// scheduler context rather than through the NIC.
  void poke(int dst_pe, std::uint64_t dst_off, const void* src, std::size_t n,
            sim::Time t);

  /// Contiguous get; blocks the calling fiber until data is available.
  void get(void* dst, int src_pe, std::uint64_t src_off, std::size_t n);

  /// Vectored (write-combining) put: a single wire message carrying a packed
  /// payload plus kScatterRecWire bytes of header per record; each record is
  /// applied (memcpy + wake) at delivery. This is the transport for
  /// iovec-style interfaces (ARMCI_PutV, MPI indexed datatypes, GASNet
  /// access regions) and the CAF runtime's aggregation buffer.
  net::PutCompletion put_scatter(int dst_pe, const ScatterRec* recs,
                                 std::size_t nrecs, const void* payload,
                                 std::size_t payload_bytes,
                                 bool pipelined = true);

  /// NIC-offloaded 1-D strided put: nelems elements of elem_bytes, source
  /// stride sst elements, destination stride dst elements (strides in
  /// *elements* as in shmem_iput). Requires sw().hw_strided.
  void iput_hw(int dst_pe, std::uint64_t dst_off, std::ptrdiff_t dst_stride,
               const void* src, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems,
               bool pipelined = false);

  /// NIC-offloaded 1-D strided get; blocks until complete.
  void iget_hw(void* dst, std::ptrdiff_t dst_stride, int src_pe,
               std::uint64_t src_off, std::ptrdiff_t src_stride,
               std::size_t elem_bytes, std::size_t nelems);

  /// 64-bit remote atomic; blocks until the fetched value returns.
  /// `operand` is the swap/add/mask value; `cond` only used by kCompareSwap.
  std::uint64_t amo(AmoOp op, int dst_pe, std::uint64_t dst_off,
                    std::uint64_t operand, std::uint64_t cond = 0);

  /// Blocks until all puts/AMOs issued by this PE have remotely completed.
  void quiet();

  /// Ordering fence. In this model fence is implemented as quiet (the
  /// strongest legal implementation; see DESIGN.md).
  void fence() { quiet(); }

  /// Largest remote-completion timestamp outstanding for `pe`.
  sim::Time outstanding(int pe) const { return outstanding_[pe]; }

  // ---- flag waits and barriers (DESIGN.md §6), on PE `me`'s fiber ----

  /// Rounds a barrier supports: up to 2^16 members.
  static constexpr int kMaxRounds = 16;

  /// Parks PE `me` until the int64 at `off` in its own segment satisfies
  /// `cmp value`. Each delivery overlapping that word runs the test again on
  /// the scheduler; the fiber is switched in only once it passes. A stall
  /// report names `op` as the PE's blocking operation.
  ///
  /// `epoch` is the sim::Engine::membership_epoch() the caller started at:
  /// once a failure declaration has moved the engine past it, the wait ends
  /// whatever the word holds — at once if it already has, else when
  /// end_wait() or a delivery next runs the test. kNoEpoch never ends.
  void wait_until(int me, std::uint64_t off, Cmp cmp, std::int64_t value,
                  const char* op, std::uint64_t epoch = kNoEpoch);

  /// Ends PE `pe`'s wait_until at time `t` (scheduler context) when the
  /// PE is parked in one whose epoch a declaration has moved past; any
  /// other wait, and a PE not parked, is left as it is.
  void end_wait(int pe, sim::Time t);

  /// Dissemination barrier of PE `me` over the members of `as`: in round r
  /// it sends `gen` to rank + 2^r through `send`, then waits until round
  /// r's flag, at flags_off + 8r, holds `gen` or later (it is tagged `op`
  /// meanwhile). Flag values are monotone generations, so the slots are
  /// reused without sense reversal. Runs parked like wait_until; a send the
  /// transport gave up on throws PeerFailedError(send.op, ...) at its local
  /// completion. The set has at least two members.
  void barrier(int me, const ActiveSet& as, std::uint64_t flags_off,
               std::int64_t gen, FlagSend send, const char* op);

  /// The FlagSend that puts the flag with put_at (`pipelined` as in put).
  FlagSend put_flags(bool pipelined) {
    return {pipelined ? &put_flag<true> : &put_flag<false>, this, "put"};
  }

 private:
  void note_outstanding(int src_pe, sim::Time t);

  // ---- node-local transport ----
  //
  // When node_ is set and the destination shares the issuing PE's node, the
  // one-sided ops below route through it: the NodeChannel supplies
  // (local_complete, delivered) times — ring push or NUMA memcpy — and the
  // message then joins the same pair stream/clamp machinery as fabric
  // traffic. Faults are always honored on this path (the shared segment of
  // a killed peer is detached; stragglers copy slowly).

  bool node_routed(int src_pe, int dst_pe) const {
    return node_ != nullptr && fabric_.same_node(src_pe, dst_pe);
  }
  /// Cached per-PE obs counter handles for the node.* family.
  struct NodeTele {
    std::uint64_t* puts = nullptr;
    std::uint64_t* gets = nullptr;
    std::uint64_t* amos = nullptr;
    std::uint64_t* scatters = nullptr;
    std::uint64_t* strided = nullptr;
    std::uint64_t* ring_msgs = nullptr;
    std::uint64_t* ring_stalls = nullptr;
    std::uint64_t* bulk_msgs = nullptr;
    std::uint64_t* numa_remote = nullptr;
    std::uint64_t* elided_msgs = nullptr;
    std::uint64_t* elided_bytes = nullptr;
  };
  NodeTele& node_tele(int pe);
  /// Prices a same-node one-way transfer from `me` at `now` (ring when
  /// small and contiguous, NUMA memcpy otherwise) with fault dilation and
  /// bumps ring/bulk telemetry. `extra_copy` carries per-element/record
  /// gaps (forces the bulk path). Returns {local_complete, delivered}, with
  /// `ok` false when the peer's segment is detached before delivery.
  net::PutCompletion node_oneway(int me, sim::Time now, int dst_pe,
                                 std::size_t wire_bytes, sim::Time extra_copy,
                                 NodeTele& t);

  // ---- pair streams ----
  //
  // All puts (contiguous, scatter, strided) ride per-(src, dst) in-order
  // delivery streams. A pair gets a dense pair id on first use (per-src
  // open-addressed map, SoA state arrays indexed by pair id — no nested
  // npes-sized rows, which at 16k PEs used to cost gigabytes). Each queued
  // message is a pooled PendingMsg with a pooled payload buffer; exactly
  // one engine event per stream is armed at a time, carrying the head
  // message's *reserved* sequence number so the global (time, seq) pop
  // order — and therefore every simulated result — is byte-identical to
  // scheduling one event per message.

  struct PendingMsg {
    enum class Op : std::uint8_t { kContig, kScatter, kStrided };

    PendingMsg* next;       ///< FIFO link within the pair stream
    sim::Time t;            ///< clamped delivery time
    std::uint64_t seq;      ///< engine seq reserved at the issue site
    int dst_pe;
    Op op;
    std::uint8_t buf_cls;   ///< payload buffer size class (log2 capacity)
    std::uint32_t elem_bytes;    // kStrided
    std::uint32_t nelems;        // kStrided: elements; kScatter: records
    std::uint64_t dst_off;       // kContig / kStrided base offset
    std::ptrdiff_t dst_stride;   // kStrided, in elements
    std::uint32_t payload_bytes; // payload length within buf
    std::uint32_t payload_off;   // kScatter: payload start (after records)
    std::byte* buf;              ///< pooled; records (scatter) + payload
  };

  /// Dense pair ids: per-src open-addressed map dst -> id (linear probing,
  /// power-of-two capacity). Communication degree per PE is small in every
  /// workload (tree fan-ins, halo neighbors), so tables stay tiny.
  std::uint32_t pair_id(int src_pe, int dst_pe);

  /// In-order (RC-style) delivery clamp for one pair: a message never lands
  /// before an earlier message on the same pair, even when the timing
  /// oracle produced an inversion (size inversion on the intra-node path,
  /// loss retransmits). Strictly increasing: a timestamp tie would let a
  /// later message's memcpy run in the same event batch as the earlier
  /// one's wake, and a waiter woken by a data+flag pair must get to consume
  /// the slot before the pair's next generation lands on it. This is the
  /// same-pair point-to-point ordering real RDMA transports give, and the
  /// property the CAF deferred-quiet pipeline relies on for WAW safety.
  sim::Time clamp_in_order(std::uint32_t pair, sim::Time delivered) {
    sim::Time& last = fifo_last_[pair];
    last = delivered > last ? delivered : last + 1;
    return last;
  }

  /// Queues `m` on its pair stream; arms the stream's delivery event if the
  /// stream was idle. `m->t`/`m->seq` must already be set.
  void stream_append(std::uint32_t pair, PendingMsg* m);
  /// Sends the filled message `m` from `me` with completion `c`: clamps
  /// `c.delivered` in order on the pair, records it as outstanding, stamps
  /// `m` with it and a reserved seq, and appends it to the stream.
  /// `cached` is put_at's pair-id cache.
  void enqueue(int me, PendingMsg* m, net::PutCompletion& c,
               std::uint32_t* cached = nullptr);
  /// The blocking tail of every put: advances the caller to `c`'s local
  /// completion, then throws PeerFailedError if `c` failed.
  net::PutCompletion complete_local(const char* op, int me, int dst_pe,
                                    const net::PutCompletion& c);
  /// Delivery event body: applies the head message of `pair`, recycles it,
  /// and re-arms the stream for the next message (at its own reserved seq).
  void stream_fire(std::uint32_t pair);
  static void stream_fire_tramp(void* ctx, std::uint64_t pair, std::uint64_t);
  void apply(const PendingMsg& m);

  // ---- round trips (get, iget, AMO; DESIGN.md §6) ----
  //
  // One pooled RoundTrip record and two raw events. Exec, at the target's
  // read time, gathers the source elements (or applies the AMO and keeps
  // the old word) into a pooled buffer; it runs even for a killed
  // initiator. Completion copies the buffer to the initiator, unless it was
  // killed and its frame unwound, and resumes it.
  struct RoundTrip {
    RoundTrip* next{};            ///< pool link
    sim::Fiber* fiber{};          ///< blocked initiator
    std::byte* dst{};             ///< initiator's destination
    std::byte* buf{};             ///< pooled snapshot / fetched word
    std::uint64_t off{};          ///< target offset (element 0 / AMO word)
    std::ptrdiff_t src_stride{};  ///< in elements
    std::ptrdiff_t dst_stride{};  ///< in elements
    std::size_t elem_bytes{};
    std::size_t nelems{};
    std::uint64_t operand{};      ///< AMO operand
    std::uint64_t cond{};         ///< kCompareSwap comparand
    sim::Time exec{};             ///< target read / RMW time
    sim::Time complete{};         ///< reply time at the initiator
    int pe{};                     ///< target PE
    bool amo{};                   ///< AMO (op) rather than a read
    AmoOp op{};
    std::uint8_t buf_cls{};
  };

  /// Get (one element of `elem_bytes`) and iget_hw: prices the read on the
  /// node or fabric route, then blocks on a round trip. `strided` selects
  /// the NIC-gathered pricing.
  void read(bool strided, void* dst, std::ptrdiff_t dst_stride, int src_pe,
            std::uint64_t src_off, std::ptrdiff_t src_stride,
            std::size_t elem_bytes, std::size_t nelems);
  /// Pools `rec` for the calling fiber (with a buffer), schedules its
  /// events and blocks until completion.
  void round_trip(const char* op, const RoundTrip& rec);
  static void round_trip_exec(void* ctx, std::uint64_t rec, std::uint64_t);
  static void round_trip_complete(void* ctx, std::uint64_t rec,
                                  std::uint64_t);

  /// Zero-initialized segment storage backed by calloc so large segments
  /// get lazily-zeroed pages from the OS (simulations with thousands of
  /// PEs would otherwise spend their time memset-ing untouched memory).
  class ZeroedBuffer {
   public:
    ZeroedBuffer() = default;
    explicit ZeroedBuffer(std::size_t n);
    ~ZeroedBuffer();
    ZeroedBuffer(ZeroedBuffer&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
    ZeroedBuffer& operator=(ZeroedBuffer&& o) noexcept {
      std::swap(p_, o.p_);
      return *this;
    }
    ZeroedBuffer(const ZeroedBuffer&) = delete;
    ZeroedBuffer& operator=(const ZeroedBuffer&) = delete;
    std::byte* data() { return p_; }
    const std::byte* data() const { return p_; }

   private:
    std::byte* p_ = nullptr;
  };

  sim::Engine& engine_;
  net::Fabric& fabric_;
  std::unique_ptr<net::NodeChannel> node_;  ///< null = fabric-only (default)
  std::vector<NodeTele> node_tele_;
  net::SwProfile sw_;
  std::size_t segment_bytes_;
  std::vector<ZeroedBuffer> segments_;
  std::vector<sim::Time> outstanding_;

  SlabPool<PendingMsg> msg_pool_;
  SlabPool<RoundTrip> rt_pool_;
  BufPool buf_pool_;
  struct PairSlot {
    int dst;           ///< -1 marks an empty slot
    std::uint32_t id;
  };
  struct PairTable {
    std::vector<PairSlot> slots;  ///< power-of-two, linear probing
    std::uint32_t count = 0;
  };
  std::vector<PairTable> pair_map_;   ///< per-src dst -> dense pair id
  // SoA per-pair stream state, indexed by pair id.
  std::vector<sim::Time> fifo_last_;  ///< latest delivery scheduled on pair
  std::vector<PendingMsg*> head_;     ///< oldest queued message (FIFO)
  std::vector<PendingMsg*> tail_;

  // ---- parked waits ----

  /// What a PE parked in a barrier or wait_until still has to do: the
  /// dissemination rounds left (none for a plain wait), each a flag send
  /// and then a flag test. Kept per PE, not in the parked fiber's frame:
  /// the gate of every parked PE reads it, and dense state stays in cache
  /// where 16k fiber stacks do not. A PE runs one fiber, so it has at most
  /// one wait at a time, and its watcher is this record's flag word.
  struct Wait {
    sim::Fiber* fiber = nullptr;
    std::uint64_t off = 0;       ///< flag under test
    bool watching = false;       ///< a delivery overlapping `off` wakes fiber
    bool test_due = false;       ///< the flag test comes before the next round
    Cmp cmp = Cmp::kGe;
    std::int64_t value = 0;      ///< tested against; also what rounds send
    std::uint64_t epoch = kNoEpoch;  ///< wait_until's; barriers never end
    const char* op = nullptr;    ///< block-op tag while the test fails
    ActiveSet as;                ///< barrier members (pe_size 1: no rounds)
    int rel = 0;                 ///< the PE's rank in `as`
    int dist = 1;                ///< next round's distance; done at >= pe_size
    std::uint64_t flags_off = 0; ///< round r's flag lies at flags_off + 8r
    FlagSend send{};
    int failed_peer = -1;        ///< a round's send the transport gave up on
    int failed_attempts = 0;
    sim::Time failed_at = 0;     ///< that send's give-up time
    /// The pair id of each round's send, kept across waits (see restart):
    /// a round's peer is fixed for a given PE and member set, so the pair
    /// lookup runs once per peer, not once per send.
    struct RoundPair {
      int peer = -1;
      std::uint32_t id = kNoPair;
    };
    std::array<RoundPair, kMaxRounds> round_pairs{};

    /// Starts a new wait: every field back to its default but round_pairs.
    void restart() {
      const std::array<RoundPair, kMaxRounds> keep = round_pairs;
      *this = Wait{};
      round_pairs = keep;
    }
  };

  /// PE `me`'s wait record, ready for a new wait.
  Wait& start_wait(int me, const char* op);
  /// Parks the calling PE until its wait is done, via sim::Engine::park
  /// with wait_gate, then throws PeerFailedError if a round's send failed.
  void park(int me);
  static bool wait_gate(void* ctx, std::uint64_t pe);
  /// Runs PE `me`'s wait as far as it can go now; true once it is done.
  bool step(int me);
  /// Called at every delivery into `pe`'s segment: resumes its waiter, at
  /// `t`, when [off, off + len) overlaps the watched word.
  void wake(int pe, std::uint64_t off, std::size_t len, sim::Time t) {
    if (waits_.empty()) return;
    Wait& w = waits_[static_cast<std::size_t>(pe)];
    if (w.watching && w.off < off + len && off < w.off + sizeof(std::int64_t)) {
      w.watching = false;
      engine_.resume(*w.fiber, t);
    }
  }
  /// True once a declaration has moved the engine past `w`'s epoch.
  bool ended(const Wait& w) const {
    return w.epoch < engine_.membership_epoch();
  }
  template <bool kPipelined>
  static net::PutCompletion put_flag(void* domain, int me, sim::Time now,
                                     int peer, std::uint64_t off,
                                     std::int64_t gen, std::uint32_t* pair) {
    return static_cast<Domain*>(domain)->put_at(me, now, peer, off, &gen,
                                                sizeof gen, kPipelined, pair);
  }

  std::vector<Wait> waits_;  ///< per PE; sized at the first wait
};

}  // namespace fabric
