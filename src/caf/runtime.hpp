// caf::Runtime — the UHCAF-style Coarray Fortran runtime retargeted onto an
// abstract communication conduit (the paper's contribution, §IV).
//
// A single Runtime instance is shared by all image fibers (exactly like the
// real runtime's per-process state). Every image must call init() first —
// it collectively allocates the runtime's internal symmetric structures:
//
//   * the managed buffer ("slab") for non-symmetric remotely-accessible
//     data, out of which MCS-lock qnodes are carved (§IV-A, §IV-D);
//   * sync_images counters (one int64 per partner image);
//   * staging slots + flags for the native-collective mapping (Table II)
//     and the collectives engine's areas (paper footnote 1);
//   * the qnode hash table for currently-held locks.
//
// Image indices in the public API are 1-based, as in Fortran.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "caf/collectives.hpp"
#include "caf/conduit.hpp"
#include "caf/remote_ptr.hpp"
#include "caf/section.hpp"
#include "net/fault.hpp"
#include "net/node_channel.hpp"
#include "shmem/heap.hpp"

namespace caf {

/// Multi-dimensional strided transfer algorithm (§IV-C).
enum class StridedAlgo {
  kNaive,    ///< one contiguous put/get per element run
  kTwoDim,   ///< 2dim_strided: 1-D iput/iget along the best of dims 1-2
  kAdaptive, ///< §VII future work: cost model picks between contiguous-run
             ///< transfers and 1-D strided calls per section (accounts for
             ///< per-call overhead, per-element NIC gap, and run lengths)
  kAggregate,///< puts only: stage the runs through the write-combining
             ///< buffer so many small runs ship as few scatter messages
             ///< (requires Options::rma.write_combining; planner-eligible)
};

/// Completion-semantics policy for co-indexed RMA (§IV-B).
enum class MemoryModel {
  kStrict,   ///< insert quiet after puts / before gets (the paper's choice)
  kRelaxed,  ///< OpenSHMEM-native ordering; user must sync memory explicitly
};

/// When co-indexed puts complete (the nonblocking RMA pipeline).
enum class CompletionMode {
  kEager,    ///< quiet after every put — the paper's §IV-B translation
  kDeferred, ///< nbi issue; flush only at completion points (sync/atomic/
             ///< lock boundaries). Strict-mode *observable* semantics are
             ///< preserved: same-target ordering comes from the transport's
             ///< in-order delivery, and gets flush pending puts first.
};

/// Write-combining stage shape: the staging watermark per image, and the
/// largest put the stage absorbs (larger puts bypass it).
inline constexpr std::size_t kAggChunkBytes = 4096;
inline constexpr std::size_t kAggMaxPut = 512;

/// Tuning for the nonblocking RMA pipeline.
struct RmaOptions {
  CompletionMode completion = CompletionMode::kEager;
  /// Coalesce small puts to the same image into a staging chunk carved from
  /// the managed slab, shipped as one scatter message (needs kDeferred).
  bool write_combining = false;
  /// Merge adjacent innermost runs in strided transfers into one message.
  bool run_coalescing = true;
};

/// CPU cost (ns) of appending one put to the write-combining stage (a bounds
/// check, a descriptor store, and a short memcpy). Shared with the §VII
/// planner so the aggregated plan prices its staging honestly.
inline constexpr sim::Time kAggStageCpuNs = 15;

class RpcEngine;

/// Asynchronous remote-execution (RPC) subsystem tuning (DESIGN.md §4f).
/// `enabled` must be uniform across images (the engine's symmetric state is
/// allocated collectively inside init()). Existing runs keep byte-identical
/// timing with the default (off): no symmetric allocations, no progress
/// hooks, no extra state.
struct RpcOptions {
  bool enabled = false;
  /// Request transport. kMailbox emulates the OpenSHMEM signaling idiom:
  /// symmetric per-pair slot rings + a put/quiet/amo doorbell, drained by
  /// shmem_test-style polling at the runtime's progress points (no hidden
  /// progress thread). kAm rides the conduit's active-message machinery
  /// (GASNet only; handlers get implicit progress on the target CPU).
  /// kAuto picks kAm on the GASNet conduit and kMailbox elsewhere.
  enum class Transport { kAuto, kMailbox, kAm };
  Transport transport = Transport::kAuto;
  int slots_per_pair = 16;       ///< mailbox ring depth per (src, dst) pair
  std::size_t slot_bytes = 256;  ///< per-slot bytes (32-byte header + blob)
};

struct Options {
  StridedAlgo strided = StridedAlgo::kTwoDim;
  MemoryModel memory_model = MemoryModel::kStrict;
  /// Dispatch co_broadcast/co_* to the conduit's Table II native mappings
  /// (shmem_broadcast / <op>_to_all) instead of the topology-aware engine.
  /// Off by default: the engine's node-leader trees beat the flat native
  /// models at scale on every conduit (see bench/ablate_coll and the fig10
  /// Himeno series). The native path is the Table II ablation arm only;
  /// team-scoped and stat= synchronization always run on the engine.
  bool use_native_collectives = false;
  std::size_t nonsym_slab_bytes = 256 * 1024;
  RmaOptions rma;
  CollOptions coll;  ///< hierarchical collectives engine tuning
  /// Failure-detector and retransmit tunables for this run. When set, the
  /// harness copies them into the run's FaultPlan before arming the
  /// injector (the runtime itself never talks to the injector directly —
  /// it only consumes the engine's declared membership view). The CAF_FD_*
  /// environment family (see DetectorTunables::apply_env and
  /// RetryPolicy::apply_env) overrides these when present.
  std::optional<net::DetectorTunables> fd;
  /// Node-local shared-segment transport (net::NodeChannel): when enabled,
  /// same-node RMA completes via direct memory operations on a per-node
  /// shared symmetric heap — SPSC rings for small messages, NUMA-aware
  /// memcpy for bulk — with zero fabric messages. The Runtime constructor
  /// enables it on the conduit's fabric::Domain (conduits without a Domain
  /// ignore it). Off by default: existing runs stay byte-identical.
  net::NodeTransportOptions node;
  /// Asynchronous remote execution (caf::rpc / caf::rpc_ff; DESIGN.md §4f).
  RpcOptions rpc;
  /// Turn on the observability subsystem (per-PE event rings + latency
  /// histograms) for this run; equivalent to setting CAF_TRACE, minus the
  /// trace-file path. Counters are recorded regardless.
  bool trace = false;
};

/// Statistics returned by the strided engine (used by tests/benches to
/// verify message-count claims like "1*40*25 instead of 50*40*25").
struct StridedStats {
  std::size_t messages = 0;
  std::size_t elements = 0;
  std::size_t coalesced = 0;  ///< adjacent runs merged into a neighbor
};

/// Fortran stat= codes for image-control statements (the subset the
/// runtime can raise; the values mirror ISO_FORTRAN_ENV's spirit).
enum StatCode : int {
  kStatOk = 0,
  kStatLocked = 1,          ///< lock: executing image already holds it
  kStatUnlocked = 2,        ///< unlock: executing image does not hold it
  kStatLockedOtherImage = 3,///< (reserved; not raised by this runtime)
  kStatFailedImage = 4,     ///< Fortran 2018 STAT_FAILED_IMAGE: a peer died
  kStatOutOfMemory = 5      ///< allocate: symmetric heap exhausted
};

/// Per-image communication counters (a runtime tracing facility; handy for
/// verifying the §IV-C message-count claims on live programs).
struct ImageStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t strided_puts = 0;   // 1-D iput calls issued
  std::uint64_t put_bytes = 0;
  std::uint64_t get_bytes = 0;
  std::uint64_t locks_acquired = 0;
  std::uint64_t syncs = 0;          // sync all + sync images statements
  // --- nonblocking-pipeline observability ---
  std::uint64_t agg_staged = 0;     // puts absorbed by the staging chunk
  std::uint64_t agg_flushes = 0;    // scatter messages the chunk emitted
  std::uint64_t coalesced_runs = 0; // strided runs merged into a neighbor
};

/// Handle to a coarray lock variable (a symmetric 8-byte tail per image).
struct CoLock {
  std::uint64_t tail_off = 0;
};

/// Handle to a CAF event variable (an extension feature; counter-based).
struct CoEvent {
  std::uint64_t count_off = 0;
};

/// A survivor team (minimal Fortran 2018 FORM TEAM facility): the sorted
/// 1-based indices of the images that were alive when form_team() ran.
/// Team-scoped synchronization and collectives take a Team and skip (and
/// report) members that have since failed. One team is active at a time;
/// reform after each failure. Every live image calls the team operations
/// (and sync_all_stat / form_team) in the same order.
struct Team {
  std::vector<int> members;  // sorted, 1-based
  int num_images() const { return static_cast<int>(members.size()); }
  bool contains(int image) const {
    return std::find(members.begin(), members.end(), image) != members.end();
  }
  /// 1-based team rank of `image` (Fortran this_image(team)); 0 if absent.
  int rank_of(int image) const {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] == image) return static_cast<int>(i) + 1;
    }
    return 0;
  }
};

class Runtime {
 public:
  Runtime(Conduit& conduit, Options opts = {});
  ~Runtime();  // out of line: RpcEngine is incomplete here

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Collective; must be each image's first runtime call.
  void init();

  // ---- image inquiry (Table II: this_image/num_images → my_pe/num_pes) --
  int this_image() const { return conduit_.rank() + 1; }
  int num_images() const { return conduit_.nranks(); }

  Conduit& conduit() { return conduit_; }
  const Options& options() const { return opts_; }
  void set_strided_algo(StridedAlgo a) { opts_.strided = a; }
  /// The topology-aware collectives engine (valid after init(); null before).
  CollectiveEngine* coll_engine() { return coll_engine_.get(); }

  // ---- image control & synchronization ----
  void sync_all();                                  // sync all
  void sync_images(std::span<const int> images);    // sync images(list)
  void sync_memory() { rma_fence(); }               // sync memory
  /// `sync memory (stat=s)`: completion point that survives peer failure.
  /// Returns kStatFailedImage instead of throwing when an outstanding
  /// (staged or in-flight) put's target died — puts to *live* targets are
  /// still completed before it returns, so a replication chain can fence
  /// once, inspect the stat, and know every surviving replica has the data.
  int sync_memory_stat();

  // ---- failed-image semantics (Fortran 2018) ----
  /// IMAGE_STATUS(image): kStatFailedImage if the image has failed, else
  /// kStatOk. Image index is 1-based.
  int image_status(int image);
  /// FAILED_IMAGES(): sorted 1-based indices of all failed images.
  std::vector<int> failed_images();
  /// `sync all (stat=s)`: a barrier that survives image failure. Returns
  /// kStatOk when every image participated, kStatFailedImage once any
  /// image has failed (survivors still synchronize with each other and
  /// never hang waiting on the dead image).
  int sync_all_stat();
  /// `sync images(list, stat=s)`: pairwise sync that survives partner
  /// failure. Returns kStatFailedImage when any listed partner has failed
  /// (still synchronizing with the live ones); kStatOk otherwise.
  int sync_images_stat(std::span<const int> images);
  /// True while the in-band failure detector holds `image` in the suspect
  /// state (missed heartbeats, not yet declared). Advisory only — suspicion
  /// never changes membership; the replica layer uses it to steer reads
  /// away from a probably-dead primary before the declaration commits.
  /// Always false without an armed detector.
  bool image_suspect(int image) {
    return conduit_.engine().pe_suspected(image - 1);
  }
  /// The engine's monotone membership epoch (bumped per declared failure).
  /// Epoch-keyed layers (collective trees, replica ownership maps) cache
  /// derived state against this value.
  std::uint64_t membership_epoch() {
    return conduit_.engine().membership_epoch();
  }

  // ---- survivor teams (minimal FORM TEAM, Fortran 2018) ----
  /// Collective over the *live* images: barriers with every live peer and
  /// returns the surviving membership. Optional *stat receives
  /// kStatFailedImage when any image has failed (the team excludes them).
  Team form_team(int* stat = nullptr);
  /// Team-scoped barrier (`sync team`): synchronizes the live members and
  /// returns kStatFailedImage when any member has failed since formation.
  int team_sync(const Team& team);
  /// Team-scoped broadcast of at most CollectiveEngine::kTeamChunk bytes
  /// from `root_image` (a 1-based *global* index that must be a team
  /// member). Returns a StatCode; kStatFailedImage leaves `data` unchanged
  /// when the root's payload was lost with it.
  int team_broadcast_bytes(const Team& team, void* data, std::size_t nbytes,
                           int root_image);
  /// Team-scoped co_sum over the live members. Returns a StatCode.
  template <typename T>
  int co_sum_team(const Team& team, T* data, std::size_t nelems);

  // ---- symmetric (coarray) allocation; collective ----
  std::uint64_t allocate_coarray_bytes(std::size_t bytes);
  void deallocate_coarray_bytes(std::uint64_t off);
  /// `allocate(..., stat=s)`: never throws. Sets *stat to kStatOk and
  /// returns the offset on success; kStatOutOfMemory (heap exhausted) or
  /// kStatFailedImage (a peer died — the collective can no longer complete)
  /// with a 0 return otherwise.
  std::uint64_t allocate_coarray_bytes(std::size_t bytes, int* stat);

  /// Host address of a symmetric offset on a given 1-based image. Only the
  /// caller's own image may be written through this pointer; other images'
  /// addresses are for the runtime's delivery machinery and tests.
  /// Both resolve inline through the conduit's fabric::Domain: the calling
  /// image is the engine's current fiber, so one Runtime (and every Coarray
  /// on it) serves all images without caching a per-image base.
  std::byte* local_addr(std::uint64_t off) {
    return dom_.segment(me()) + off;
  }
  std::byte* image_addr(int image, std::uint64_t off) {
    return dom_.segment(image - 1) + off;
  }

  // ---- non-symmetric managed buffer (§IV-A) ----
  /// Allocates remotely-accessible memory local to this image; other images
  /// can reach it through the returned packed RemotePtr.
  RemotePtr nonsym_alloc(std::size_t bytes);
  void nonsym_free(RemotePtr p);

  // ---- co-indexed RMA with CAF completion semantics (§IV-B) ----
  void put_bytes(int image, std::uint64_t dst_off, const void* src,
                 std::size_t n);
  void get_bytes(void* dst, int image, std::uint64_t src_off, std::size_t n);
  /// stat= variants: return kStatFailedImage instead of throwing when the
  /// target image has failed (before or during the transfer).
  int put_bytes_stat(int image, std::uint64_t dst_off, const void* src,
                     std::size_t n);
  int get_bytes_stat(void* dst, int image, std::uint64_t src_off,
                     std::size_t n);

  // ---- multi-dimensional strided RMA (§IV-C) ----
  /// Puts `src_packed` (elements in section order, column-major) into the
  /// described section of a remote coarray whose storage starts at
  /// `base_off`. Honors opts_.strided unless `algo_override` is given.
  StridedStats put_strided(int image, std::uint64_t base_off,
                           std::size_t elem_bytes, const SectionDesc& dst,
                           const void* src_packed);
  StridedStats get_strided(void* dst_packed, int image, std::uint64_t base_off,
                           std::size_t elem_bytes, const SectionDesc& src);

  // ---- coarray locks: MCS adaptation (§IV-D) ----
  CoLock make_lock();             // collective
  void free_lock(CoLock);         // collective
  void lock(CoLock lck, int image);
  void unlock(CoLock lck, int image);
  /// Non-blocking acquire attempt (lock statement with acquired_lock=).
  bool try_lock(CoLock lck, int image);
  /// Fortran stat= variants: never throw; return a StatCode instead
  /// (lock(lck[j], stat=s) / unlock(lck[j], stat=s)).
  ///
  /// Failure-recovery semantics (F2018 11.6.10, active when kills are
  /// armed): if the lock variable's *owner image* has failed, lock_stat
  /// returns kStatFailedImage without acquiring. If the lock was held by an
  /// image that failed, the queue is repaired, the acquiring survivor gets
  /// the lock, and that acquisition — exactly one per reclamation — reports
  /// kStatFailedImage while still holding the lock (check holds_lock()).
  int lock_stat(CoLock lck, int image);
  int unlock_stat(CoLock lck, int image);
  /// True when this image currently holds lck[image].
  bool holds_lock(CoLock lck, int image) const;
  /// Number of qnodes currently held by this image (tests: "M+1" bound).
  std::size_t held_qnodes() const;

  // ---- critical construct ----
  void begin_critical();
  void end_critical();
  /// Symmetric offset of the CRITICAL construct's lock cell (for tests).
  std::uint64_t critical_offset() const { return critical_off_; }

  // ---- events (OpenUH extension features, §II-A) ----
  CoEvent make_event();           // collective
  void event_post(CoEvent ev, int image);
  void event_wait(CoEvent ev, std::int64_t until_count = 1);
  std::int64_t event_query(CoEvent ev);
  /// stat= variants: event_post_stat returns kStatFailedImage instead of
  /// throwing when the target image died; event_wait_stat gives up with
  /// kStatFailedImage once an image failure makes the count unreachable
  /// (the count is only consumed on a satisfied wait, so event_query never
  /// underflows when a poster died mid-post).
  int event_post_stat(CoEvent ev, int image);
  int event_wait_stat(CoEvent ev, std::int64_t until_count = 1);

  // ---- nonblocking synchronization probes (shmem_test-shaped) ----
  /// EVENT WAIT's nonblocking twin: true when `until_count` posts are
  /// available (and consumes them, exactly like a satisfied event_wait);
  /// false immediately otherwise. Never blocks, never yields the fiber, and
  /// performs no communication — it is a single local read of the event
  /// cell, the shape of shmem_test on the event's signal word.
  bool event_test(CoEvent ev, std::int64_t until_count = 1);
  /// SYNC IMAGES' nonblocking twin for one partner. The first probe of each
  /// round notifies the partner (fence + counter bump — a bounded, already-
  /// satisfiable-or-not round trip, never an unbounded wait) and returns
  /// whether the partner's matching notification has already arrived;
  /// subsequent probes are pure local reads of the sync counter until one
  /// succeeds, which completes the round (interoperating with a partner
  /// executing plain `sync images`). Never blocks or yields.
  bool sync_test(int image);

  // ---- asynchronous remote execution (caf::rpc / caf::rpc_ff, §4f) ----
  /// The RPC engine, or nullptr when Options::rpc.enabled is false.
  RpcEngine* rpc_engine() { return rpc_engine_.get(); }
  /// Explicit progress point: drains this image's request mailbox and runs
  /// any ready future continuations. No-op when RPC is off. The runtime
  /// calls this from its own progress points (fences, collectives, waits);
  /// user code may call it inside long compute loops.
  void rpc_progress();

  // ---- atomics on symmetric int64 cells (atomic_* intrinsics) ----
  // Atomics are completion points of the deferred pipeline in strict mode:
  // an atomic often publishes data written by preceding puts, so those puts
  // (staged or in flight) complete first. Free in eager mode — the
  // aggregation chunk is empty and the quiet is tracker-elided.
  std::int64_t atomic_fetch_add(int image, std::uint64_t off, std::int64_t v) {
    atomic_boundary();
    return conduit_.amo_fadd(image - 1, off, v);
  }
  std::int64_t atomic_cas(int image, std::uint64_t off, std::int64_t cond,
                          std::int64_t val) {
    atomic_boundary();
    return conduit_.amo_cswap(image - 1, off, cond, val);
  }
  std::int64_t atomic_swap(int image, std::uint64_t off, std::int64_t v) {
    atomic_boundary();
    return conduit_.amo_swap(image - 1, off, v);
  }
  std::int64_t atomic_fetch_and(int image, std::uint64_t off, std::int64_t m) {
    atomic_boundary();
    return conduit_.amo_fand(image - 1, off, m);
  }
  std::int64_t atomic_fetch_or(int image, std::uint64_t off, std::int64_t m) {
    atomic_boundary();
    return conduit_.amo_for(image - 1, off, m);
  }
  std::int64_t atomic_fetch_xor(int image, std::uint64_t off, std::int64_t m) {
    atomic_boundary();
    return conduit_.amo_fxor(image - 1, off, m);
  }
  void atomic_define(int image, std::uint64_t off, std::int64_t v) {
    atomic_boundary();
    (void)conduit_.amo_swap(image - 1, off, v);
  }
  std::int64_t atomic_ref(int image, std::uint64_t off) {
    atomic_boundary();
    return conduit_.amo_fadd(image - 1, off, 0);
  }

  // ---- collectives (co_broadcast / co_sum / co_min / co_max) ----
  template <typename T>
  void co_broadcast(T* data, std::size_t nelems, int source_image);
  template <typename T>
  void co_sum(T* data, std::size_t nelems) {
    co_reduce_impl(data, nelems, ReduceOp::kSum);
  }
  template <typename T>
  void co_min(T* data, std::size_t nelems) {
    co_reduce_impl(data, nelems, ReduceOp::kMin);
  }
  template <typename T>
  void co_max(T* data, std::size_t nelems) {
    co_reduce_impl(data, nelems, ReduceOp::kMax);
  }

  // ---- tracing ----
  /// Snapshot of this image's communication counters since init/reset.
  const ImageStats& stats() const { return per_image_[me()].stats; }
  void reset_stats() { per_image_[me()].stats = ImageStats{}; }

 private:
  friend struct RuntimeTestPeer;
  friend class RpcEngine;  // mailbox transport uses wait_fault

  struct LockKey {
    std::uint64_t tail_off;
    int image;  // 1-based
    bool operator==(const LockKey&) const = default;
  };
  struct LockKeyHash {
    std::size_t operator()(const LockKey& k) const {
      return std::hash<std::uint64_t>()(k.tail_off * 1'000'003u +
                                        static_cast<std::uint64_t>(k.image));
    }
  };

  void require_init() const;
  int me() const { return dom_.current_pe(); }

  // ---- nonblocking RMA pipeline (write combining + deferred quiet) ----
  bool deferred() const {
    return opts_.rma.completion == CompletionMode::kDeferred;
  }
  /// Completion point: flush the write-combining chunk, then complete every
  /// outstanding nbi put. Cheap no-op when nothing is in flight.
  void rma_fence();
  /// Strict-mode atomics are completion points (see the atomic_* wrappers).
  void atomic_boundary() {
    if (opts_.memory_model == MemoryModel::kStrict) rma_fence();
  }
  /// Ship the staged records as one scatter message; no-op when empty.
  void agg_flush();
  /// Try to absorb a put into the staging chunk. False when staging is off,
  /// the put is too large, or the target image has no room (after an
  /// implicit watermark/target-switch flush).
  bool stage_put(int rank0, std::uint64_t dst_off, const void* src,
                 std::size_t n);
  /// Deferred-path put: staged when small, direct nbi otherwise (flushing
  /// the chunk first when it targets the same image, for program order).
  void pipelined_put(int rank0, std::uint64_t dst_off, const void* src,
                     std::size_t n);

  /// Engine failure hook (scheduler context, runs per declaration): lets
  /// the collectives engine hand results to team-operation members the
  /// death strands (CollectiveEngine::serve_stranded), then, in ascending
  /// rank order, ends through fabric::Domain::end_wait the wait of every
  /// survivor inside wait_fault() or waiting in sync images on the dead
  /// image, so stat= syncs, robust locks, events, RPC waits and team
  /// operations observe the failure instead of sleeping forever. No
  /// symmetric memory is written but serve_stranded's results.
  void handle_image_failure(int failed_pe, sim::Time at);

  // ---- failure-recovery machinery ----
  std::int64_t read_local_i64(std::uint64_t off);
  /// Blocks on a local cell like Conduit::wait_until (any cmp), until the
  /// condition holds or a failure declaration after the call ends the wait;
  /// the caller re-reads the cell and the membership to tell which. The
  /// block is an RPC progress point unless the image is already parked.
  /// The collectives engine waits through this same primitive.
  void wait_fault(std::uint64_t off, Cmp cmp, std::int64_t value);
  /// sync images' wait for `partner` (0-based) to reach this image's
  /// current sync point with it: true once it has, false when it is
  /// declared failed first.
  bool await_partner(int partner);

  // Robust MCS lock internals (epoch-stamped qnodes + home-side queue
  // records + CAS queue repair). See runtime.cpp for the protocol.
  std::size_t lock_cell_bytes() const;
  int mcs_lock(CoLock lck, int image, bool* reclaimed);
  int mcs_unlock(CoLock lck, int image);
  bool mcs_try_lock(CoLock lck, int image);
  int repair_mutex_acquire(int home, CoLock lck);
  void repair_mutex_release(int home, CoLock lck);
  struct RebuildResult {
    bool queue_empty = false;
    bool granted = false;  // some live member was granted the lock
  };
  RebuildResult mcs_rebuild(CoLock lck, int image);
  void quarantine_qnode(RemotePtr qn);
  void drain_quarantine();
  std::uint8_t next_epoch();

  /// co_sum_team's per-chunk step: a team allreduce of one opaque chunk.
  int team_coll_bytes(const Team& team, void* data, std::size_t nbytes,
                      const std::function<void(void*, const void*)>& comb);
  /// Fence before a stat= image-control statement: kStatFailedImage when
  /// an outstanding put's target died, kStatOk otherwise.
  int fence_stat();
  /// Folds an engine team operation's "degraded" verdict into a StatCode.
  static int team_stat(int fence, bool degraded) {
    return fence != kStatOk || degraded ? kStatFailedImage : kStatOk;
  }
  /// 0-based ranks of the team's members (the engine's team argument).
  static std::vector<int> team_ranks(const Team& team);

  // Table II native mapping (use_native_collectives), staged through the
  // runtime's internal slots: a binomial combine toward image 1 followed by
  // the conduit's native broadcast.
  void coll_broadcast_bytes(void* data, std::size_t nbytes, int root0);
  void coll_reduce_bytes(void* data, std::size_t nelems, std::size_t elem,
                         const std::function<void(void*, const void*)>& comb);
  /// Whole-payload broadcast/allreduce dispatch: the conduit's native
  /// collective (Table II) when enabled, else the hierarchical engine.
  void broadcast_bytes_any(void* data, std::size_t nbytes, int root0);
  void allreduce_bytes_any(void* data, std::size_t nelems, std::size_t elem,
                           const std::function<void(void*, const void*)>& comb);
  template <typename T>
  void co_reduce_impl(T* data, std::size_t nelems, ReduceOp op);

  Conduit& conduit_;
  fabric::Domain& dom_;  ///< the conduit's rma_domain(): segments, current PE
  Options opts_;
  bool inited_ = false;
  std::unique_ptr<CollectiveEngine> coll_engine_;
  std::unique_ptr<RpcEngine> rpc_engine_;

  // Internal symmetric offsets (identical across images).
  std::uint64_t slab_off_ = 0;       // non-symmetric managed buffer
  std::uint64_t sync_ctrs_off_ = 0;  // num_images int64 counters
  std::uint64_t coll_flags_off_ = 0; // kMaxRounds + 1 int64 flags
  std::uint64_t coll_slot_off_ = 0;  // kSlotBytes staging area
  std::uint64_t critical_off_ = 0;   // global critical-section lock tail
  bool sync_offsets_ready_ = false;  // init() finished allocating above
  bool failure_hook_registered_ = false;
  /// Kills are armed for this run (Engine::kills_armed at init time): the
  /// lock cells carry the extended robust layout and locks run the
  /// failure-recovery MCS protocol. Off by default so fault-free runs keep
  /// the original lock RMA sequences bit-for-bit.
  bool resilient_ = false;

  static constexpr int kMaxRounds = 16;
  static constexpr std::size_t kSlotBytes = 8192;

  // Per-image runtime state, indexed by 0-based rank. Each fiber only
  // touches its own entry.
  struct PerImage {
    std::unique_ptr<shmem::FreeListAllocator> slab;
    std::unordered_map<LockKey, RemotePtr, LockKeyHash> held;
    std::unordered_map<int, std::int64_t> sync_sent;  // partner rank -> count
    /// Partners this image has already notified for the current sync_test
    /// round (the first probe sends; later probes only poll).
    std::unordered_map<int, bool> sync_probe_pending;
    std::unordered_map<std::uint64_t, std::int64_t> event_consumed;
    std::int64_t coll_gen = 0;
    ImageStats stats;
    // --- failure-recovery state ---
    std::uint8_t qnode_epoch = 0;  // per-acquisition epoch stamp (wraps)
    /// The partner whose declaration ends this image's current sync images
    /// wait (-1 outside one); the failure hook leaves the wait of any other
    /// partner running.
    int sync_wait = -1;
    /// Released qnodes parked until stale in-flight writes (late handoffs /
    /// repair grants targeting the old acquisition) can no longer land in a
    /// reused slot.
    std::vector<std::pair<RemotePtr, sim::Time>> quarantine;
    // --- write-combining aggregation (deferred pipeline) ---
    RemotePtr agg_chunk;   ///< staging memory carved from this image's slab
    int agg_target = -1;   ///< 0-based rank the chunk targets; -1 when empty
    std::size_t agg_used = 0;                 ///< staged payload bytes
    std::vector<fabric::ScatterRec> agg_recs; ///< staged records
  };
  std::vector<PerImage> per_image_;
};

// ---------------------------------------------------------------------------
// Collective templates
// ---------------------------------------------------------------------------

template <typename T>
void Runtime::co_broadcast(T* data, std::size_t nelems, int source_image) {
  static_assert(std::is_trivially_copyable_v<T>);
  require_init();
  // Whole-payload dispatch: chunking (and pipelining above one slot) is the
  // engine's job, not the template's.
  broadcast_bytes_any(data, nelems * sizeof(T), source_image - 1);
}

template <typename T>
int Runtime::co_sum_team(const Team& team, T* data, std::size_t nelems) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= CollectiveEngine::kTeamChunk);
  require_init();
  int stat = kStatOk;
  std::size_t done = 0;
  const std::size_t per_chunk = CollectiveEngine::kTeamChunk / sizeof(T);
  while (done < nelems) {
    const std::size_t n = std::min(nelems - done, per_chunk);
    // The combiner works on a whole staged chunk (team_coll_bytes is
    // element-size agnostic).
    auto combine = [n](void* a, const void* b) {
      for (std::size_t i = 0; i < n; ++i) {
        T x, y;
        std::memcpy(&x, static_cast<std::byte*>(a) + i * sizeof(T), sizeof(T));
        std::memcpy(&y, static_cast<const std::byte*>(b) + i * sizeof(T),
                    sizeof(T));
        x = x + y;
        std::memcpy(static_cast<std::byte*>(a) + i * sizeof(T), &x, sizeof(T));
      }
    };
    const int st = team_coll_bytes(team, data + done, n * sizeof(T), combine);
    if (st != kStatOk) stat = st;
    done += n;
  }
  return stat;
}

template <typename T>
void Runtime::co_reduce_impl(T* data, std::size_t nelems, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  require_init();
  auto combine = [op](void* a, const void* b) {
    T x, y;
    std::memcpy(&x, a, sizeof(T));
    std::memcpy(&y, b, sizeof(T));
    switch (op) {
      case ReduceOp::kSum: x = x + y; break;
      case ReduceOp::kMin: x = y < x ? y : x; break;
      case ReduceOp::kMax: x = x < y ? y : x; break;
      default: break;
    }
    std::memcpy(a, &x, sizeof(T));
  };
  allreduce_bytes_any(data, nelems, sizeof(T), combine);
}

}  // namespace caf
