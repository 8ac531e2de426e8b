// Topology-aware hierarchical collectives engine.
//
// The paper builds CAF collectives from one-sided puts + flag waits
// (footnote 1) or maps them to the conduit's native calls (Table II). This
// engine replaces the runtime's ad-hoc binomial trees with a family of
// algorithms that exploit the node map derivable from SwProfile::
// cores_per_node:
//
//   * kFlat              — root-centric reference (linear fan-out / linear
//                          gather-combine); the conformance baseline.
//   * kBinomial          — classic binomial tree over all images (the
//                          pre-engine algorithm, kept as an arm).
//   * kTwoLevel          — node-leader hierarchy: intra-node stage over
//                          the node transport's shared-segment copies when
//                          it is on (Options::node), k-nomial tree across
//                          node leaders for the inter-node stage.
//   * kRecursiveDoubling — allreduce without a root for small payloads
//                          (log2 P rounds instead of reduce + broadcast).
//   * kPipelined         — segmented streaming through a contiguous binary
//                          tree with ack-window flow control, for payloads
//                          larger than one staging slot.
//
// kAuto picks per call by pricing the candidate trees off the SwProfile
// (latency/overhead/bandwidth), the same way the §VII strided planner
// prices its transfer plans.
//
// Correctness notes:
//   * All arms combine in ascending image order (a binomial receiver merges
//     the contiguous block [me+mask, me+2*mask); recursive doubling merges
//     index-order-aware), so non-commutative but associative reductions get
//     the same rank-order fold from every arm.
//   * Data-then-flag put pairs rely on the transport's in-order same-pair
//     delivery; per_target_completion=false restores the pre-engine
//     quiet-between-puts sequence for A/B measurement.
//   * Broadcast staging slots form a ring of kBcBanks generation banks.
//     Successive generations land in distinct cells, and a bank is only
//     reused W generations later, after an engine barrier has proven every
//     image consumed it (a producer with no receives — a broadcast root —
//     can otherwise stream arbitrarily far ahead of a lagging consumer and
//     overwrite a slot it has not read yet). The window barrier runs at
//     most once per kBcBanks generations.
//
// Team operations (sync team, co_sum_team, FORM TEAM, sync all (stat=)) run
// the arms above over the whole payload while nobody has failed, and finish
// failure-aware over the live members' TreePlan otherwise (DESIGN.md §4a).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "caf/conduit.hpp"

namespace caf {

/// Failure-aware distribution tree over an arbitrary live-member set,
/// rebuilt whenever the engine's cached membership epoch moves. Node
/// leaders (the first live member on each node) form a radix-R tree rooted
/// at the lowest member; the remaining members on a node hang off their
/// leader. Edges are indexed by absolute 0-based rank so a dead member
/// simply has no edges.
struct TreePlan {
  std::uint64_t epoch = ~std::uint64_t{0};  ///< membership epoch built for
  std::vector<int> members;                 ///< live ranks, ascending
  std::vector<int> parent;                  ///< by rank; -1 = root/non-member
  std::vector<std::vector<int>> children;   ///< by rank
};

enum class CollAlgo {
  kAuto,
  kFlat,
  kBinomial,
  kTwoLevel,
  kRecursiveDoubling,
  kPipelined,
};

/// Fixed shape of the collectives engine's trees and staging areas.
inline constexpr int kKnomialRadix = 4;  ///< inter-node leader-tree radix
inline constexpr std::size_t kRdMaxBytes = 2048;  ///< recursive-doubling cap
inline constexpr std::size_t kPipeChunk = 8192;   ///< pipelined segment size
inline constexpr int kPipeDepth = 4;  ///< in-flight segments per tree edge

/// Tuning for the hierarchical collectives engine.
struct CollOptions {
  CollAlgo broadcast = CollAlgo::kAuto;  ///< force a broadcast arm
  CollAlgo reduce = CollAlgo::kAuto;     ///< force a reduction arm
  /// Data put followed by flag put with no quiet between them (per-target
  /// completion via in-order same-pair delivery). False restores the
  /// pre-engine put+quiet+flag sequence — the ablation baseline.
  bool per_target_completion = true;
  /// Use the node map at all; false treats the machine as flat (every image
  /// its own node), which disables the two-level arms.
  bool hierarchical = true;
};

/// Per-image engine counters (tests/benches verify the message-locality and
/// pipelining claims with these).
struct CollTelemetry {
  std::uint64_t broadcasts = 0;
  std::uint64_t reductions = 0;
  std::uint64_t barriers = 0;
  std::uint64_t inter_node_msgs = 0;  ///< data/flag puts that crossed nodes
  std::uint64_t intra_node_msgs = 0;  ///< puts that stayed on the node
  std::uint64_t chunks_pipelined = 0; ///< segments streamed up/down trees
  std::uint64_t team_plan_rebuilds = 0;///< tree plans rebuilt (epoch moved /
                                       ///< membership changed)
};

class CollectiveEngine {
 public:
  using Combine = std::function<void(void*, const void*)>;
  /// Blocking wait on a local cell that a failure declaration can cut
  /// short (the runtime's wait_fault); the caller re-reads the cell.
  using FaultWait = std::function<void(std::uint64_t, Cmp, std::int64_t)>;

  CollectiveEngine(Conduit& conduit, const CollOptions& opts, FaultWait wait)
      : conduit_(conduit), opts_(opts), wait_(std::move(wait)) {}

  /// Collective: allocates the engine's symmetric staging areas. Every image
  /// must call in the same program order relative to other allocations.
  void init();

  /// Whole-payload broadcast from 0-based `root0`; the engine owns chunking
  /// and, above kPipeChunk, pipelining.
  void broadcast(void* data, std::size_t nbytes, int root0);

  /// Whole-payload allreduce; `comb(a, b)` folds one element `b` into `a`
  /// and every arm applies it in ascending image order.
  void allreduce(void* data, std::size_t nelems, std::size_t elem,
                 const std::function<void(void*, const void*)>& comb);

  /// Hierarchical dissemination barrier: intra-node counter gather at the
  /// leader, dissemination rounds across leaders only, intra-node release.
  void barrier();

  /// Failure hook (scheduler context, once per declaration, before the
  /// runtime ends the survivors' waits). A member still inside a team operation
  /// whose parent or child in the new epoch's plan already finished it is
  /// handed that neighbour's result: the neighbour may never enter another
  /// team operation, which is where it would otherwise hand it over.
  void serve_stranded(sim::Time at);

  // ---- failure-aware team operations ----
  // `members` are the team's 0-based ranks, ascending; every live member
  // calls the same team operations in the same order. Each returns true
  // when the operation completed degraded: a member is declared failed, or
  // the result could not be recovered (then `data` is left unchanged).
  // Payloads are at most kTeamChunk bytes; the full-machine arm carries the
  // whole payload in one engine collective.
  bool team_barrier(const std::vector<int>& members);
  bool team_broadcast(const std::vector<int>& members, void* data,
                      std::size_t nbytes, int root0);
  /// `comb` folds a whole nbytes payload into another.
  bool team_allreduce(const std::vector<int>& members, void* data,
                      std::size_t nbytes, const Combine& comb);

  // ---- node map (ranks are node-contiguous in the fabric) ----
  int node_of(int rank) const { return rank / node_size_; }
  int leader_of(int rank) const { return node_of(rank) * node_size_; }
  int num_nodes() const { return num_nodes_; }
  int node_size() const { return node_size_; }
  int node_members(int node) const {
    const int base = node * node_size_;
    return std::min(node_size_, n_ - base);
  }

  // ---- selector (exposed so tests/benches can check the pricing) ----
  CollAlgo pick_broadcast(std::size_t nbytes) const;
  CollAlgo pick_reduce(std::size_t nbytes) const;

  const CollOptions& options() const { return opts_; }
  /// The symmetric staging allocation (cells, twins, slots and banks), so
  /// tests can check which of its pages an image touched.
  std::uint64_t staging_offset() const { return staging_off_; }
  std::size_t staging_bytes() const { return staging_bytes_; }
  /// The failure-aware team area (cells first, then slots).
  std::uint64_t team_area_offset() const { return mark_cell_off_; }
  const CollTelemetry& telemetry() { return state().tele; }

  /// Staging granularity of the non-pipelined arms (one slot bank).
  static constexpr std::size_t kSlotBytes = 8192;
  /// Payloads up to this size stage in a slot array's compact twin, packed
  /// next to the flag cells, instead of in its full slots. Sender and
  /// receiver pick by payload size, which every image of a collective
  /// shares.
  static constexpr std::size_t kSmallSlotBytes = 64;
  /// Broadcast-slot ring depth == generations allowed between window
  /// barriers (see next_bc_gen()).
  static constexpr int kBcBanks = 8;
  /// Largest payload of one team operation (its staging slot size); the
  /// runtime's co_sum_team chunk.
  static constexpr std::size_t kTeamChunk = 1024;

 private:
  /// A partial or final team-operation value: payload bytes plus whether
  /// they hold data (a barrier carries none; a broadcast only once its
  /// root's subtree is folded in).
  struct TeamVal {
    std::vector<std::byte> bytes;
    bool has = false;
  };
  struct PerRank {
    std::int64_t gen = 0;       ///< collective generation (flag values)
    std::int64_t bar_gen = 0;   ///< barrier generation
    std::int64_t flat_calls = 0;///< flat-reduce gather rounds completed
    std::int64_t win_base = 0;  ///< gen proven globally complete (barrier)
    TreePlan team_plan;         ///< cached failure-aware tree (plan_for)
    CollTelemetry tele;
    // ---- team operations ----
    std::int64_t team_op = 0;   ///< team operations entered (uniform)
    /// Inside a team operation's full-machine arm: a failure wake-up
    /// abandons the arm (see wait_ge) instead of waiting on.
    bool interruptible = false;
    std::uint64_t arm_epoch = 0;///< membership epoch the arm started in
    /// Result of the last completed team operation, kept for neighbours
    /// still behind (a partial's last result, serve_stranded).
    std::int64_t last_op = 0;
    TeamVal last;
    /// Team of the current (or last) team operation, for serve_stranded.
    std::vector<int> members;
    std::vector<std::byte> scratch;  ///< the arm's input, kept for fa_run
  };
  /// The team-operation driver: the full-machine arm `arm` while nobody is
  /// declared and the team is the whole machine, else (or once a failure
  /// interrupts the arm) the failure-aware tree protocol fa_run.
  bool team_op(const std::vector<int>& members, void* data,
               std::size_t nbytes, bool contributes, const Combine* comb,
               const std::function<void()>& arm);
  /// Failure-aware protocol for team operation `op` over the live members'
  /// TreePlan: fold partials up the tree, hand the result down. Re-planned
  /// on every membership-epoch move.
  bool fa_run(std::int64_t op, const std::vector<int>& members, void* data,
              std::size_t nbytes, bool contributes, const Combine* comb);
  enum class Up { kFolded, kAdopted, kMoved };
  /// Waits for child `c`'s partial of `op` and folds it into `acc`. A child
  /// that already finished `op` hands its result over instead (kAdopted).
  /// Once `adopted`, only waits for the child to reach `op`.
  Up await_child(int c, std::int64_t op, std::uint64_t epoch,
                 std::size_t nbytes, const Combine* comb, TeamVal& acc,
                 bool adopted);
  enum class Mark { kNone, kPartial, kResult };
  /// Reads mark `v` of cell `idx` for `op`: nothing for it yet, the
  /// sender's partial of it (this epoch's), or its result (into `out`).
  Mark read_mark(std::int64_t v, int idx, std::int64_t op,
                 std::uint64_t epoch, std::size_t nbytes, TeamVal& out);
  /// Completes `op` with result `v` over the current epoch's plan: records
  /// it, then sends it to my children and, when `up`, to my parent (which
  /// may be behind me) as done marks.
  void finish(const std::vector<int>& members, std::int64_t op,
              const TeamVal& v, std::vector<int>& live, bool up);
  /// Fills `live` with the undeclared `members`; true when I am one.
  bool live_members(const std::vector<int>& members,
                    std::vector<int>& live) const;
  /// Puts `v` (and `prev`, the sender's last result) into `target`'s slot
  /// for me, then `mark` into its cell.
  void send_mark(int target, std::int64_t mark, const TeamVal& v,
                 const TeamVal* prev = nullptr);
  void remember(std::int64_t op, const TeamVal& v) {
    state().last_op = op;
    state().last = v;
  }
  /// Cell index of `sender` at `receiver`: the node-local index for a
  /// same-node sender, node_size + node number otherwise. Stable across
  /// plans, so every cell has a single writer.
  int team_ident(int receiver, int sender) const {
    return node_of(sender) == node_of(receiver) ? sender - leader_of(sender)
                                                : node_size_ + node_of(sender);
  }
  std::uint64_t mark_cell(int idx) const {
    return mark_cell_off_ + static_cast<std::uint64_t>(idx) * 8;
  }
  std::uint64_t mark_slot(int idx) const {
    return mark_slot_off_ + static_cast<std::uint64_t>(idx) * 2 * kTeamChunk;
  }

  /// Tree plan over `members` (live 0-based ranks, ascending) for
  /// membership epoch `epoch`. Cached per calling rank and rebuilt only when
  /// the epoch or member set changes — so a post-kill collective re-forms
  /// the node map and leader tree once, and a healed partition (whose
  /// far-side ranks were declared) keeps the re-formed survivor tree.
  const TreePlan& plan_for(const std::vector<int>& members,
                           std::uint64_t epoch);
  void build_plan(TreePlan& plan, const std::vector<int>& members) const;

  int me() const { return conduit_.rank(); }
  PerRank& state() { return per_rank_[static_cast<std::size_t>(me())]; }
  std::byte* local(std::uint64_t off) {
    return conduit_.segment(me()) + off;
  }
  std::int64_t next_gen() { return ++state().gen; }

  static int ceil_log2(int x);

  // Cost model (selector pricing off the SwProfile).
  double inter_hop(std::size_t nbytes) const;
  double intra_hop(std::size_t nbytes) const;

  /// Data put then flag put to `target`; no quiet between them when
  /// per_target_completion (in-order same-pair delivery sequences them),
  /// the pre-engine put+quiet+flag otherwise. Counts locality telemetry.
  void send_payload(int target, std::uint64_t slot_off, const void* src,
                    std::size_t n, std::uint64_t flag_off, std::int64_t gen);
  void put_i64(int target, std::uint64_t off, std::int64_t v);
  void count_msg(int target);
  /// Flag wait of the full-machine arms. A failure wake-up inside a team
  /// operation's arm throws (team_op catches it and re-runs the operation
  /// failure-aware); plain collectives keep waiting, as before.
  void wait_ge(std::uint64_t off, std::int64_t v);
  std::int64_t read_i64(std::uint64_t off) {
    std::int64_t v;
    std::memcpy(&v, local(off), sizeof v);
    return v;
  }
  void combine_buf(void* a, const void* b, std::size_t nelems,
                   std::size_t elem,
                   const std::function<void(void*, const void*)>& comb);

  /// Generation for a bcast-slot chunk. Runs the engine barrier first when
  /// the new generation would reuse a ring bank (gen - win_base reaching
  /// kBcBanks): the barrier proves every image consumed the old occupant,
  /// so no producer can overrun a consumer by a full ring. Uniform across
  /// images (gen counters advance identically), hence collective-safe.
  std::int64_t next_bc_gen();

  // ---- broadcast arms (payload <= kSlotBytes per call) ----
  void bcast_flat(void* data, std::size_t nbytes, int root0,
                  std::int64_t gen);
  void bcast_binomial(void* data, std::size_t nbytes, int root0,
                      std::int64_t gen);
  void bcast_two_level(void* data, std::size_t nbytes, int root0,
                       std::int64_t gen);

  /// Binomial fan-out within the calling image's node, rooted at
  /// `local_root` (a member of the same node). The root's payload must
  /// already be staged in the generation's bcast slot bank; every other
  /// member waits, forwards, and copies out into `data`.
  void node_fanout(int local_root, void* data, std::size_t nbytes,
                   std::int64_t gen);

  // ---- reduction arms ----
  void reduce_flat(void* data, std::size_t nelems, std::size_t elem,
                   const std::function<void(void*, const void*)>& comb,
                   std::int64_t gen);
  void reduce_binomial(void* data, std::size_t nelems, std::size_t elem,
                       const std::function<void(void*, const void*)>& comb,
                       std::int64_t gen);
  void reduce_two_level(void* data, std::size_t nelems, std::size_t elem,
                        const std::function<void(void*, const void*)>& comb,
                        std::int64_t gen);
  /// Recursive-doubling allreduce over `group` (ascending ranks); `gi` is
  /// the caller's index. Non-power-of-two sizes pre-fold adjacent pairs so
  /// every survivor covers a contiguous index block, then send the result
  /// back at the end. Rank-order-aware: the lower-indexed side always
  /// contributes the left operand.
  void rd_allreduce(const std::vector<int>& group, int gi, void* data,
                    std::size_t nelems, std::size_t elem,
                    const std::function<void(void*, const void*)>& comb,
                    std::int64_t gen);

  // ---- pipelined arms (payload > kPipeChunk) ----
  /// Contiguous-range binary tree: subtree over [lo,hi] is rooted at lo,
  /// children cover [lo+1,mid] and [mid+1,hi]. Ranges are contiguous, so
  /// subtrees cluster on nodes (ranks are node-contiguous) and a parent
  /// combines children in ascending-rank order.
  struct BinTree {
    int parent = -1;
    int child[2] = {-1, -1};
    int nchild = 0;
    int my_slot = 0;  ///< which child of the parent this vrank is
  };
  static BinTree bin_tree(int vrank, int n);
  void pipe_bcast(void* data, std::size_t nbytes, int root0,
                  std::int64_t gen);
  void pipe_allreduce(void* data, std::size_t nelems, std::size_t elem,
                      const std::function<void(void*, const void*)>& comb,
                      std::int64_t gen);

  // k-nomial leader tree helpers (indices into the rotated leader list).
  std::vector<int> knomial_children(int v, int count) const;
  int knomial_parent(int v) const;

  /// Slot `idx` of a slot array: its compact twin (at `twin`) for payloads
  /// up to kSmallSlotBytes, its full slots (at `full`, `stride` apart)
  /// otherwise. Both share the array's flag cells.
  static std::uint64_t slot_of(std::uint64_t twin, std::uint64_t full,
                               std::size_t stride, std::uint64_t idx,
                               std::size_t nbytes) {
    return nbytes <= kSmallSlotBytes ? twin + idx * kSmallSlotBytes
                                     : full + idx * stride;
  }
  std::uint64_t bc_slot(std::int64_t gen, std::size_t nbytes) const {
    return slot_of(bc_twin_off_, bc_slot_off_, kSlotBytes,
                   static_cast<std::uint64_t>(gen % kBcBanks), nbytes);
  }
  std::uint64_t bc_flag(std::int64_t gen) const {
    return bc_flag_off_ + static_cast<std::uint64_t>(gen % kBcBanks) * 8;
  }
  std::uint64_t tree_slot(int level, std::size_t nbytes) const {
    return slot_of(tree_twin_off_, tree_slot_off_, kSlotBytes,
                   static_cast<std::uint64_t>(level), nbytes);
  }
  std::uint64_t tree_flag(int level) const {
    return tree_flag_off_ + static_cast<std::uint64_t>(level) * 8;
  }
  std::uint64_t gather_slot(int idx, std::size_t nbytes) const {
    return slot_of(gather_twin_off_, gather_slot_off_, kRdMaxBytes,
                   static_cast<std::uint64_t>(idx), nbytes);
  }
  std::uint64_t gather_flag(int idx) const {
    return gather_flag_off_ + static_cast<std::uint64_t>(idx) * 8;
  }
  std::uint64_t rd_slot(int r, std::size_t nbytes) const {
    return slot_of(rd_twin_off_, rd_slot_off_, kRdMaxBytes,
                   static_cast<std::uint64_t>(r), nbytes);
  }
  std::uint64_t rd_flag(int r) const {
    return rd_flag_off_ + static_cast<std::uint64_t>(r) * 8;
  }
  std::uint64_t pd_bank(int slot) const {
    return pd_bank_off_ + static_cast<std::uint64_t>(slot) * kPipeChunk;
  }
  std::uint64_t pu_bank(int child, int slot) const {
    return pu_bank_off_ +
           (static_cast<std::uint64_t>(child) *
                static_cast<std::uint64_t>(kPipeDepth) +
            static_cast<std::uint64_t>(slot)) *
               kPipeChunk;
  }

  Conduit& conduit_;
  CollOptions opts_;
  FaultWait wait_;

  int n_ = 0;
  int node_size_ = 1;
  int num_nodes_ = 1;
  int levels_ = 1;      ///< ceil(log2(num images))
  int rd_rounds_ = 1;   ///< slots provisioned for recursive doubling

  // Symmetric staging areas (offsets identical on every image), in
  // allocation order: cells, compact twins, full slots, pipeline banks.
  std::uint64_t staging_off_ = 0;    ///< the one staging allocation
  std::size_t staging_bytes_ = 0;
  std::uint64_t bc_flag_off_ = 0;    ///< kBcBanks ring of broadcast flags
  std::uint64_t tree_flag_off_ = 0;  ///< per-level binomial-reduce flags
  std::uint64_t gather_flag_off_ = 0;///< per-member intra-node gather flags
  std::uint64_t rd_flag_off_ = 0;    ///< per-round recursive-doubling flags
  std::uint64_t flat_ctr_off_ = 0;   ///< flat-reduce arrival counter
  std::uint64_t bar_cells_off_ = 0;  ///< leader dissemination round cells
  std::uint64_t bar_gather_off_ = 0; ///< intra-node barrier arrival counter
  std::uint64_t bar_release_off_ = 0;///< intra-node barrier release flag
  std::uint64_t pd_flag_off_ = 0;    ///< down-stream chunk counter
  std::uint64_t pd_ack_off_ = 0;     ///< per-child down-stream ack cells (2)
  std::uint64_t pu_flag_off_ = 0;    ///< per-child up-stream chunk counters
  std::uint64_t pu_ack_off_ = 0;     ///< up-stream ack cell (from parent)
  std::uint64_t bc_twin_off_ = 0;    ///< compact twins of the slot arrays
  std::uint64_t tree_twin_off_ = 0;
  std::uint64_t gather_twin_off_ = 0;
  std::uint64_t rd_twin_off_ = 0;
  std::uint64_t bc_slot_off_ = 0;    ///< kBcBanks ring of broadcast slots
  std::uint64_t tree_slot_off_ = 0;  ///< per-level binomial-reduce slots
  std::uint64_t gather_slot_off_ = 0;///< per-member intra-node gather slots
  std::uint64_t rd_slot_off_ = 0;    ///< per-round recursive-doubling slots
  std::uint64_t pd_bank_off_ = 0;    ///< down-stream (broadcast) chunk banks
  std::uint64_t pu_bank_off_ = 0;    ///< up-stream (reduce) per-child banks
  std::uint64_t mark_cell_off_ = 0;  ///< team_ident-indexed marks
  std::uint64_t mark_slot_off_ = 0;  ///< [partial or result | last result]

  std::vector<PerRank> per_rank_;
};

}  // namespace caf
