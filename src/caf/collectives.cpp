#include "caf/collectives.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "sim/engine.hpp"

namespace caf {

int CollectiveEngine::ceil_log2(int x) {
  int r = 0;
  while ((1 << r) < x) ++r;
  return r;
}

void CollectiveEngine::init() {
  n_ = conduit_.nranks();
  const int cores = std::max(1, conduit_.sw().cores_per_node);
  node_size_ = opts_.hierarchical ? std::min(cores, n_) : 1;
  num_nodes_ = (n_ + node_size_ - 1) / node_size_;
  levels_ = std::max(1, ceil_log2(n_));
  rd_rounds_ = levels_ + 2;  // rounds + fold-in slot + fold-return slot
  per_rank_.resize(static_cast<std::size_t>(n_));

  // The team-operation area is the one staging area allocated on its own,
  // in whole pages: every allocation carries an implicit barrier, and the
  // number of barriers in Runtime::init sets the start time of every run;
  // whole pages keep the page alignment, and so the first-touch footprint,
  // of everything allocated after it. Runs without failures never touch
  // it. The allocation count fixes every run's virtual results; the page
  // alignment only moves the host footprint (perfbench's peak_rss_mb and
  // minflt).
  constexpr std::size_t kPageBytes = 4096;
  const std::size_t team_idents =
      static_cast<std::size_t>(node_size_ + num_nodes_);
  const std::size_t team_cells = team_idents * sizeof(std::int64_t);
  const std::size_t team_bytes = team_cells + 2 * team_idents * kTeamChunk;
  mark_cell_off_ = conduit_.allocate(
      (team_bytes + kPageBytes - 1) / kPageBytes * kPageBytes);
  mark_slot_off_ = mark_cell_off_ + team_cells;

  // One collective symmetric allocation for every staging area. allocate()
  // maps to shmalloc, which carries an implicit barrier — 18 separate calls
  // would charge every program 18 startup barriers (visible in the fig9 DHT
  // totals at 1024 images) where one suffices. Offsets are carved locally;
  // the arithmetic is identical on every image, so the layout stays
  // symmetric. Every size below is a multiple of 8.
  //
  // The layout packs what small collectives touch at the head: first every
  // 8-byte flag, counter and ack cell, then the compact twins of the slot
  // arrays (kSmallSlotBytes per slot), then the full slots and the pipeline
  // banks. An image running only small collectives touches the head alone
  // — one page at the usual node and machine sizes — instead of a page per
  // broadcast bank plus the pages its scattered cells fell on.
  const std::size_t depth = static_cast<std::size_t>(kPipeDepth);
  const auto levels = static_cast<std::size_t>(levels_);
  const auto members = static_cast<std::size_t>(node_size_);
  const auto rounds = static_cast<std::size_t>(rd_rounds_);
  std::size_t total = 0;
  auto carve = [&total](std::size_t bytes) {
    const std::size_t off = total;
    total += bytes;
    return off;
  };
  constexpr std::size_t kCell = sizeof(std::int64_t);
  const std::size_t bc_flag_rel = carve(kBcBanks * kCell);
  const std::size_t tree_flag_rel = carve(levels * kCell);
  const std::size_t gather_flag_rel = carve(members * kCell);
  const std::size_t rd_flag_rel = carve(rounds * kCell);
  const std::size_t flat_ctr_rel = carve(kCell);
  const std::size_t bar_cells_rel = carve((levels + 1) * kCell);
  const std::size_t bar_gather_rel = carve(kCell);
  const std::size_t bar_release_rel = carve(kCell);
  const std::size_t pd_flag_rel = carve(kCell);
  const std::size_t pd_ack_rel = carve(2 * kCell);
  const std::size_t pu_flag_rel = carve(2 * kCell);
  const std::size_t pu_ack_rel = carve(kCell);
  const std::size_t cells_bytes = total;
  const std::size_t bc_twin_rel = carve(kBcBanks * kSmallSlotBytes);
  const std::size_t tree_twin_rel = carve(levels * kSmallSlotBytes);
  const std::size_t gather_twin_rel = carve(members * kSmallSlotBytes);
  const std::size_t rd_twin_rel = carve(rounds * kSmallSlotBytes);
  // Pad the twins to whole pages: every later allocation (RPC mailbox
  // rows, the program's coarrays) keeps the page phase, and so the
  // first-touch footprint, that the cells and full slots alone give it.
  carve((kPageBytes - (total - cells_bytes) % kPageBytes) % kPageBytes);
  const std::size_t bc_slot_rel = carve(kBcBanks * kSlotBytes);
  const std::size_t tree_slot_rel = carve(levels * kSlotBytes);
  const std::size_t gather_slot_rel = carve(members * kRdMaxBytes);
  const std::size_t rd_slot_rel = carve(rounds * kRdMaxBytes);
  const std::size_t pd_bank_rel = carve(depth * kPipeChunk);
  const std::size_t pu_bank_rel = carve(2 * depth * kPipeChunk);
  staging_bytes_ = total;
  staging_off_ = conduit_.allocate(total);
  const std::uint64_t base = staging_off_;
  bc_flag_off_ = base + bc_flag_rel;
  tree_flag_off_ = base + tree_flag_rel;
  gather_flag_off_ = base + gather_flag_rel;
  rd_flag_off_ = base + rd_flag_rel;
  flat_ctr_off_ = base + flat_ctr_rel;
  bar_cells_off_ = base + bar_cells_rel;
  bar_gather_off_ = base + bar_gather_rel;
  bar_release_off_ = base + bar_release_rel;
  pd_flag_off_ = base + pd_flag_rel;
  pd_ack_off_ = base + pd_ack_rel;
  pu_flag_off_ = base + pu_flag_rel;
  pu_ack_off_ = base + pu_ack_rel;
  bc_twin_off_ = base + bc_twin_rel;
  tree_twin_off_ = base + tree_twin_rel;
  gather_twin_off_ = base + gather_twin_rel;
  rd_twin_off_ = base + rd_twin_rel;
  bc_slot_off_ = base + bc_slot_rel;
  tree_slot_off_ = base + tree_slot_rel;
  gather_slot_off_ = base + gather_slot_rel;
  rd_slot_off_ = base + rd_slot_rel;
  pd_bank_off_ = base + pd_bank_rel;
  pu_bank_off_ = base + pu_bank_rel;

  // Zero this image's cells; nobody puts into them until every image left
  // Runtime::init()'s closing barrier.
  std::memset(local(base), 0, cells_bytes);
  // Only clear team cells that hold stale data: a fresh segment reads as
  // zeros without those pages ever becoming resident.
  clear_if_stale(local(mark_cell_off_), team_cells);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void CollectiveEngine::count_msg(int target) {
  CollTelemetry& t = state().tele;
  if (node_of(target) == node_of(me())) {
    ++t.intra_node_msgs;
  } else {
    ++t.inter_node_msgs;
  }
}

void CollectiveEngine::send_payload(int target, std::uint64_t slot_off,
                                    const void* src, std::size_t n,
                                    std::uint64_t flag_off, std::int64_t gen) {
  if (n > 0) {  // only team operations stage empty payloads
    count_msg(target);
    conduit_.put(target, slot_off, src, n, /*nbi=*/true);
    if (!opts_.per_target_completion) {
      // Pre-engine sequence: remote-complete the payload before releasing
      // the flag. One slow target stalls the whole fan-out behind this quiet.
      conduit_.quiet();
    }
  }
  count_msg(target);
  conduit_.put(target, flag_off, &gen, sizeof gen, /*nbi=*/true);
}

void CollectiveEngine::put_i64(int target, std::uint64_t off, std::int64_t v) {
  count_msg(target);
  conduit_.put(target, off, &v, sizeof v, /*nbi=*/true);
}

void CollectiveEngine::combine_buf(
    void* a, const void* b, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb) {
  auto* pa = static_cast<std::byte*>(a);
  const auto* pb = static_cast<const std::byte*>(b);
  for (std::size_t i = 0; i < nelems; ++i) {
    comb(pa + i * elem, pb + i * elem);
  }
}

std::int64_t CollectiveEngine::next_bc_gen() {
  PerRank& st = state();
  if (st.gen + 1 > st.win_base + kBcBanks) {
    // The next generation would wrap onto a ring bank last written at
    // gen+1-kBcBanks. A broadcast root has no receives to throttle it, so
    // only a global rendezvous bounds how far it can stream ahead of the
    // slowest consumer. Every image reaches this branch at the same op
    // (gen and win_base advance identically everywhere).
    barrier();
    st.win_base = st.gen;
  }
  return ++st.gen;
}

// ---------------------------------------------------------------------------
// Selector (priced off the SwProfile, like the strided planner)
// ---------------------------------------------------------------------------

double CollectiveEngine::inter_hop(std::size_t nbytes) const {
  const net::SwProfile& sw = conduit_.sw();
  return static_cast<double>(sw.put_overhead + sw.hw_latency) +
         static_cast<double>(nbytes) /
             (sw.link_bytes_per_ns * sw.bw_efficiency);
}

double CollectiveEngine::intra_hop(std::size_t nbytes) const {
  const net::SwProfile& sw = conduit_.sw();
  fabric::Domain* d = conduit_.rma_domain();
  if (d != nullptr && d->node_transport() != nullptr) {
    // Node-local shared-segment transport: an intra-node stage is a ring
    // handoff plus a NUMA-local copy, not a library put through the NIC
    // loopback. Priced optimistically at the local-domain rates — the
    // selector only needs the order of magnitude to prefer node-leader
    // trees, and the actual stage cost comes from the NodeChannel anyway.
    return static_cast<double>(net::NodeChannel::kSlotWrite +
                               net::NodeChannel::kRingPop +
                               sw.numa_local_latency) +
           static_cast<double>(nbytes) / sw.numa_local_bytes_per_ns;
  }
  return static_cast<double>(sw.put_overhead + sw.local_latency) +
         static_cast<double>(nbytes) /
             (sw.link_bytes_per_ns * sw.bw_efficiency);
}

CollAlgo CollectiveEngine::pick_broadcast(std::size_t nbytes) const {
  if (nbytes > kSlotBytes) return CollAlgo::kPipelined;
  if (!opts_.hierarchical || node_size_ <= 1 || num_nodes_ <= 1) {
    return CollAlgo::kBinomial;
  }
  const net::SwProfile& sw = conduit_.sw();
  const int k = kKnomialRadix;
  int depth_k = 0;
  for (long long covered = 1; covered < num_nodes_; covered *= k) ++depth_k;
  const double binomial = ceil_log2(n_) * inter_hop(nbytes);
  const double two_level =
      depth_k * ((k - 1) * static_cast<double>(sw.per_msg_gap) +
                 inter_hop(nbytes)) +
      ceil_log2(node_size_) * intra_hop(nbytes);
  return two_level < binomial ? CollAlgo::kTwoLevel : CollAlgo::kBinomial;
}

CollAlgo CollectiveEngine::pick_reduce(std::size_t nbytes) const {
  if (nbytes > kSlotBytes) return CollAlgo::kPipelined;
  const bool small = nbytes <= kRdMaxBytes;
  if (!opts_.hierarchical || node_size_ <= 1 || num_nodes_ <= 1) {
    // A flat machine view: recursive doubling halves the round count of
    // reduce-then-broadcast for payloads that fit its slots.
    return small ? CollAlgo::kRecursiveDoubling : CollAlgo::kBinomial;
  }
  if (!small) return CollAlgo::kBinomial;  // gather slots cap at kRdMaxBytes
  const net::SwProfile& sw = conduit_.sw();
  const int nm = node_size_;
  const double two_level =
      (nm - 1) * static_cast<double>(sw.per_msg_gap) + intra_hop(nbytes) +
      ceil_log2(num_nodes_) * inter_hop(nbytes) +
      ceil_log2(nm) * intra_hop(nbytes);
  const double binomial = 2.0 * ceil_log2(n_) * inter_hop(nbytes);
  return two_level < binomial ? CollAlgo::kTwoLevel : CollAlgo::kBinomial;
}

// ---------------------------------------------------------------------------
// k-nomial leader tree (indices into the rotated leader list, rooted at 0)
// ---------------------------------------------------------------------------

std::vector<int> CollectiveEngine::knomial_children(int v, int count) const {
  const int k = kKnomialRadix;
  // Position of v's lowest nonzero base-k digit bounds the children: v may
  // spawn v + d*k^j for every j below it. Emit larger subtrees first so the
  // deepest chains start earliest.
  int jlow = 0;
  if (v != 0) {
    long long p = 1;
    while ((v / p) % k == 0) {
      p *= k;
      ++jlow;
    }
  } else {
    long long p = 1;
    while (p < count) {
      p *= k;
      ++jlow;
    }
  }
  std::vector<int> kids;
  long long pj = 1;
  for (int j = 1; j < jlow; ++j) pj *= k;
  for (int j = jlow - 1; j >= 0; --j) {
    for (int d = 1; d < k; ++d) {
      const long long c = v + d * pj;
      if (c < count) kids.push_back(static_cast<int>(c));
    }
    pj /= k;
  }
  return kids;
}

int CollectiveEngine::knomial_parent(int v) const {
  const int k = kKnomialRadix;
  if (v == 0) return -1;
  long long p = 1;
  while ((v / p) % k == 0) p *= k;
  return static_cast<int>(v - ((v / p) % k) * p);
}

// ---------------------------------------------------------------------------
// Failure-aware team tree (membership-epoch cached)
// ---------------------------------------------------------------------------

const TreePlan& CollectiveEngine::plan_for(const std::vector<int>& members,
                                           std::uint64_t epoch) {
  TreePlan& plan = state().team_plan;
  if (plan.epoch == epoch && plan.members == members) return plan;
  ++state().tele.team_plan_rebuilds;
  plan.epoch = epoch;
  build_plan(plan, members);
  return plan;
}

void CollectiveEngine::build_plan(TreePlan& plan,
                                  const std::vector<int>& members) const {
  plan.members = members;
  plan.parent.assign(static_cast<std::size_t>(n_), -1);
  plan.children.assign(static_cast<std::size_t>(n_), {});
  // Node leaders: the lowest member on each node (members are ascending and
  // ranks node-contiguous, so leaders come out in ascending node order, the
  // root first). A radix-R tree over the leader indices gives the
  // inter-node stage.
  std::vector<int> leader_of_node(static_cast<std::size_t>(num_nodes_), -1);
  std::vector<int> leaders;
  for (const int m : members) {
    int& ldr = leader_of_node[static_cast<std::size_t>(node_of(m))];
    if (ldr < 0) leaders.push_back(ldr = m);
  }
  const int nl = static_cast<int>(leaders.size());
  for (int v = 1; v < nl; ++v) {
    const int p = knomial_parent(v);
    const int child = leaders[static_cast<std::size_t>(v)];
    const int par = leaders[static_cast<std::size_t>(p)];
    plan.parent[static_cast<std::size_t>(child)] = par;
    plan.children[static_cast<std::size_t>(par)].push_back(child);
  }
  // Intra-node stage: every non-leader member hangs off its node's leader.
  for (const int m : members) {
    const int ldr = leader_of_node[static_cast<std::size_t>(node_of(m))];
    if (m == ldr) continue;
    plan.parent[static_cast<std::size_t>(m)] = ldr;
    plan.children[static_cast<std::size_t>(ldr)].push_back(m);
  }
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

void CollectiveEngine::broadcast(void* data, std::size_t nbytes, int root0) {
  if (n_ <= 1 || nbytes == 0) return;
  ++state().tele.broadcasts;
  CollAlgo algo = opts_.broadcast == CollAlgo::kAuto ? pick_broadcast(nbytes)
                                                     : opts_.broadcast;
  if (algo == CollAlgo::kPipelined && nbytes > kPipeChunk) {
    pipe_bcast(data, nbytes, root0, next_gen());
    return;
  }
  if (algo == CollAlgo::kPipelined || algo == CollAlgo::kRecursiveDoubling) {
    algo = CollAlgo::kBinomial;  // not meaningful for (small) broadcasts
  }
  auto* bytes = static_cast<std::byte*>(data);
  std::size_t remaining = nbytes;
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, kSlotBytes);
    const std::int64_t gen = next_bc_gen();
    switch (algo) {
      case CollAlgo::kFlat: bcast_flat(bytes, chunk, root0, gen); break;
      case CollAlgo::kTwoLevel: bcast_two_level(bytes, chunk, root0, gen); break;
      default: bcast_binomial(bytes, chunk, root0, gen); break;
    }
    bytes += chunk;
    remaining -= chunk;
  }
}

void CollectiveEngine::bcast_flat(void* data, std::size_t nbytes, int root0,
                                  std::int64_t gen) {
  const std::uint64_t slot = bc_slot(gen, nbytes);
  const std::uint64_t flag = bc_flag(gen);
  if (me() == root0) {
    std::memcpy(local(slot), data, nbytes);
    for (int r = 0; r < n_; ++r) {
      if (r == root0) continue;
      send_payload(r, slot, local(slot), nbytes, flag, gen);
    }
  } else {
    wait_ge(flag, gen);
    std::memcpy(data, local(slot), nbytes);
  }
}

void CollectiveEngine::bcast_binomial(void* data, std::size_t nbytes,
                                      int root0, std::int64_t gen) {
  const std::uint64_t slot = bc_slot(gen, nbytes);
  const std::uint64_t flag = bc_flag(gen);
  const int vr = (me() - root0 + n_) % n_;
  if (vr == 0) std::memcpy(local(slot), data, nbytes);
  int mask = 1;
  if (vr != 0) {
    while (!(vr & mask)) mask <<= 1;
    wait_ge(flag, gen);
  } else {
    while (mask < n_) mask <<= 1;
  }
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (vr + m < n_) {
      const int child = (vr + m + root0) % n_;
      send_payload(child, slot, local(slot), nbytes, flag, gen);
    }
  }
  if (vr != 0) std::memcpy(data, local(slot), nbytes);
}

void CollectiveEngine::node_fanout(int local_root, void* data,
                                   std::size_t nbytes, std::int64_t gen) {
  const int base = node_of(me()) * node_size_;
  const int nm = node_members(node_of(me()));
  if (nm <= 1) return;
  const std::uint64_t slot = bc_slot(gen, nbytes);
  const std::uint64_t flag = bc_flag(gen);
  const int lr = local_root - base;
  const int vl = (me() - base - lr + nm) % nm;
  int mask = 1;
  if (vl != 0) {
    while (!(vl & mask)) mask <<= 1;
    wait_ge(flag, gen);
  } else {
    while (mask < nm) mask <<= 1;
  }
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (vl + m < nm) {
      const int child = base + (vl + m + lr) % nm;
      send_payload(child, slot, local(slot), nbytes, flag, gen);
    }
  }
  if (vl != 0) std::memcpy(data, local(slot), nbytes);
}

void CollectiveEngine::bcast_two_level(void* data, std::size_t nbytes,
                                       int root0, std::int64_t gen) {
  const int L = num_nodes_;
  const int root_node = node_of(root0);
  // The rotated leader list: index 0 is the root itself (standing in for
  // its node's leader), other entries are the first rank of each node.
  auto lead_rank = [&](int idx) {
    const int node = (root_node + idx) % L;
    return node == root_node ? root0 : node * node_size_;
  };
  const int my_lidx = (node_of(me()) - root_node + L) % L;
  const int my_lead = lead_rank(my_lidx);
  const std::uint64_t slot = bc_slot(gen, nbytes);
  const std::uint64_t flag = bc_flag(gen);
  if (me() == root0) std::memcpy(local(slot), data, nbytes);
  if (me() == my_lead) {
    if (my_lidx != 0) wait_ge(flag, gen);
    for (const int c : knomial_children(my_lidx, L)) {
      send_payload(lead_rank(c), slot, local(slot), nbytes, flag, gen);
    }
  }
  node_fanout(my_lead, data, nbytes, gen);
  // node_fanout copies out for everyone below the local root; a leader that
  // is not the global root received into its slot only.
  if (me() == my_lead && me() != root0) {
    std::memcpy(data, local(slot), nbytes);
  }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

void CollectiveEngine::allreduce(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb) {
  if (n_ <= 1 || nelems == 0) return;
  ++state().tele.reductions;
  const std::size_t nbytes = nelems * elem;
  CollAlgo algo =
      opts_.reduce == CollAlgo::kAuto ? pick_reduce(nbytes) : opts_.reduce;
  if (algo == CollAlgo::kPipelined && nbytes > kPipeChunk &&
      elem <= kPipeChunk) {
    pipe_allreduce(data, nelems, elem, comb, next_gen());
    return;
  }
  if (algo == CollAlgo::kPipelined) algo = CollAlgo::kBinomial;
  std::size_t limit = kSlotBytes;
  if (algo == CollAlgo::kTwoLevel || algo == CollAlgo::kRecursiveDoubling) {
    limit = kRdMaxBytes;  // their staging slots cap at kRdMaxBytes
  }
  if (elem > limit) {
    algo = CollAlgo::kBinomial;
    limit = kSlotBytes;
  }
  assert(elem <= kSlotBytes);
  const std::size_t per_chunk = std::max<std::size_t>(1, limit / elem);
  std::vector<int> all;
  if (algo == CollAlgo::kRecursiveDoubling) {
    all.resize(static_cast<std::size_t>(n_));
    for (int r = 0; r < n_; ++r) all[static_cast<std::size_t>(r)] = r;
  }
  auto* bytes = static_cast<std::byte*>(data);
  std::size_t done = 0;
  while (done < nelems) {
    const std::size_t ne = std::min(nelems - done, per_chunk);
    // Recursive doubling never touches the bcast-slot ring; every other
    // arm finishes (or stages) through it and pays the window check.
    const std::int64_t gen = algo == CollAlgo::kRecursiveDoubling
                                 ? next_gen()
                                 : next_bc_gen();
    void* ptr = bytes + done * elem;
    switch (algo) {
      case CollAlgo::kFlat:
        reduce_flat(ptr, ne, elem, comb, gen);
        break;
      case CollAlgo::kTwoLevel:
        reduce_two_level(ptr, ne, elem, comb, gen);
        break;
      case CollAlgo::kRecursiveDoubling:
        rd_allreduce(all, me(), ptr, ne, elem, comb, gen);
        break;
      default:
        reduce_binomial(ptr, ne, elem, comb, gen);
        break;
    }
    done += ne;
  }
}

void CollectiveEngine::reduce_flat(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb, std::int64_t gen) {
  const std::size_t nbytes = nelems * elem;
  const std::uint64_t slot = bc_slot(gen, nbytes);
  const std::int64_t fc = ++state().flat_calls;
  if (me() != 0) {
    // Stage locally, announce arrival; the result broadcast below doubles
    // as the release (the root only reads slots before it sends).
    std::memcpy(local(slot), data, nbytes);
    count_msg(0);
    (void)conduit_.amo_fadd(0, flat_ctr_off_, 1);
  } else {
    wait_ge(flat_ctr_off_, static_cast<std::int64_t>(n_ - 1) * fc);
    std::vector<std::byte> tmp(nbytes);
    for (int r = 1; r < n_; ++r) {
      conduit_.get(tmp.data(), r, slot, nbytes);
      combine_buf(data, tmp.data(), nelems, elem, comb);
    }
  }
  bcast_flat(data, nbytes, 0, gen);
}

void CollectiveEngine::reduce_binomial(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb, std::int64_t gen) {
  const std::size_t nbytes = nelems * elem;
  int level = 0;
  for (int mask = 1; mask < n_; mask <<= 1, ++level) {
    assert(level < levels_);
    const std::uint64_t slot = tree_slot(level, nbytes);
    const std::uint64_t flag = tree_flag(level);
    if (me() & mask) {
      send_payload(me() - mask, slot, data, nbytes, flag, gen);
      break;
    }
    if (me() + mask < n_) {
      wait_ge(flag, gen);
      // The sender covers the contiguous block [me+mask, me+2*mask), so
      // folding it in from the right keeps the ascending rank order.
      combine_buf(data, local(slot), nelems, elem, comb);
    }
  }
  bcast_binomial(data, nbytes, 0, gen);
}

void CollectiveEngine::rd_allreduce(
    const std::vector<int>& group, int gi, void* data, std::size_t nelems,
    std::size_t elem, const std::function<void(void*, const void*)>& comb,
    std::int64_t gen) {
  const int G = static_cast<int>(group.size());
  if (G <= 1) return;
  const std::size_t nbytes = nelems * elem;
  assert(nbytes <= kRdMaxBytes);
  int g2 = 1;
  while (g2 * 2 <= G) g2 *= 2;
  const int extra = G - g2;
  const int fold_slot = levels_;      // pre-fold contribution in
  const int ret_slot = levels_ + 1;   // folded result back out
  // Non-power-of-two: pair each of the first `extra` ODD group indices with
  // its left neighbour. The absorber then covers the contiguous block
  // {gi, gi+1}, so every survivor owns a contiguous run of group indices —
  // the property the rank-order fold below depends on. (Folding index
  // gi+g2 into gi, the textbook shortcut, covers {gi, gi+g2}: wrong order
  // for non-commutative combiners.)
  if (gi < 2 * extra && (gi & 1) != 0) {
    const int partner = group[static_cast<std::size_t>(gi - 1)];
    send_payload(partner, rd_slot(fold_slot, nbytes), data, nbytes,
                 rd_flag(fold_slot), gen);
    wait_ge(rd_flag(ret_slot), gen);
    std::memcpy(data, local(rd_slot(ret_slot, nbytes)), nbytes);
    return;
  }
  const bool absorbed = gi < 2 * extra;
  if (absorbed) {
    wait_ge(rd_flag(fold_slot), gen);
    // The absorbed neighbour is gi+1: fold from the right.
    combine_buf(data, local(rd_slot(fold_slot, nbytes)), nelems, elem, comb);
  }
  // Survivor index: pairs occupy group positions [0, 2*extra), singletons
  // follow. The map is monotone, so ascending survivor index == ascending
  // group blocks and the usual recursive-doubling merge rule applies.
  const int j = absorbed ? gi / 2 : gi - extra;
  auto survivor = [&](int sj) {
    const int pos = sj < extra ? 2 * sj : sj + extra;
    return group[static_cast<std::size_t>(pos)];
  };
  std::vector<std::byte> tmp(nbytes);
  for (int r = 0; (1 << r) < g2; ++r) {
    const int pj = j ^ (1 << r);
    send_payload(survivor(pj), rd_slot(r, nbytes), data, nbytes, rd_flag(r),
                 gen);
    wait_ge(rd_flag(r), gen);
    if (pj < j) {
      // Partner covers the lower indices: result = theirs ∘ mine.
      std::memcpy(tmp.data(), local(rd_slot(r, nbytes)), nbytes);
      combine_buf(tmp.data(), data, nelems, elem, comb);
      std::memcpy(data, tmp.data(), nbytes);
    } else {
      combine_buf(data, local(rd_slot(r, nbytes)), nelems, elem, comb);
    }
  }
  if (absorbed) {
    const int partner = group[static_cast<std::size_t>(gi + 1)];
    send_payload(partner, rd_slot(ret_slot, nbytes), data, nbytes,
                 rd_flag(ret_slot), gen);
  }
}

void CollectiveEngine::reduce_two_level(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb, std::int64_t gen) {
  const std::size_t nbytes = nelems * elem;
  assert(nbytes <= kRdMaxBytes);
  const int my_node = node_of(me());
  const int base = my_node * node_size_;
  const int nm = node_members(my_node);
  const int lead = base;
  if (me() != lead) {
    const int idx = me() - base;
    send_payload(lead, gather_slot(idx, nbytes), data, nbytes,
                 gather_flag(idx), gen);
  } else {
    for (int i = 1; i < nm; ++i) {
      wait_ge(gather_flag(i), gen);
      combine_buf(data, local(gather_slot(i, nbytes)), nelems, elem, comb);
    }
    if (num_nodes_ > 1) {
      std::vector<int> leaders(static_cast<std::size_t>(num_nodes_));
      for (int i = 0; i < num_nodes_; ++i) {
        leaders[static_cast<std::size_t>(i)] = i * node_size_;
      }
      rd_allreduce(leaders, my_node, data, nelems, elem, comb, gen);
    }
    std::memcpy(local(bc_slot(gen, nbytes)), data, nbytes);
  }
  node_fanout(lead, data, nbytes, gen);
}

// ---------------------------------------------------------------------------
// Pipelined arms (contiguous binary tree, ack-window flow control)
// ---------------------------------------------------------------------------

CollectiveEngine::BinTree CollectiveEngine::bin_tree(int vrank, int n) {
  BinTree t;
  int lo = 0;
  int hi = n - 1;
  while (vrank != lo) {
    const int mid = (lo + 1 + hi) / 2;
    t.parent = lo;
    if (vrank <= mid) {
      t.my_slot = 0;
      lo = lo + 1;
      hi = mid;
    } else {
      t.my_slot = 1;
      lo = mid + 1;
    }
  }
  if (lo + 1 <= hi) {
    const int mid = (lo + 1 + hi) / 2;
    t.child[t.nchild++] = lo + 1;
    if (mid + 1 <= hi) t.child[t.nchild++] = mid + 1;
  }
  return t;
}

namespace {
// Chunk marks encode (generation, chunk index) so flag and ack cells stay
// monotone across back-to-back collectives.
std::int64_t chunk_mark(std::int64_t gen, std::size_t c) {
  return (gen << 20) | static_cast<std::int64_t>(c + 1);
}
}  // namespace

void CollectiveEngine::pipe_bcast(void* data, std::size_t nbytes, int root0,
                                  std::int64_t gen) {
  const std::size_t cb = kPipeChunk;
  const std::size_t C = (nbytes + cb - 1) / cb;
  assert(C < (std::size_t{1} << 20));
  const int D = kPipeDepth;
  const int vrank = (me() - root0 + n_) % n_;
  const BinTree t = bin_tree(vrank, n_);
  auto phys = [&](int v) { return (v + root0) % n_; };
  auto* bytes = static_cast<std::byte*>(data);
  for (std::size_t c = 0; c < C; ++c) {
    const std::size_t off = c * cb;
    const std::size_t len = std::min(cb, nbytes - off);
    const std::byte* src;
    if (t.parent >= 0) {
      wait_ge(pd_flag_off_, chunk_mark(gen, c));
      src = local(pd_bank(static_cast<int>(c) % D));
    } else {
      src = bytes + off;
    }
    for (int k = 0; k < t.nchild; ++k) {
      if (c >= static_cast<std::size_t>(D)) {
        // Bank slot c%D at the child still holds chunk c-D until acked.
        wait_ge(pd_ack_off_ + static_cast<std::uint64_t>(k) * 8,
                chunk_mark(gen, c - static_cast<std::size_t>(D)));
      }
      const int child = phys(t.child[k]);
      count_msg(child);
      conduit_.put(child, pd_bank(static_cast<int>(c) % D), src, len,
                   /*nbi=*/true);
      if (!opts_.per_target_completion) conduit_.quiet();
      const std::int64_t m = chunk_mark(gen, c);
      count_msg(child);
      conduit_.put(child, pd_flag_off_, &m, sizeof m, /*nbi=*/true);
      ++state().tele.chunks_pipelined;
    }
    if (t.parent >= 0) {
      std::memcpy(bytes + off, src, len);
      put_i64(phys(t.parent),
              pd_ack_off_ + static_cast<std::uint64_t>(t.my_slot) * 8,
              chunk_mark(gen, c));
    }
  }
  // Drain: the next collective may reuse the children's banks immediately,
  // so hold until they acked the tail chunks.
  for (int k = 0; k < t.nchild; ++k) {
    wait_ge(pd_ack_off_ + static_cast<std::uint64_t>(k) * 8,
            chunk_mark(gen, C - 1));
  }
}

void CollectiveEngine::pipe_allreduce(
    void* data, std::size_t nelems, std::size_t elem,
    const std::function<void(void*, const void*)>& comb, std::int64_t gen) {
  const std::size_t nbytes = nelems * elem;
  const std::size_t chunk_elems =
      std::max<std::size_t>(1, kPipeChunk / elem);
  const std::size_t cb = chunk_elems * elem;
  const std::size_t C = (nbytes + cb - 1) / cb;
  assert(C < (std::size_t{1} << 20));
  const int D = kPipeDepth;
  const BinTree t = bin_tree(me(), n_);
  auto* bytes = static_cast<std::byte*>(data);
  // Up phase: children stream subtree-combined chunks into per-child banks;
  // the parent folds them in ascending-child order (contiguous ranges keep
  // the rank-order fold) and streams its own combined chunk upward.
  for (std::size_t c = 0; c < C; ++c) {
    const std::size_t off = c * cb;
    const std::size_t len = std::min(cb, nbytes - off);
    std::byte* ptr = bytes + off;
    for (int k = 0; k < t.nchild; ++k) {
      wait_ge(pu_flag_off_ + static_cast<std::uint64_t>(k) * 8,
              chunk_mark(gen, c));
      combine_buf(ptr, local(pu_bank(k, static_cast<int>(c) % D)), len / elem,
                  elem, comb);
      put_i64(t.child[k], pu_ack_off_, chunk_mark(gen, c));
    }
    if (t.parent >= 0) {
      if (c >= static_cast<std::size_t>(D)) {
        wait_ge(pu_ack_off_, chunk_mark(gen, c - static_cast<std::size_t>(D)));
      }
      count_msg(t.parent);
      conduit_.put(t.parent, pu_bank(t.my_slot, static_cast<int>(c) % D), ptr,
                   len, /*nbi=*/true);
      if (!opts_.per_target_completion) conduit_.quiet();
      const std::int64_t m = chunk_mark(gen, c);
      count_msg(t.parent);
      conduit_.put(t.parent,
                   pu_flag_off_ + static_cast<std::uint64_t>(t.my_slot) * 8,
                   &m, sizeof m, /*nbi=*/true);
      ++state().tele.chunks_pipelined;
    }
  }
  if (t.parent >= 0 && C > 0) {
    wait_ge(pu_ack_off_, chunk_mark(gen, C - 1));
  }
  // Down phase: stream the reduced payload back through the same tree.
  pipe_bcast(data, nbytes, /*root0=*/0, gen);
}

// ---------------------------------------------------------------------------
// Failure-aware team operations (DESIGN.md §4a)
//
// A team operation `op` (numbered identically on every live member) folds
// the members' partials up the live members' TreePlan and hands the result
// back down it. Every message is an nbi put into the receiver's cell for
// the sender (team_ident), so each cell has one writer and nothing ever
// waits on a dead peer's reply; a wait ends when its cell moves or a
// declaration ends it (wait_, the runtime's wait_fault). On a membership
// move every member still inside `op` folds again over the new plan.
//
// A cell holds the sender's partial of an operation, stamped with the
// sender's last result, or a done mark carrying an operation's result.
// Results travel as done marks in either direction, so a member still in
// `op` takes op's result from whichever tree neighbour has it: its parent,
// a child that finished first, a child whose next partial carries it, or —
// for a neighbour that may never enter another team operation —
// serve_stranded on the next declaration. An operation two or more behind
// is abandoned (degraded, data kept).
// ---------------------------------------------------------------------------

namespace {

/// Thrown by wait_ge out of a team operation's full-machine arm.
struct MembershipMoved {};

// Mark: op << 23 | (epoch mod 2^20) << 3 | flags.
constexpr int kEpochShift = 3;
constexpr int kOpShift = 23;
constexpr std::uint64_t kEpochMask = (1u << 20) - 1;
constexpr std::int64_t kHasFlag = 1;   ///< the slot carries data
constexpr std::int64_t kPrevFlag = 2;  ///< a partial's last result is valid
constexpr std::int64_t kDoneFlag = 4;  ///< the slot holds the op's result

std::int64_t partial_mark(std::int64_t op, std::uint64_t epoch,
                          std::int64_t f) {
  return op << kOpShift |
         static_cast<std::int64_t>(epoch & kEpochMask) << kEpochShift | f;
}
std::int64_t done_mark(std::int64_t op, bool has) {
  return op << kOpShift | kDoneFlag | (has ? kHasFlag : 0);
}
std::uint64_t mark_epoch(std::int64_t v) {
  return static_cast<std::uint64_t>(v >> kEpochShift) & kEpochMask;
}

}  // namespace

void CollectiveEngine::wait_ge(std::uint64_t off, std::int64_t v) {
  obs::Span sp(obs::Cat::kCollStage);
  const PerRank& st = state();
  while (read_i64(off) < v) {
    if (st.interruptible &&
        conduit_.engine().membership_epoch() != st.arm_epoch) {
      throw MembershipMoved{};
    }
    wait_(off, Cmp::kGe, v);
  }
}

bool CollectiveEngine::team_barrier(const std::vector<int>& members) {
  return team_op(members, nullptr, 0, true, nullptr, [this] { barrier(); });
}

bool CollectiveEngine::team_broadcast(const std::vector<int>& members,
                                      void* data, std::size_t nbytes,
                                      int root0) {
  return team_op(members, data, nbytes, me() == root0, nullptr,
                 [&] { broadcast(data, nbytes, root0); });
}

bool CollectiveEngine::team_allreduce(const std::vector<int>& members,
                                      void* data, std::size_t nbytes,
                                      const Combine& comb) {
  // The full-machine arm treats the payload as one opaque element.
  return team_op(members, data, nbytes, true, &comb,
                 [&] { allreduce(data, 1, nbytes, comb); });
}

bool CollectiveEngine::team_op(const std::vector<int>& members, void* data,
                               std::size_t nbytes, bool contributes,
                               const Combine* comb,
                               const std::function<void()>& arm) {
  assert(nbytes <= kTeamChunk);
  PerRank& st = state();
  sim::Engine& eng = conduit_.engine();
  if (st.members != members) st.members = members;
  const std::int64_t op = ++st.team_op;
  auto* bytes = static_cast<std::byte*>(data);
  if (static_cast<int>(members.size()) == n_ && eng.declared_count() == 0) {
    st.scratch.assign(bytes, bytes + nbytes);
    st.interruptible = true;
    st.arm_epoch = eng.membership_epoch();
    try {
      arm();
      st.interruptible = false;
      const TeamVal res{{bytes, bytes + nbytes}, true};
      if (eng.declared_count() == 0) {
        remember(op, res);
        return false;
      }
      // A declaration landed while the arm ran: members it cut short finish
      // failure-aware and may wait on my result in the new plan.
      std::vector<int> live;
      finish(members, op, res, live, /*up=*/true);
      return true;
    } catch (const MembershipMoved&) {
    } catch (const fabric::PeerFailedError&) {
      // A put to a dead peer: finish failure-aware once it is declared.
    }
    st.interruptible = false;
    if (nbytes > 0) std::memcpy(bytes, st.scratch.data(), nbytes);
  }
  return fa_run(op, members, data, nbytes, contributes, comb);
}

bool CollectiveEngine::fa_run(std::int64_t op, const std::vector<int>& members,
                              void* data, std::size_t nbytes, bool contributes,
                              const Combine* comb) {
  sim::Engine& eng = conduit_.engine();
  PerRank& st = state();
  auto* bytes = static_cast<std::byte*>(data);
  TeamVal acc;
  std::vector<int> live;
  for (;;) {
    const std::uint64_t epoch = eng.membership_epoch();
    if (!live_members(members, live)) {
      remember(op, TeamVal{});  // declared myself: the team moved on
      return true;
    }
    const TreePlan& plan = plan_for(live, epoch);
    acc.bytes.assign(bytes, bytes + nbytes);
    acc.has = contributes;
    // Every child must reach `op` before I move on, so my next result cannot
    // overwrite one it has not read yet.
    Up up = Up::kFolded;
    bool adopted = false;
    for (const int c : plan.children[static_cast<std::size_t>(me())]) {
      up = await_child(c, op, epoch, nbytes, comb, acc, adopted);
      if (up == Up::kMoved) break;
      adopted |= up == Up::kAdopted;
    }
    const int parent = plan.parent[static_cast<std::size_t>(me())];
    if (up != Up::kMoved && !adopted && parent >= 0) {
      // Partial up, stamped with my last result for a parent still behind;
      // then op's result comes back as my parent's done mark.
      const std::int64_t flags =
          (acc.has ? kHasFlag : 0) | (st.last.has ? kPrevFlag : 0);
      send_mark(parent, partial_mark(op, epoch, flags), acc,
                st.last.has ? &st.last : nullptr);
      const int from = team_ident(me(), parent);
      for (;;) {
        const std::int64_t v = read_i64(mark_cell(from));
        if (read_mark(v, from, op, epoch, nbytes, acc) == Mark::kResult) break;
        if (eng.membership_epoch() != epoch) {
          up = Up::kMoved;
          break;
        }
        obs::Span sp(obs::Cat::kCollStage);
        wait_(mark_cell(from), Cmp::kNe, v);
      }
    }
    if (up == Up::kMoved) continue;
    // A result that arrived across a declaration goes on over the new plan,
    // whose parent may be waiting for my partial of `op`.
    finish(members, op, acc, live,
           adopted || eng.membership_epoch() != epoch);
    if (acc.has && nbytes > 0) std::memcpy(bytes, acc.bytes.data(), nbytes);
    return !acc.has || live.size() != members.size();
  }
}

CollectiveEngine::Mark CollectiveEngine::read_mark(
    std::int64_t v, int idx, std::int64_t op, std::uint64_t epoch,
    std::size_t nbytes, TeamVal& out) {
  const std::int64_t cop = v >> kOpShift;
  const bool done = (v & kDoneFlag) != 0;
  if (cop < op) return Mark::kNone;
  if (cop == op && !done) {
    return mark_epoch(v) >= (epoch & kEpochMask) ? Mark::kPartial
                                                 : Mark::kNone;
  }
  // The sender finished `op`: a done mark of `op` carries the result, a
  // partial of op + 1 carries it as the sender's last result. Further
  // ahead, op's result is gone and `op` is abandoned here.
  const std::byte* slot = local(mark_slot(idx));
  if (cop == op) {
    out.has = (v & kHasFlag) != 0;
  } else {
    out.has = !done && cop == op + 1 && (v & kPrevFlag) != 0;
    slot += kTeamChunk;
  }
  if (out.has && nbytes > 0) std::memcpy(out.bytes.data(), slot, nbytes);
  return Mark::kResult;
}

CollectiveEngine::Up CollectiveEngine::await_child(
    int c, std::int64_t op, std::uint64_t epoch, std::size_t nbytes,
    const Combine* comb, TeamVal& acc, bool adopted) {
  sim::Engine& eng = conduit_.engine();
  const int idx = team_ident(me(), c);
  const std::uint64_t cell = mark_cell(idx);
  TeamVal got{std::vector<std::byte>(nbytes), false};
  for (;;) {
    const std::int64_t v = read_i64(cell);
    const Mark m = read_mark(v, idx, op, epoch, nbytes, got);
    if (adopted && m != Mark::kNone) return Up::kFolded;  // result in hand
    if (m == Mark::kPartial) {
      const std::byte* slot = local(mark_slot(idx));
      if ((v & kHasFlag) != 0 && !acc.has) {
        if (nbytes > 0) std::memcpy(acc.bytes.data(), slot, nbytes);
        acc.has = true;
      } else if ((v & kHasFlag) != 0 && comb != nullptr) {
        (*comb)(acc.bytes.data(), slot);
      }
      return Up::kFolded;
    }
    if (m == Mark::kResult) {
      ++obs::registry().counter(me(), "coll.team_handoffs");
      acc = got;
      return Up::kAdopted;
    }
    if (eng.membership_epoch() != epoch) return Up::kMoved;
    obs::Span sp(obs::Cat::kCollStage);
    wait_(cell, Cmp::kNe, v);
  }
}

void CollectiveEngine::finish(const std::vector<int>& members,
                              std::int64_t op, const TeamVal& v,
                              std::vector<int>& live, bool up) {
  const std::uint64_t epoch = conduit_.engine().membership_epoch();
  // Recorded before anything is sent: a declaration during the sends finds
  // me done with `op`, and serve_stranded hands my result on for me.
  remember(op, v);
  if (!live_members(members, live)) return;  // declared myself
  const TreePlan& plan = plan_for(live, epoch);
  const auto r = static_cast<std::size_t>(me());
  if (up && plan.parent[r] >= 0) {
    send_mark(plan.parent[r], done_mark(op, v.has), v);
  }
  for (const int c : plan.children[r]) send_mark(c, done_mark(op, v.has), v);
}

bool CollectiveEngine::live_members(const std::vector<int>& members,
                                    std::vector<int>& live) const {
  const sim::Engine& eng = conduit_.engine();
  live.clear();
  for (const int m : members) {
    if (!eng.pe_declared(m)) live.push_back(m);
  }
  return std::binary_search(live.begin(), live.end(), me());
}

void CollectiveEngine::send_mark(int target, std::int64_t mark,
                                 const TeamVal& v, const TeamVal* prev) {
  const int idx = team_ident(target, me());
  try {
    if (prev != nullptr && !prev->bytes.empty()) {
      count_msg(target);
      conduit_.put(target, mark_slot(idx) + kTeamChunk, prev->bytes.data(),
                   prev->bytes.size(), /*nbi=*/true);
    }
    send_payload(target, mark_slot(idx), v.bytes.data(),
                 v.has ? v.bytes.size() : 0, mark_cell(idx), mark);
  } catch (const fabric::PeerFailedError&) {
    // A dead neighbour needs nothing; a dead parent's declaration re-plans.
  }
}

void CollectiveEngine::serve_stranded(sim::Time at) {
  sim::Engine& eng = conduit_.engine();
  TreePlan plan;
  std::vector<int> planned;
  std::vector<int> live;
  for (int x = 0; x < n_; ++x) {
    const PerRank& sx = per_rank_[static_cast<std::size_t>(x)];
    const std::int64_t k = sx.team_op;
    if (k == sx.last_op || eng.pe_declared(x)) continue;  // not inside one
    if (plan.parent.empty() || planned != sx.members) {
      planned = sx.members;
      live.clear();
      for (const int m : planned) {
        if (!eng.pe_declared(m)) live.push_back(m);
      }
      build_plan(plan, live);
    }
    // Each neighbour of x in the new plan that finished operation k (the
    // same operation on every member) sends x its last result as a done
    // mark, unless x's cell for it is already that far. A neighbour further
    // ahead hands over a later operation's result: x abandons k.
    std::vector<int> nbrs = plan.children[static_cast<std::size_t>(x)];
    nbrs.push_back(plan.parent[static_cast<std::size_t>(x)]);
    for (const int f : nbrs) {
      if (f < 0) continue;
      const PerRank& sf = per_rank_[static_cast<std::size_t>(f)];
      if (sf.last_op < k) continue;
      const int idx = team_ident(x, f);
      std::int64_t cur = 0;
      std::memcpy(&cur, conduit_.segment(x) + mark_cell(idx), sizeof cur);
      if ((cur >> kOpShift) > k ||
          ((cur >> kOpShift) == k && (cur & kDoneFlag) != 0)) {
        continue;
      }
      if (sf.last.has && !sf.last.bytes.empty()) {
        conduit_.poke(x, mark_slot(idx), sf.last.bytes.data(),
                      sf.last.bytes.size(), at);
      }
      const std::int64_t mark = done_mark(sf.last_op, sf.last.has);
      conduit_.poke(x, mark_cell(idx), &mark, sizeof mark, at);
      ++obs::registry().counter(x, "coll.team_served");
    }
  }
}

// ---------------------------------------------------------------------------
// Hierarchical dissemination barrier
// ---------------------------------------------------------------------------

void CollectiveEngine::barrier() {
  if (n_ <= 1) return;
  obs::Span sp(obs::Cat::kBarrier);
  PerRank& st = state();
  ++st.tele.barriers;
  const std::int64_t bg = ++st.bar_gen;
  const int my_node = node_of(me());
  const int base = my_node * node_size_;
  const int nm = node_members(my_node);
  const int lead = base;
  if (me() != lead) {
    count_msg(lead);
    (void)conduit_.amo_fadd(lead, bar_gather_off_, 1);
    wait_ge(bar_release_off_, bg);
    return;
  }
  if (nm > 1) {
    wait_ge(bar_gather_off_, static_cast<std::int64_t>(nm - 1) * bg);
  }
  // Dissemination rounds across node leaders only: ceil(log2 nodes) wire
  // messages per leader instead of ceil(log2 images) per image.
  const int L = num_nodes_;
  for (int r = 0; (1 << r) < L; ++r) {
    const int peer = ((my_node + (1 << r)) % L) * node_size_;
    put_i64(peer, bar_cells_off_ + static_cast<std::uint64_t>(r) * 8, bg);
    wait_ge(bar_cells_off_ + static_cast<std::uint64_t>(r) * 8, bg);
  }
  for (int i = 1; i < nm; ++i) {
    put_i64(base + i, bar_release_off_, bg);
  }
}

}  // namespace caf
