// NodeChannel: the timing oracle of the node-local shared-segment transport.
//
// When two PEs share a node, the fastest path between them is not the NIC
// loopback the fabric models — it is a per-node shared mapping of the
// symmetric heap (POSH-style), where a put is a plain memcpy by the producer
// core and a "message" is a cache-line-padded lock-free SPSC ring slot. This
// class prices exactly that:
//
//   * bulk transfers — producer-core memcpy at the NUMA bandwidth between
//     the producer's CPU domain and the owner's segment domain, plus a
//     visibility latency for the last line to become observable;
//   * small messages and notifications — an SPSC ring per ordered same-node
//     pair: the producer writes ceil(n / slot_bytes) slots (stalling on a
//     full ring until the consumer retires slots — real backpressure), the
//     consumer pays a pop cost after the store becomes visible;
//   * atomics — a remote CAS/fetch-op on the owner's cache line, serialized
//     per target PE (line ownership bounces once per op).
//
// Like net::Fabric, a NodeChannel never touches memory or the event queue:
// fabric::Domain asks it for times and keeps all byte movement on its
// existing per-pair in-order streams, so enabling the transport changes
// *when* same-node bytes land (and removes the fabric messages), never the
// delivery order machinery — same-seed runs stay byte-identical.
//
// NUMA model: cores map to `numa_domains` contiguously
// (domain = local_rank * domains / cores_per_node); each PE's slice of the
// shared heap is placed by NumaPlacement. Crossing the socket link costs the
// profile's numa_remote_{latency,bytes_per_ns} instead of the local pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/model.hpp"
#include "sim/time.hpp"

namespace net {

/// Placement policy for each PE's slice of the node-shared symmetric heap.
enum class NumaPlacement {
  kLocalDomain,  ///< first-touch: a PE's slice lives in its own CPU domain
  kInterleave,   ///< slices round-robin across domains
  kDomain0,      ///< one arena on domain 0 (naive allocator baseline)
};

/// Node-local messages up to this size ride the SPSC rings.
inline constexpr std::size_t kRingMaxBytes = 512;

/// Configuration of the node-local transport. Off by default; every layer
/// that consults it treats `enabled == false` as "use the fabric path",
/// keeping existing runs bit-identical.
struct NodeTransportOptions {
  bool enabled = false;
  int ring_slots = 64;               ///< slots per SPSC ring (>= 2)
  std::size_t slot_bytes = 128;      ///< payload per slot (one padded line pair)
  NumaPlacement placement = NumaPlacement::kLocalDomain;
};

/// Result of pushing one message onto a pair's SPSC ring.
struct RingPush {
  sim::Time producer_done;  ///< slots written; source buffer reusable
  sim::Time delivered;      ///< payload observable and popped by the consumer
  int slots = 1;
  bool stalled = false;     ///< producer waited for the consumer (ring full)
};

/// Times of a round-trip node-local operation (get / atomic).
struct NodeRoundTrip {
  sim::Time exec;      ///< target memory read / RMW executed
  sim::Time complete;  ///< result observable at the initiator
};

class NodeChannel {
 public:
  /// Producer-side cost to begin a bulk copy or service a get (descriptor
  /// math, segment translation).
  static constexpr sim::Time kBulkIssue = 20;
  /// Producer store cost per ring slot (payload line + sequence flag).
  static constexpr sim::Time kSlotWrite = 10;
  /// Consumer cost to pop one ring message after visibility.
  static constexpr sim::Time kRingPop = 10;
  /// Issue cost of a node-local atomic (address translation + lock prefix).
  static constexpr sim::Time kAmoIssue = 15;
  /// Cache-line RMW execution once the line is owned.
  static constexpr sim::Time kAmoRmw = 30;
  /// Per-element pointer arithmetic of software strided/scatter loops.
  static constexpr sim::Time kElemGap = 2;

  NodeChannel(const MachineProfile& machine, int npes,
              NodeTransportOptions opts);

  const NodeTransportOptions& options() const { return opts_; }
  const MachineProfile& machine() const { return machine_; }

  // ---- topology ----

  int numa_domains() const { return machine_.numa_domains; }
  /// CPU domain of `pe` (contiguous core -> domain mapping).
  int domain_of(int pe) const {
    const int local = pe % machine_.cores_per_node;
    return local * machine_.numa_domains / machine_.cores_per_node;
  }
  /// Domain holding `pe`'s slice of the node-shared heap (placement policy).
  int segment_domain(int pe) const;
  /// True when `accessor`'s CPU domain matches `owner`'s segment domain.
  bool numa_local(int accessor_pe, int owner_pe) const {
    return domain_of(accessor_pe) == segment_domain(owner_pe);
  }

  // ---- cost model ----

  /// Visibility latency of a store by `src` into `dst`'s segment.
  sim::Time visibility(int src_pe, int dst_pe) const {
    return numa_local(src_pe, dst_pe) ? machine_.numa_local_latency
                                      : machine_.numa_remote_latency;
  }
  double bytes_per_ns(int accessor_pe, int owner_pe) const {
    return numa_local(accessor_pe, owner_pe)
               ? machine_.numa_local_bytes_per_ns
               : machine_.numa_remote_bytes_per_ns;
  }
  /// Producer-core memcpy of `n` bytes into/out of `owner`'s segment.
  sim::Time copy_cost(int accessor_pe, int owner_pe, std::size_t n) const {
    return kBulkIssue + sim::from_ns(static_cast<double>(n) /
                                     bytes_per_ns(accessor_pe, owner_pe));
  }
  /// Software strided loop: per-element pointer math on top of the copy.
  sim::Time strided_cost(int accessor_pe, int owner_pe, std::size_t elem_bytes,
                         std::size_t nelems) const {
    return copy_cost(accessor_pe, owner_pe, elem_bytes * nelems) +
           static_cast<sim::Time>(nelems) * kElemGap;
  }
  /// Vectored put: per-record pointer math on top of the payload copy.
  sim::Time scatter_cost(int accessor_pe, int owner_pe,
                         std::size_t payload_bytes, std::size_t nrecs) const {
    return copy_cost(accessor_pe, owner_pe, payload_bytes) +
           static_cast<sim::Time>(nrecs) * kElemGap;
  }

  bool ring_eligible(std::size_t n) const { return n <= kRingMaxBytes; }
  int slots_for(std::size_t n) const {
    const auto s = (n + opts_.slot_bytes - 1) / opts_.slot_bytes;
    return s == 0 ? 1 : static_cast<int>(s);
  }
  /// Producer store cost for a ring message of `n` bytes (pre-dilation).
  sim::Time ring_write_cost(std::size_t n) const {
    return static_cast<sim::Time>(slots_for(n)) * kSlotWrite;
  }

  // ---- stateful resources ----

  /// Reserves slots on the (src -> dst) ring for an `n`-byte message sent at
  /// `now`. `write_cost`/`pop_cost` are the (possibly dilated) producer and
  /// consumer CPU costs. Stalls the start until enough slots have been
  /// retired when the ring is full.
  RingPush push(int src_pe, int dst_pe, std::size_t n, sim::Time now,
                sim::Time write_cost, sim::Time pop_cost);

  /// Node-local atomic on `dst`'s segment: serialized per target PE (the
  /// cache line bounces once per op). `issue_cost`/`rmw_cost` are the
  /// (possibly dilated) requester CPU costs.
  NodeRoundTrip amo(int src_pe, int dst_pe, sim::Time now, sim::Time issue_cost,
                    sim::Time rmw_cost);

  /// Node-local read of `n` bytes from `src`'s view: snapshot at `exec`,
  /// result streamed back by `complete`. `extra_copy` carries per-element
  /// gaps for strided gets.
  NodeRoundTrip get(int accessor_pe, int owner_pe, std::size_t n, sim::Time now,
                    sim::Time issue_cost, sim::Time extra_copy = 0) const {
    const sim::Time exec = now + issue_cost;
    return {exec, exec + visibility(accessor_pe, owner_pe) +
                      sim::from_ns(static_cast<double>(n) /
                                   bytes_per_ns(accessor_pe, owner_pe)) +
                      extra_copy};
  }

  // ---- introspection (tests, benches) ----

  std::uint64_t ring_pushes() const { return pushes_; }
  std::uint64_t ring_stalls() const { return stalls_; }
  std::uint64_t ring_wraps() const { return wraps_; }

 private:
  struct Ring {
    std::vector<sim::Time> retire;  ///< per-slot: consumer done with the slot
    std::uint64_t head = 0;
  };
  Ring& ring(int src_pe, int dst_pe);

  MachineProfile machine_;
  int npes_;
  NodeTransportOptions opts_;
  std::unordered_map<std::uint64_t, Ring> rings_;  // ordered same-node pairs
  std::vector<sim::Time> amo_free_;                // per target PE
  std::uint64_t pushes_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t wraps_ = 0;
};

}  // namespace net
