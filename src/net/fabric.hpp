// Fabric: the shared-state cost calculator for one simulated cluster.
//
// A Fabric instance tracks, per node, when the transmit and receive sides of
// the NIC next become free, and per PE, when its target-side processing
// resource (NIC atomic unit or CPU active-message handler) becomes free.
// Transports call submit_* with the current virtual time; the Fabric
// advances its link state and returns the completion times the transport
// should schedule events at. The Fabric itself never touches the event
// queue or any memory — it is a pure timing oracle, which keeps it trivially
// unit-testable.
#pragma once

#include <cstddef>
#include <vector>

#include "net/model.hpp"
#include "sim/time.hpp"

namespace net {

class FaultInjector;

class Fabric {
 public:
  Fabric(MachineProfile profile, int npes);

  const MachineProfile& profile() const { return profile_; }
  int npes() const { return npes_; }
  int node_of(int pe) const { return pe / profile_.cores_per_node; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// One-way data transfer of `bytes` from `src_pe` to `dst_pe`.
  /// If `pipelined`, the issuing CPU only pays the injection gap (non-
  /// blocking interface); otherwise it pays the full put overhead.
  PutCompletion submit_put(int src_pe, int dst_pe, std::size_t bytes,
                           const SwProfile& sw, sim::Time now,
                           bool pipelined = false);

  /// 1-D hardware-strided transfer (DMAPP-style shmem_iput): `nelems`
  /// elements of `elem_bytes` each gathered/scattered by the NIC in one
  /// network operation. Requires sw.hw_strided.
  PutCompletion submit_strided_put(int src_pe, int dst_pe,
                                   std::size_t elem_bytes, std::size_t nelems,
                                   const SwProfile& sw, sim::Time now,
                                   bool pipelined = false);

  /// Read of `bytes` from `dst_pe`'s memory back to `src_pe`.
  RoundTrip submit_get(int src_pe, int dst_pe, std::size_t bytes,
                       const SwProfile& sw, sim::Time now);

  /// Strided read, NIC-gathered (requires sw.hw_strided).
  RoundTrip submit_strided_get(int src_pe, int dst_pe, std::size_t elem_bytes,
                               std::size_t nelems, const SwProfile& sw,
                               sim::Time now);

  /// 8-byte remote atomic at `dst_pe`. Serializes on the target's atomic
  /// unit (NIC if sw.nic_amo, otherwise the target CPU's handler queue), so
  /// many-to-one atomics contend realistically.
  RoundTrip submit_amo(int src_pe, int dst_pe, const SwProfile& sw,
                       sim::Time now);

  /// Active-message request carrying `bytes` of payload; the handler runs on
  /// the target CPU and a short reply returns. target_read = handler start.
  RoundTrip submit_am(int src_pe, int dst_pe, std::size_t bytes,
                      const SwProfile& sw, sim::Time now);

  /// One-way control-channel message carrying `bytes` of payload (RPC
  /// replies, mailbox acks). Like the AMO/AM reply leg it pays latency and
  /// occupancy without reserving the data links — replies are computed
  /// eagerly at future timestamps, and letting them block the present would
  /// be a causality artifact, not contention. Under fault injection each
  /// attempt is judged like any other inter-node message (FaultInjector::
  /// fate: death, partitions, loss, flaky links) and retransmitted per the
  /// plan's RetryPolicy; ok=false when the receiver is dead, the retries
  /// exhaust, or the sender dies before it can resend.
  PutCompletion submit_reply(int src_pe, int dst_pe, std::size_t bytes,
                             const SwProfile& sw, sim::Time now);

  /// Resets link/occupancy state and, when a fault injector is attached,
  /// rewinds it to its seeded initial state (FaultInjector::reset), so each
  /// benchmark repetition starts from an identical fault stream.
  void reset();

  /// Attaches (or detaches, with nullptr) a fault injector. Not owned; must
  /// outlive the Fabric or be detached first. With an injector attached,
  /// inter-node submissions ask it for the fate of every leg (request and
  /// reply) and run one bounded retransmit loop (timeout + exponential
  /// backoff with jitter, per the plan's RetryPolicy), charging every
  /// retransmit through the normal link model. Injector-free operation
  /// keeps the original single-attempt fast path bit-for-bit, and so does
  /// intra-node traffic unless the plan sets FaultPlan::intra_node_faults —
  /// with it set, same-node transfers honor the kill schedule (a dead peer's
  /// segment is detached, so the copy fails without retransmits) and
  /// straggler dilation of the copy cost.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  FaultInjector* fault_injector() const { return faults_; }

 private:
  /// Outcome of one leg, or of one attempt's legs, under fault injection.
  struct WireTry {
    sim::Time delivered;  ///< delivery time, or the point the loss happened
    bool dropped;
  };

  /// Outcome of one retransmitted exchange.
  struct Exchange {
    sim::Time done;  ///< last leg delivered, or the give-up point
    int attempts;
    bool ok;
    bool initiator_died = false;  ///< ended by the initiator's death
  };

  /// Data legs reserve the NICs (wire_tx/wire_rx); control legs (AMO/AM
  /// replies, submit_reply) are priced by wire_control.
  enum class Leg { kData, kControl };

  /// Wire-level one-way message; returns delivery time and updates links.
  sim::Time wire(int src_pe, int dst_pe, double occupancy_ns, sim::Time start);

  /// Transmit leg only: source NIC serialization + wire latency. Returns
  /// arrival time at the destination node.
  sim::Time wire_tx(int src_node, double occupancy_ns, sim::Time start);
  /// Receive leg only: destination NIC message-retire serialization.
  sim::Time wire_rx(int dst_node, sim::Time arrival);

  /// True when traffic between the two PEs consults the injector.
  bool faulty(int src_pe, int dst_pe) const;

  /// One leg of one attempt. Inter-node under faults, the transmit side is
  /// always charged (the bytes leave the source either way) and the fate
  /// comes from FaultInjector::fate; a data-leg duplicate charges a second
  /// wire trip (receivers dedup by sequence number).
  WireTry leg(Leg kind, int src_pe, int dst_pe, double occupancy_ns,
              sim::Time start);

  /// The one retransmit loop: runs `attempt(send)` (one attempt's legs)
  /// once without faults; otherwise resends a lost attempt after
  /// retrans_timeout until it lands, the budget exhausts (reported to the
  /// detector), or the initiator is dead at the next send (not reported).
  /// Same-node attempts are never resent. First-attempt successes feed the
  /// RTT estimator with the time to the last leg plus `ack_tail`.
  template <class Attempt>
  Exchange exchange(int src_pe, int dst_pe, sim::Time start,
                    double expected_ns, sim::Time ack_tail, Attempt&& attempt);

  /// Put / strided put: one data leg.
  PutCompletion reliable_oneway(int src_pe, int dst_pe, double occupancy_ns,
                                sim::Time local_complete);

  /// Get / strided get: two data legs.
  RoundTrip reliable_get(int src_pe, int dst_pe, double req_occupancy_ns,
                         double reply_occupancy_ns, sim::Time start);

  /// AMO / AM: a data request, executed at the target, and a control reply.
  /// At-most-once semantics: the target executes on the first delivered
  /// request and caches the reply; retried requests are deduped by sequence
  /// number and answered from the cache, so the RMW/handler never reruns.
  /// target_read is the execution completion time when `read_at_exec_done`,
  /// else the handler start time (matching submit_amo vs submit_am).
  RoundTrip reliable_exec(int src_pe, int dst_pe, double req_occupancy_ns,
                          double reply_occupancy_ns, sim::Time start,
                          sim::Time unit_cost, bool read_at_exec_done);

  /// Control-channel message (AMO/AM replies): pays latency and occupancy
  /// but does not reserve the data links. Replies are computed eagerly at
  /// future timestamps; letting them reserve tx/rx slots would let the
  /// future block the present (a causality artifact, not contention).
  sim::Time wire_control(int src_pe, int dst_pe, double occupancy_ns,
                         sim::Time start) const;

  double xfer_ns(std::size_t bytes, const SwProfile& sw, bool local) const;

  MachineProfile profile_;
  int npes_;
  int nnodes_;
  std::vector<sim::Time> tx_free_;       // per node
  std::vector<sim::Time> rx_free_;       // per node
  std::vector<sim::Time> pe_proc_free_;  // per PE: AMO/handler serialization
  FaultInjector* faults_ = nullptr;      // not owned; nullptr = reliable
};

}  // namespace net
