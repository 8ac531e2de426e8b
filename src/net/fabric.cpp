#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>

#include "net/fault.hpp"
#include "obs/obs.hpp"

namespace net {

Fabric::Fabric(MachineProfile profile, int npes)
    : profile_(std::move(profile)), npes_(npes) {
  assert(npes > 0);
  nnodes_ = (npes + profile_.cores_per_node - 1) / profile_.cores_per_node;
  tx_free_.assign(nnodes_, 0);
  rx_free_.assign(nnodes_, 0);
  pe_proc_free_.assign(npes, 0);
  // A new fabric is a new simulated run: zero the observability session
  // (registry counters, event rings, phase table) so back-to-back runs in
  // one process start from identical state.
  obs::reset();
}

void Fabric::reset() {
  std::fill(tx_free_.begin(), tx_free_.end(), 0);
  std::fill(rx_free_.begin(), rx_free_.end(), 0);
  std::fill(pe_proc_free_.begin(), pe_proc_free_.end(), 0);
  if (faults_ != nullptr) faults_->reset();
  obs::reset();
}

double Fabric::xfer_ns(std::size_t bytes, const SwProfile& sw,
                       bool local) const {
  const double bw = local ? profile_.local_bytes_per_ns
                          : profile_.link_bytes_per_ns * sw.bw_efficiency;
  return static_cast<double>(bytes) / bw;
}

sim::Time Fabric::wire_tx(int src_node, double occupancy_ns, sim::Time start) {
  const sim::Time occ = sim::from_ns(occupancy_ns);
  // Serialize on the source NIC: messages from all PEs of a node share one
  // injection port (this is what creates the 16-pair contention in Figs 2-3).
  const sim::Time tx_start = std::max(start, tx_free_[src_node]);
  tx_free_[src_node] = tx_start + occ;
  return tx_start + occ + profile_.hw_latency;
}

sim::Time Fabric::wire_rx(int dst_node, sim::Time arrival) {
  // Receive side: the target NIC retires one message per rx_msg_gap; this is
  // what limits many-to-one message rates (lock and DHT benchmarks).
  const sim::Time rx_start = std::max(arrival, rx_free_[dst_node]);
  const sim::Time delivered = rx_start + profile_.rx_msg_gap;
  rx_free_[dst_node] = delivered;
  return delivered;
}

sim::Time Fabric::wire(int src_pe, int dst_pe, double occupancy_ns,
                       sim::Time start) {
  if (same_node(src_pe, dst_pe)) {
    // Intra-node transfers go through shared memory: no NIC involvement,
    // just copy time plus a short handoff latency.
    return start + profile_.local_latency + sim::from_ns(occupancy_ns);
  }
  const sim::Time arrival = wire_tx(node_of(src_pe), occupancy_ns, start);
  return wire_rx(node_of(dst_pe), arrival);
}

bool Fabric::faulty(int src_pe, int dst_pe) const {
  // Intra-node "wire" is a shared-memory copy; unless the plan opts in,
  // faults do not apply to it (flipping that default would move every
  // checked-in golden trace).
  return faults_ != nullptr &&
         (faults_->intra_node_faults() || !same_node(src_pe, dst_pe));
}

Fabric::WireTry Fabric::leg(Leg kind, int src_pe, int dst_pe,
                            double occupancy_ns, sim::Time start) {
  if (!faulty(src_pe, dst_pe)) {
    return {kind == Leg::kData ? wire(src_pe, dst_pe, occupancy_ns, start)
                               : wire_control(src_pe, dst_pe, occupancy_ns,
                                              start),
            false};
  }
  if (same_node(src_pe, dst_pe)) {
    // Opt-in honest intra-node semantics: the copy is producer CPU work, so
    // straggler dilation stretches it, and a killed receiver's segment is
    // detached — the store faults instead of landing. No loss, duplication,
    // or partition model applies: shared memory delivers or the peer is gone.
    const double occ = occupancy_ns * faults_->dilation(src_pe);
    const sim::Time delivered =
        start + profile_.local_latency + sim::from_ns(occ);
    if (faults_->pe_dead(dst_pe, delivered)) return {delivered, true};
    faults_->note_delivery(src_pe, dst_pe, delivered);
    return {delivered, false};
  }
  // Flaky-link bandwidth degradation inflates a data leg's occupancy (factor
  // 1.0 when the link is clean, so fault-free plans stay bit-identical). The
  // transmit leg is always paid: the bytes leave the source NIC whether or
  // not they survive the fabric.
  const double occ =
      kind == Leg::kData
          ? occupancy_ns * faults_->bw_penalty(src_pe, dst_pe, start)
          : occupancy_ns;
  const sim::Time arrival =
      kind == Leg::kData ? wire_tx(node_of(src_pe), occ, start)
                         : wire_control(src_pe, dst_pe, occ, start);
  const FaultInjector::Verdict v =
      faults_->fate(src_pe, dst_pe, start, arrival);
  if (v.drop) return {arrival, true};
  sim::Time delivered = arrival + v.extra_delay;
  if (kind == Leg::kData) {
    delivered = wire_rx(node_of(dst_pe), arrival) + v.extra_delay;
    if (v.duplicate) {
      // A duplicate consumes a second full wire trip; the receiver dedups by
      // sequence number so only the timing cost is observable.
      const sim::Time dup_arrival = wire_tx(node_of(src_pe), occ, arrival);
      (void)wire_rx(node_of(dst_pe), dup_arrival);
    }
  }
  // A delivered message doubles as liveness evidence for its sender
  // (heartbeat piggybacking; no-op without an armed detector).
  faults_->note_delivery(src_pe, dst_pe, delivered);
  return {delivered, false};
}

template <class Attempt>
Fabric::Exchange Fabric::exchange(int src_pe, int dst_pe, sim::Time start,
                                  double expected_ns, sim::Time ack_tail,
                                  Attempt&& attempt) {
  if (!faulty(src_pe, dst_pe)) return {attempt(start).delivered, 1, true};
  const bool local = same_node(src_pe, dst_pe);
  const int max_attempts = 1 + faults_->retry().max_retransmits;
  sim::Time send = start;
  for (int a = 1;; ++a) {
    const WireTry t = attempt(send);
    if (!t.dropped) {
      if (!local) {
        faults_->record_rtt(src_pe, dst_pe, t.delivered - send + ack_tail, a);
      }
      return {t.delivered, a, true};
    }
    // Shared memory has no retransmit: a dead peer's segment is detached,
    // so the first loss is final.
    if (!local) send += faults_->retrans_timeout(src_pe, dst_pe, a - 1,
                                                 expected_ns);
    const sim::Time give_up = local ? t.delivered : send;
    // A dead initiator sends nothing more: the exchange ends where its last
    // attempt was lost, and its silence is no evidence against the target.
    if (faults_->pe_dead(src_pe, give_up)) {
      return {t.delivered, a, false, /*initiator_died=*/true};
    }
    if (local || a == max_attempts) {
      faults_->note_exhaustion(src_pe, dst_pe, give_up);
      return {give_up, a, false};
    }
  }
}

PutCompletion Fabric::reliable_oneway(int src_pe, int dst_pe,
                                      double occupancy_ns,
                                      sim::Time local_complete) {
  const double expected_oneway =
      occupancy_ns + static_cast<double>(profile_.hw_latency);
  // The ack round trip approximates delivery + the return-leg latency.
  const Exchange x = exchange(
      src_pe, dst_pe, local_complete, expected_oneway, profile_.hw_latency,
      [&](sim::Time send) {
        return leg(Leg::kData, src_pe, dst_pe, occupancy_ns, send);
      });
  return {local_complete, x.done, x.ok, x.attempts};
}

RoundTrip Fabric::reliable_get(int src_pe, int dst_pe,
                               double req_occupancy_ns,
                               double reply_occupancy_ns, sim::Time start) {
  const double expected_rtt = req_occupancy_ns + reply_occupancy_ns +
                              2.0 * static_cast<double>(profile_.hw_latency);
  sim::Time target_read = 0;
  const Exchange x = exchange(
      src_pe, dst_pe, start, expected_rtt, 0, [&](sim::Time send) {
        const WireTry req =
            leg(Leg::kData, src_pe, dst_pe, req_occupancy_ns, send);
        if (req.dropped) return req;
        // The target NIC re-reads memory on every (re)request, so each retry
        // snapshots afresh; the last successful request's snapshot is the
        // one the caller observes.
        target_read = req.delivered;
        return leg(Leg::kData, dst_pe, src_pe, reply_occupancy_ns,
                   req.delivered);
      });
  if (!x.ok) return {x.done, x.done, false, x.attempts};
  return {target_read, x.done, true, x.attempts};
}

sim::Time Fabric::wire_control(int src_pe, int dst_pe, double occupancy_ns,
                               sim::Time start) const {
  if (same_node(src_pe, dst_pe)) {
    return start + profile_.local_latency + sim::from_ns(occupancy_ns);
  }
  return start + sim::from_ns(occupancy_ns) + profile_.hw_latency +
         profile_.rx_msg_gap;
}

RoundTrip Fabric::reliable_exec(int src_pe, int dst_pe,
                                double req_occupancy_ns,
                                double reply_occupancy_ns, sim::Time start,
                                sim::Time unit_cost, bool read_at_exec_done) {
  const double expected_rtt = req_occupancy_ns + reply_occupancy_ns +
                              2.0 * static_cast<double>(profile_.hw_latency) +
                              static_cast<double>(unit_cost);
  sim::Time exec_start = 0;
  sim::Time exec_done = -1;  // -1: not executed yet
  const Exchange x = exchange(
      src_pe, dst_pe, start, expected_rtt, 0, [&](sim::Time send) {
        const WireTry req =
            leg(Leg::kData, src_pe, dst_pe, req_occupancy_ns, send);
        if (req.dropped) return req;
        if (exec_done < 0) {
          // First delivered request executes, serialized per target PE (NIC
          // atomic unit or target CPU handler queue); later deliveries hit
          // the sequence-number dedup cache and only resend the reply.
          exec_start = std::max(req.delivered, pe_proc_free_[dst_pe]);
          exec_done = exec_start + unit_cost;
          pe_proc_free_[dst_pe] = exec_done;
        }
        return leg(Leg::kControl, dst_pe, src_pe, reply_occupancy_ns,
                   std::max(exec_done, req.delivered));
      });
  // A request the target executed stays executed, even when its initiator
  // died before the reply could land (DESIGN.md §6, killed initiators).
  const bool executed = x.ok || (x.initiator_died && exec_done >= 0);
  if (!executed) return {x.done, x.done, false, x.attempts};
  return {read_at_exec_done ? exec_done : exec_start, x.done, true,
          x.attempts};
}

PutCompletion Fabric::submit_put(int src_pe, int dst_pe, std::size_t bytes,
                                 const SwProfile& sw, sim::Time now,
                                 bool pipelined) {
  sim::Time issue_cost = pipelined ? sw.per_msg_gap : sw.put_overhead;
  if (faults_ != nullptr) issue_cost = faults_->dilate(src_pe, issue_cost);
  const sim::Time local_complete = now + issue_cost;
  const bool local = same_node(src_pe, dst_pe);
  const PutCompletion r = reliable_oneway(src_pe, dst_pe,
                                          xfer_ns(bytes, sw, local),
                                          local_complete);
  if (obs::enabled()) obs::wire_event(src_pe, dst_pe, bytes, now, r.delivered);
  return r;
}

PutCompletion Fabric::submit_strided_put(int src_pe, int dst_pe,
                                         std::size_t elem_bytes,
                                         std::size_t nelems,
                                         const SwProfile& sw, sim::Time now,
                                         bool pipelined) {
  assert(sw.hw_strided &&
         "software iput must be looped by the caller, not the fabric");
  sim::Time issue_cost = pipelined ? sw.per_msg_gap : sw.put_overhead;
  if (faults_ != nullptr) issue_cost = faults_->dilate(src_pe, issue_cost);
  const sim::Time local_complete = now + issue_cost;
  const bool local = same_node(src_pe, dst_pe);
  // The NIC gathers nelems descriptors: per-element gap plus byte cost.
  const double occupancy =
      xfer_ns(elem_bytes * nelems, sw, local) +
      static_cast<double>(sw.strided_elem_gap) * static_cast<double>(nelems);
  const PutCompletion r =
      reliable_oneway(src_pe, dst_pe, occupancy, local_complete);
  if (obs::enabled()) {
    obs::wire_event(src_pe, dst_pe, elem_bytes * nelems, now, r.delivered);
  }
  return r;
}

RoundTrip Fabric::submit_get(int src_pe, int dst_pe, std::size_t bytes,
                             const SwProfile& sw, sim::Time now) {
  const bool local = same_node(src_pe, dst_pe);
  // Request: a small (16-byte) descriptor to the target NIC; the target NIC
  // services the read directly (one-sided) and the data flows back as a
  // payload message.
  sim::Time issue_cost = sw.get_overhead;
  if (faults_ != nullptr) issue_cost = faults_->dilate(src_pe, issue_cost);
  const RoundTrip r =
      reliable_get(src_pe, dst_pe, xfer_ns(16, sw, local),
                   xfer_ns(bytes, sw, local), now + issue_cost);
  if (obs::enabled()) obs::wire_event(src_pe, dst_pe, bytes, now, r.complete);
  return r;
}

RoundTrip Fabric::submit_strided_get(int src_pe, int dst_pe,
                                     std::size_t elem_bytes,
                                     std::size_t nelems, const SwProfile& sw,
                                     sim::Time now) {
  assert(sw.hw_strided);
  const bool local = same_node(src_pe, dst_pe);
  const double occupancy =
      xfer_ns(elem_bytes * nelems, sw, local) +
      static_cast<double>(sw.strided_elem_gap) * static_cast<double>(nelems);
  sim::Time issue_cost = sw.get_overhead;
  if (faults_ != nullptr) issue_cost = faults_->dilate(src_pe, issue_cost);
  const RoundTrip r = reliable_get(src_pe, dst_pe, xfer_ns(16, sw, local),
                                   occupancy, now + issue_cost);
  if (obs::enabled()) {
    obs::wire_event(src_pe, dst_pe, elem_bytes * nelems, now, r.complete);
  }
  return r;
}

RoundTrip Fabric::submit_amo(int src_pe, int dst_pe, const SwProfile& sw,
                             sim::Time now) {
  const bool local = same_node(src_pe, dst_pe);
  // Execution at the target serializes per PE: on the NIC's atomic unit for
  // SHMEM/DMAPP/verbs, or on the target CPU for AM-emulated atomics.
  sim::Time unit_cost = sw.nic_amo ? profile_.nic_amo_gap : sw.handler_cpu;
  sim::Time issue_cost = sw.amo_overhead;
  if (faults_ != nullptr) {
    // Stragglers issue slowly and (for CPU-handled atomics) execute slowly.
    issue_cost = faults_->dilate(src_pe, issue_cost);
    if (!sw.nic_amo) unit_cost = faults_->dilate(dst_pe, unit_cost);
  }
  const RoundTrip r =
      reliable_exec(src_pe, dst_pe, xfer_ns(16, sw, local),
                    xfer_ns(8, sw, local), now + issue_cost, unit_cost,
                    /*read_at_exec_done=*/true);
  if (obs::enabled()) obs::wire_event(src_pe, dst_pe, 8, now, r.complete);
  return r;
}

PutCompletion Fabric::submit_reply(int src_pe, int dst_pe, std::size_t bytes,
                                   const SwProfile& sw, sim::Time now) {
  // An 8-byte completion descriptor rides along with the payload.
  const double occ = xfer_ns(bytes + 8, sw, same_node(src_pe, dst_pe));
  const double expected = occ + static_cast<double>(profile_.hw_latency);
  const Exchange x = exchange(
      src_pe, dst_pe, now, expected, profile_.hw_latency, [&](sim::Time send) {
        return leg(Leg::kControl, src_pe, dst_pe, occ, send);
      });
  if (x.ok && obs::enabled()) {
    obs::wire_event(src_pe, dst_pe, bytes, now, x.done);
  }
  return {now, x.done, x.ok, x.attempts};
}

RoundTrip Fabric::submit_am(int src_pe, int dst_pe, std::size_t bytes,
                            const SwProfile& sw, sim::Time now) {
  const bool local = same_node(src_pe, dst_pe);
  // The handler needs the target CPU; requests to the same PE serialize.
  sim::Time issue_cost = sw.put_overhead;
  sim::Time unit_cost = sw.handler_cpu;
  if (faults_ != nullptr) {
    issue_cost = faults_->dilate(src_pe, issue_cost);
    unit_cost = faults_->dilate(dst_pe, unit_cost);
  }
  const RoundTrip r =
      reliable_exec(src_pe, dst_pe, xfer_ns(bytes + 16, sw, local),
                    xfer_ns(8, sw, local), now + issue_cost,
                    unit_cost, /*read_at_exec_done=*/false);
  if (obs::enabled()) obs::wire_event(src_pe, dst_pe, bytes, now, r.complete);
  return r;
}

}  // namespace net
