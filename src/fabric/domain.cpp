#include "fabric/domain.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cassert>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "net/fault.hpp"
#include "obs/obs.hpp"

namespace fabric {

namespace {
std::string peer_failed_msg(const char* op, int src_pe, int dst_pe,
                            int attempts, sim::Time t) {
  std::ostringstream os;
  os << op << " from pe " << src_pe << " to pe " << dst_pe << " failed after "
     << attempts << " attempt(s) at t=" << sim::format_time(t)
     << " (retransmit budget exhausted; peer dead or sustained loss)";
  return os.str();
}
}  // namespace

PeerFailedError::PeerFailedError(const char* op, int src_pe, int dst_pe,
                                 int attempts, sim::Time t)
    : std::runtime_error(peer_failed_msg(op, src_pe, dst_pe, attempts, t)),
      op_(op),
      src_pe_(src_pe),
      dst_pe_(dst_pe),
      attempts_(attempts),
      time_(t) {}

Domain::ZeroedBuffer::ZeroedBuffer(std::size_t n)
    : p_(static_cast<std::byte*>(std::calloc(n ? n : 1, 1))) {
  if (p_ == nullptr) throw std::bad_alloc();
}

Domain::ZeroedBuffer::~ZeroedBuffer() { std::free(p_); }

Domain::Domain(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
               std::size_t segment_bytes)
    : engine_(engine),
      fabric_(fabric),
      sw_(std::move(sw)),
      segment_bytes_(segment_bytes) {
  segments_.reserve(fabric_.npes());
  for (int i = 0; i < fabric_.npes(); ++i) {
    segments_.emplace_back(segment_bytes_);
  }
  outstanding_.assign(fabric_.npes(), 0);
}

void Domain::note_outstanding(int src_pe, sim::Time t) {
  outstanding_[src_pe] = std::max(outstanding_[src_pe], t);
}

void Domain::enable_node_transport(const net::NodeTransportOptions& opts) {
  if (!opts.enabled || node_ != nullptr) return;
  node_ = std::make_unique<net::NodeChannel>(fabric_.profile(), fabric_.npes(),
                                             opts);
}

Domain::NodeTele& Domain::node_tele(int pe) {
  if (node_tele_.empty()) node_tele_.resize(static_cast<std::size_t>(npes()));
  NodeTele& t = node_tele_[static_cast<std::size_t>(pe)];
  if (t.puts == nullptr) {
    auto& reg = obs::registry();
    t.puts = &reg.counter(pe, "node.puts");
    t.gets = &reg.counter(pe, "node.gets");
    t.amos = &reg.counter(pe, "node.amos");
    t.scatters = &reg.counter(pe, "node.scatters");
    t.strided = &reg.counter(pe, "node.strided");
    t.ring_msgs = &reg.counter(pe, "node.ring_msgs");
    t.ring_stalls = &reg.counter(pe, "node.ring_stalls");
    t.bulk_msgs = &reg.counter(pe, "node.bulk_msgs");
    t.numa_remote = &reg.counter(pe, "node.numa_remote");
    t.elided_msgs = &reg.counter(pe, "node.elided_msgs");
    t.elided_bytes = &reg.counter(pe, "node.elided_bytes");
  }
  return t;
}

net::PutCompletion Domain::node_oneway(int me, sim::Time now, int dst_pe,
                                       std::size_t wire_bytes,
                                       sim::Time extra_copy, NodeTele& t) {
  net::NodeChannel& ch = *node_;
  net::FaultInjector* fi = fabric_.fault_injector();
  sim::Time local_complete;
  sim::Time delivered;
  if (extra_copy == 0 && ch.ring_eligible(wire_bytes)) {
    sim::Time wc = ch.ring_write_cost(wire_bytes);
    sim::Time pc = net::NodeChannel::kRingPop;
    if (fi != nullptr) {
      wc = fi->dilate(me, wc);       // producer stores the slots
      pc = fi->dilate(dst_pe, pc);   // consumer pops them
    }
    const net::RingPush p = ch.push(me, dst_pe, wire_bytes, now, wc, pc);
    local_complete = p.producer_done;
    delivered = p.delivered;
    ++*t.ring_msgs;
    if (p.stalled) ++*t.ring_stalls;
  } else {
    sim::Time copy = ch.copy_cost(me, dst_pe, wire_bytes) + extra_copy;
    if (fi != nullptr) copy = fi->dilate(me, copy);
    local_complete = now + copy;
    delivered = local_complete + ch.visibility(me, dst_pe);
    ++*t.bulk_msgs;
  }
  if (!ch.numa_local(me, dst_pe)) ++*t.numa_remote;
  if (fi != nullptr) {
    if (fi->pe_dead(dst_pe, delivered)) {
      // The peer's shared segment is detached before the bytes land; a
      // shared-memory store cannot be retransmitted.
      fi->note_exhaustion(me, dst_pe, delivered);
      return {local_complete, delivered, false, 1};
    }
    fi->note_delivery(me, dst_pe, delivered);
  }
  ++*t.elided_msgs;
  *t.elided_bytes += wire_bytes;
  return {local_complete, delivered, true, 1};
}

std::byte* BufPool::acquire(std::size_t n, std::uint8_t* cls_out) {
  // Pow2 size classes, 16-byte minimum (the free-list link lives in the
  // buffer's first bytes, and scatter records need 8-byte alignment, which
  // malloc already guarantees per class).
  const auto cls = static_cast<std::uint8_t>(
      std::bit_width(std::max<std::size_t>(n, 16) - 1));
  assert(cls < sizeof(free_) / sizeof(free_[0]));
  *cls_out = cls;
  std::byte*& fl = free_[cls];
  if (fl != nullptr) {
    std::byte* p = fl;
    std::memcpy(&fl, p, sizeof fl);
    return p;
  }
  auto* p = static_cast<std::byte*>(std::malloc(std::size_t{1} << cls));
  if (p == nullptr) throw std::bad_alloc();
  all_.push_back(p);
  return p;
}

void BufPool::release(std::byte* p, std::uint8_t cls) {
  std::memcpy(p, &free_[cls], sizeof(std::byte*));
  free_[cls] = p;
}

BufPool::~BufPool() {
  for (std::byte* p : all_) std::free(p);
}

namespace {
std::size_t hash_dst(int dst) {
  return static_cast<std::size_t>(
      static_cast<std::uint64_t>(dst) * 0x9E3779B97F4A7C15ull >> 32);
}
}  // namespace

std::uint32_t Domain::pair_id(int src_pe, int dst_pe) {
  if (pair_map_.empty()) pair_map_.resize(static_cast<std::size_t>(npes()));
  PairTable& tbl = pair_map_[static_cast<std::size_t>(src_pe)];
  if (tbl.slots.empty()) tbl.slots.assign(8, PairSlot{-1, 0});
  std::size_t mask = tbl.slots.size() - 1;
  std::size_t i = hash_dst(dst_pe) & mask;
  while (tbl.slots[i].dst >= 0) {
    if (tbl.slots[i].dst == dst_pe) return tbl.slots[i].id;
    i = (i + 1) & mask;
  }
  // First put on this pair: mint a dense id (first-touch order, which is
  // deterministic) and grow its SoA stream state.
  const auto id = static_cast<std::uint32_t>(fifo_last_.size());
  fifo_last_.push_back(0);
  head_.push_back(nullptr);
  tail_.push_back(nullptr);
  if ((tbl.count + 1) * 2 > tbl.slots.size()) {
    std::vector<PairSlot> old = std::move(tbl.slots);
    tbl.slots.assign(old.size() * 2, PairSlot{-1, 0});
    mask = tbl.slots.size() - 1;
    for (const PairSlot& s : old) {
      if (s.dst < 0) continue;
      std::size_t j = hash_dst(s.dst) & mask;
      while (tbl.slots[j].dst >= 0) j = (j + 1) & mask;
      tbl.slots[j] = s;
    }
    i = hash_dst(dst_pe) & mask;
    while (tbl.slots[i].dst >= 0) i = (i + 1) & mask;
  }
  tbl.slots[i] = PairSlot{dst_pe, id};
  ++tbl.count;
  return id;
}

void Domain::stream_fire_tramp(void* ctx, std::uint64_t pair, std::uint64_t) {
  static_cast<Domain*>(ctx)->stream_fire(static_cast<std::uint32_t>(pair));
}

void Domain::stream_append(std::uint32_t pair, PendingMsg* m) {
  m->next = nullptr;
  if (tail_[pair] != nullptr) {
    // Stream busy: the armed event for the current head will re-arm for us.
    tail_[pair]->next = m;
    tail_[pair] = m;
    return;
  }
  head_[pair] = tail_[pair] = m;
  engine_.schedule_raw_reserved(m->t, m->seq, &stream_fire_tramp, this, pair);
}

void Domain::stream_fire(std::uint32_t pair) {
  PendingMsg* m = head_[pair];
  head_[pair] = m->next;
  if (head_[pair] == nullptr) {
    tail_[pair] = nullptr;
  } else {
    // Successors have strictly later clamped times and their own reserved
    // seqs, so re-arming now reproduces the exact (t, seq) pop position a
    // dedicated event would have had.
    engine_.schedule_raw_reserved(head_[pair]->t, head_[pair]->seq,
                                  &stream_fire_tramp, this, pair);
  }
  apply(*m);
  buf_pool_.release(m->buf, m->buf_cls);
  msg_pool_.release(m);
}

void Domain::apply(const PendingMsg& m) {
  std::byte* seg = segments_[m.dst_pe].data();
  switch (m.op) {
    case PendingMsg::Op::kContig:
      assert(m.dst_off + m.payload_bytes <= segment_bytes_);
      std::memcpy(seg + m.dst_off, m.buf, m.payload_bytes);
      wake(m.dst_pe, m.dst_off, m.payload_bytes, m.t);
      break;
    case PendingMsg::Op::kScatter: {
      const auto* recs = reinterpret_cast<const ScatterRec*>(m.buf);
      const std::byte* payload = m.buf + m.payload_off;
      for (std::uint32_t i = 0; i < m.nelems; ++i) {
        const ScatterRec& r = recs[i];
        std::memcpy(seg + r.dst_off, payload + r.payload_off, r.len);
        wake(m.dst_pe, r.dst_off, r.len, m.t);
      }
      break;
    }
    case PendingMsg::Op::kStrided:
      for (std::uint32_t i = 0; i < m.nelems; ++i) {
        const std::uint64_t off =
            m.dst_off +
            i * static_cast<std::uint64_t>(m.dst_stride) * m.elem_bytes;
        std::memcpy(seg + off, m.buf + std::size_t{i} * m.elem_bytes,
                    m.elem_bytes);
        wake(m.dst_pe, off, m.elem_bytes, m.t);
      }
      break;
  }
}

void Domain::poke(int dst_pe, std::uint64_t dst_off, const void* src,
                  std::size_t n, sim::Time t) {
  assert(dst_off + n <= segment_bytes_);
  std::memcpy(segments_[dst_pe].data() + dst_off, src, n);
  wake(dst_pe, dst_off, n, t);
}

void Domain::enqueue(int me, PendingMsg* m, net::PutCompletion& c,
                     std::uint32_t* cached) {
  if (cached != nullptr && *cached == kNoPair) {
    *cached = pair_id(me, m->dst_pe);
  }
  const std::uint32_t pair =
      cached != nullptr ? *cached : pair_id(me, m->dst_pe);
  c.delivered = clamp_in_order(pair, c.delivered);
  note_outstanding(me, c.delivered);
  m->t = c.delivered;
  m->seq = engine_.reserve_seq();
  stream_append(pair, m);
}

net::PutCompletion Domain::complete_local(const char* op, int me, int dst_pe,
                                          const net::PutCompletion& c) {
  engine_.advance_to(c.local_complete);
  if (!c.ok) throw PeerFailedError(op, me, dst_pe, c.attempts, c.delivered);
  return c;
}

net::PutCompletion Domain::put(int dst_pe, std::uint64_t dst_off,
                               const void* src, std::size_t n,
                               bool pipelined) {
  const int me = current_pe();
  if (dst_off + n > segment_bytes_) {
    throw std::out_of_range("fabric::Domain::put beyond segment");
  }
  return complete_local(
      "put", me, dst_pe,
      put_at(me, engine_.now(), dst_pe, dst_off, src, n, pipelined));
}

net::PutCompletion Domain::put_at(int me, sim::Time now, int dst_pe,
                                  std::uint64_t dst_off, const void* src,
                                  std::size_t n, bool pipelined,
                                  std::uint32_t* pair) {
  assert(dst_off + n <= segment_bytes_);
  net::PutCompletion c;
  if (node_routed(me, dst_pe)) {
    // Node-local path: ring or NUMA memcpy, no fabric message. The producer
    // pays the copy either way, so nbi and blocking puts price identically.
    NodeTele& nt = node_tele(me);
    c = node_oneway(me, now, dst_pe, n, 0, nt);
    if (c.ok) ++*nt.puts;
  } else {
    c = fabric_.submit_put(me, dst_pe, n, sw_, now, pipelined);
  }
  // A failed message is not queued and its give-up time is not
  // outstanding: the bytes never land, and quiet() must not stall on them.
  if (!c.ok) return c;
  // Capture the payload now: OpenSHMEM putmem guarantees the source buffer
  // is reusable on return.
  PendingMsg* m = msg_pool_.acquire();
  m->dst_pe = dst_pe;
  m->op = PendingMsg::Op::kContig;
  m->dst_off = dst_off;
  m->payload_bytes = static_cast<std::uint32_t>(n);
  m->buf = buf_pool_.acquire(n, &m->buf_cls);
  std::memcpy(m->buf, src, n);
  enqueue(me, m, c, pair);
  return c;
}

net::PutCompletion Domain::put_scatter(int dst_pe, const ScatterRec* recs,
                                       std::size_t nrecs, const void* payload,
                                       std::size_t payload_bytes,
                                       bool pipelined) {
  const int me = current_pe();
  for (std::size_t i = 0; i < nrecs; ++i) {
    if (recs[i].dst_off + recs[i].len > segment_bytes_ ||
        static_cast<std::size_t>(recs[i].payload_off) + recs[i].len >
            payload_bytes) {
      throw std::out_of_range("fabric::Domain::put_scatter beyond segment");
    }
  }
  net::PutCompletion c;
  if (node_routed(me, dst_pe)) {
    // Node-local vectored put: one copy of the packed payload plus
    // per-record pointer math; the (offset, length) headers never exist —
    // there is no wire message to carry them.
    NodeTele& nt = node_tele(me);
    c = node_oneway(me, engine_.now(), dst_pe, payload_bytes,
                    static_cast<sim::Time>(nrecs) * net::NodeChannel::kElemGap,
                    nt);
    if (c.ok) ++*nt.scatters;
  } else {
    // One wire message: packed payload plus an (offset, length) header per
    // record. The whole vector shares a single injection cost — that is
    // the entire point of write combining.
    const std::size_t wire = payload_bytes + nrecs * kScatterRecWire;
    c = fabric_.submit_put(me, dst_pe, wire, sw_, engine_.now(), pipelined);
  }
  if (c.ok) {
    // Pack records then payload into one pooled buffer.
    const std::size_t hdr = nrecs * sizeof(ScatterRec);
    PendingMsg* m = msg_pool_.acquire();
    m->dst_pe = dst_pe;
    m->op = PendingMsg::Op::kScatter;
    m->nelems = static_cast<std::uint32_t>(nrecs);
    m->payload_bytes = static_cast<std::uint32_t>(payload_bytes);
    m->payload_off = static_cast<std::uint32_t>(hdr);
    m->buf = buf_pool_.acquire(hdr + payload_bytes, &m->buf_cls);
    std::memcpy(m->buf, recs, hdr);
    std::memcpy(m->buf + hdr, payload, payload_bytes);
    enqueue(me, m, c);
  }
  return complete_local("put_scatter", me, dst_pe, c);
}

void Domain::get(void* dst, int src_pe, std::uint64_t src_off, std::size_t n) {
  if (src_off + n > segment_bytes_) {
    throw std::out_of_range("fabric::Domain::get beyond segment");
  }
  read(false, dst, 1, src_pe, src_off, 1, n, 1);
}

void Domain::iput_hw(int dst_pe, std::uint64_t dst_off,
                     std::ptrdiff_t dst_stride, const void* src,
                     std::ptrdiff_t src_stride, std::size_t elem_bytes,
                     std::size_t nelems, bool pipelined) {
  assert(sw_.hw_strided && "iput_hw requires a hardware-strided profile");
  const int me = current_pe();
  if (nelems == 0) return;
  const std::uint64_t span =
      dst_off + (nelems - 1) * static_cast<std::uint64_t>(dst_stride) * elem_bytes +
      elem_bytes;
  if (span > segment_bytes_) {
    throw std::out_of_range("fabric::Domain::iput_hw beyond segment");
  }
  net::PutCompletion c;
  if (node_routed(me, dst_pe)) {
    // Node-local strided put: the producer core walks both strides itself;
    // the NIC's scatter engine is not involved.
    NodeTele& nt = node_tele(me);
    c = node_oneway(me, engine_.now(), dst_pe, elem_bytes * nelems,
                    static_cast<sim::Time>(nelems) * net::NodeChannel::kElemGap,
                    nt);
    if (c.ok) ++*nt.strided;
  } else {
    c = fabric_.submit_strided_put(me, dst_pe, elem_bytes, nelems, sw_,
                                   engine_.now(), pipelined);
  }
  if (c.ok) {
    // Gather the source elements at issue time; scatter happens at
    // delivery.
    PendingMsg* m = msg_pool_.acquire();
    m->dst_pe = dst_pe;
    m->op = PendingMsg::Op::kStrided;
    m->dst_off = dst_off;
    m->dst_stride = dst_stride;
    m->elem_bytes = static_cast<std::uint32_t>(elem_bytes);
    m->nelems = static_cast<std::uint32_t>(nelems);
    m->payload_bytes = static_cast<std::uint32_t>(elem_bytes * nelems);
    m->buf = buf_pool_.acquire(elem_bytes * nelems, &m->buf_cls);
    const auto* s = static_cast<const std::byte*>(src);
    for (std::size_t i = 0; i < nelems; ++i) {
      std::memcpy(m->buf + i * elem_bytes,
                  s + static_cast<std::ptrdiff_t>(i) * src_stride *
                          static_cast<std::ptrdiff_t>(elem_bytes),
                  elem_bytes);
    }
    enqueue(me, m, c);
  }
  complete_local("iput", me, dst_pe, c);
}

void Domain::iget_hw(void* dst, std::ptrdiff_t dst_stride, int src_pe,
                     std::uint64_t src_off, std::ptrdiff_t src_stride,
                     std::size_t elem_bytes, std::size_t nelems) {
  assert(sw_.hw_strided && "iget_hw requires a hardware-strided profile");
  if (nelems == 0) return;
  read(true, dst, dst_stride, src_pe, src_off, src_stride, elem_bytes, nelems);
}

void Domain::read(bool strided, void* dst, std::ptrdiff_t dst_stride,
                  int src_pe, std::uint64_t src_off, std::ptrdiff_t src_stride,
                  std::size_t elem_bytes, std::size_t nelems) {
  const int me = current_pe();
  const char* op = strided ? "iget" : "get";
  const std::size_t bytes = elem_bytes * nelems;
  net::NodeRoundTrip at;  // target read, reply at the initiator
  if (node_routed(me, src_pe)) {
    // Node-local read: the caller's own core streams the bytes out of the
    // peer's shared segment — no request message, no NIC.
    net::NodeChannel& ch = *node_;
    net::FaultInjector* fi = fabric_.fault_injector();
    NodeTele& nt = node_tele(me);
    sim::Time issue = net::NodeChannel::kBulkIssue;
    sim::Time gaps =
        strided ? static_cast<sim::Time>(nelems) * net::NodeChannel::kElemGap
                : 0;
    if (fi != nullptr) {
      issue = fi->dilate(me, issue);
      gaps = fi->dilate(me, gaps);
    }
    const net::NodeRoundTrip rt =
        ch.get(me, src_pe, bytes, engine_.now(), issue, gaps);
    if (fi != nullptr && fi->pe_dead(src_pe, rt.exec)) {
      // Loading from a detached segment faults; no retry can help.
      fi->note_exhaustion(me, src_pe, rt.exec);
      engine_.advance_to(rt.exec);
      throw PeerFailedError(op, me, src_pe, 1, rt.exec);
    }
    ++*(strided ? nt.strided : nt.gets);
    ++*nt.elided_msgs;
    *nt.elided_bytes += bytes;
    if (!ch.numa_local(me, src_pe)) ++*nt.numa_remote;
    at = rt;
  } else {
    const auto rt =
        strided ? fabric_.submit_strided_get(me, src_pe, elem_bytes, nelems,
                                             sw_, engine_.now())
                : fabric_.submit_get(me, src_pe, bytes, sw_, engine_.now());
    if (!rt.ok) {
      engine_.advance_to(rt.complete);
      throw PeerFailedError(op, me, src_pe, rt.attempts, rt.complete);
    }
    // The NIC reads target memory when it services the request.
    at = {rt.target_read, rt.complete};
  }
  round_trip(op, {.dst = static_cast<std::byte*>(dst), .off = src_off,
                  .src_stride = src_stride, .dst_stride = dst_stride,
                  .elem_bytes = elem_bytes, .nelems = nelems,
                  .exec = at.exec, .complete = at.complete, .pe = src_pe});
}

void Domain::round_trip(const char* op, const RoundTrip& rec) {
  RoundTrip* r = rt_pool_.acquire();
  *r = rec;
  r->fiber = engine_.current_fiber();
  r->buf = buf_pool_.acquire(r->elem_bytes * r->nelems, &r->buf_cls);
  r->fiber->set_block_op(op, r->pe);
  const auto a = reinterpret_cast<std::uint64_t>(r);
  engine_.schedule_raw(r->exec, &round_trip_exec, this, a);
  if (r->amo) engine_.schedule_raw(r->complete, &round_trip_complete, this, a);
  engine_.block();
}

void Domain::round_trip_exec(void* ctx, std::uint64_t rec, std::uint64_t) {
  auto* d = static_cast<Domain*>(ctx);
  RoundTrip& r = *reinterpret_cast<RoundTrip*>(rec);
  std::byte* src = d->segments_[r.pe].data() + r.off;
  if (!r.amo) {
    // Snapshot at target-read time; the reply carries these bytes.
    for (std::size_t i = 0; i < r.nelems; ++i) {
      std::memcpy(r.buf + i * r.elem_bytes,
                  src + static_cast<std::ptrdiff_t>(i) * r.src_stride *
                            static_cast<std::ptrdiff_t>(r.elem_bytes),
                  r.elem_bytes);
    }
    d->engine_.schedule_raw(r.complete, &round_trip_complete, ctx, rec);
    return;
  }
  std::uint64_t old = 0;
  std::memcpy(&old, src, sizeof old);
  std::memcpy(r.buf, &old, sizeof old);
  if (const auto neu = amo_apply(r.op, old, r.operand, r.cond)) {
    std::memcpy(src, &*neu, sizeof *neu);
    d->wake(r.pe, r.off, sizeof *neu, r.exec);
  }
}

void Domain::round_trip_complete(void* ctx, std::uint64_t rec,
                                 std::uint64_t) {
  auto* d = static_cast<Domain*>(ctx);
  auto* r = reinterpret_cast<RoundTrip*>(rec);
  sim::Fiber& f = *r->fiber;
  const sim::Time complete = r->complete;
  if (!f.kill_pending()) {
    for (std::size_t i = 0; i < r->nelems; ++i) {
      std::memcpy(r->dst + static_cast<std::ptrdiff_t>(i) * r->dst_stride *
                               static_cast<std::ptrdiff_t>(r->elem_bytes),
                  r->buf + i * r->elem_bytes, r->elem_bytes);
    }
  }
  d->buf_pool_.release(r->buf, r->buf_cls);
  d->rt_pool_.release(r);
  d->engine_.resume(f, complete);
}

std::uint64_t Domain::amo(AmoOp op, int dst_pe, std::uint64_t dst_off,
                          std::uint64_t operand, std::uint64_t cond) {
  const int me = current_pe();
  if (dst_off + sizeof(std::uint64_t) > segment_bytes_) {
    throw std::out_of_range("fabric::Domain::amo beyond segment");
  }
  net::NodeRoundTrip at;  // RMW at the target, reply at the initiator
  if (node_routed(me, dst_pe)) {
    // Node-local atomic: a CPU lock-prefixed RMW on the owner's cache line,
    // serialized per target PE inside the channel. The NIC atomic unit (or
    // AM handler) is never involved.
    net::NodeChannel& ch = *node_;
    net::FaultInjector* fi = fabric_.fault_injector();
    NodeTele& nt = node_tele(me);
    sim::Time issue = net::NodeChannel::kAmoIssue;
    sim::Time rmw = net::NodeChannel::kAmoRmw;
    if (fi != nullptr) {
      issue = fi->dilate(me, issue);
      rmw = fi->dilate(me, rmw);
    }
    const net::NodeRoundTrip rt = ch.amo(me, dst_pe, engine_.now(), issue, rmw);
    if (fi != nullptr) {
      if (fi->pe_dead(dst_pe, rt.exec)) {
        fi->note_exhaustion(me, dst_pe, rt.exec);
        engine_.advance_to(rt.exec);
        throw PeerFailedError("amo", me, dst_pe, 1, rt.exec);
      }
      fi->note_delivery(me, dst_pe, rt.exec);
    }
    ++*nt.amos;
    ++*nt.elided_msgs;
    *nt.elided_bytes += sizeof(std::uint64_t);
    if (!ch.numa_local(me, dst_pe)) ++*nt.numa_remote;
    at = rt;
  } else {
    const auto rt = fabric_.submit_amo(me, dst_pe, sw_, engine_.now());
    if (!rt.ok) {
      engine_.advance_to(rt.complete);
      throw PeerFailedError("amo", me, dst_pe, rt.attempts, rt.complete);
    }
    at = {rt.target_read, rt.complete};
  }
  note_outstanding(me, at.exec);
  std::uint64_t fetched = 0;
  round_trip("amo", {.dst = reinterpret_cast<std::byte*>(&fetched),
                     .off = dst_off, .elem_bytes = sizeof fetched, .nelems = 1,
                     .operand = operand, .cond = cond, .exec = at.exec,
                     .complete = at.complete, .pe = dst_pe, .amo = true,
                     .op = op});
  return fetched;
}

void Domain::quiet() {
  const int me = current_pe();
  engine_.advance_to(outstanding_[me]);
}

// ---------------------------------------------------------------------------
// Parked flag waits and the dissemination barrier
// ---------------------------------------------------------------------------

Domain::Wait& Domain::start_wait(int me, const char* op) {
  if (waits_.empty()) waits_.resize(static_cast<std::size_t>(npes()));
  Wait& w = waits_[static_cast<std::size_t>(me)];
  w.restart();
  w.op = op;
  return w;
}

void Domain::wait_until(int me, std::uint64_t off, Cmp cmp,
                        std::int64_t value, const char* op,
                        std::uint64_t epoch) {
  Wait& w = start_wait(me, op);
  w.off = off;
  w.cmp = cmp;
  w.value = value;
  w.epoch = epoch;
  w.test_due = true;
  park(me);
}

void Domain::end_wait(int pe, sim::Time t) {
  if (waits_.empty()) return;
  Wait& w = waits_[static_cast<std::size_t>(pe)];
  if (w.watching && ended(w)) {
    w.watching = false;
    engine_.resume(*w.fiber, t);
  }
}

void Domain::barrier(int me, const ActiveSet& as, std::uint64_t flags_off,
                     std::int64_t gen, FlagSend send, const char* op) {
  assert(as.pe_size > 1 && as.pe_size <= (1 << kMaxRounds));
  Wait& w = start_wait(me, op);
  w.as = as;
  w.rel = as.rel_of(me);
  w.flags_off = flags_off;
  w.value = gen;
  w.send = send;
  park(me);
}

void Domain::park(int me) {
  Wait& w = waits_[static_cast<std::size_t>(me)];
  w.fiber = engine_.current_fiber();
  engine_.park(&Domain::wait_gate, this, static_cast<std::uint64_t>(me));
  if (w.failed_peer >= 0) {
    throw PeerFailedError(w.send.op, me, w.failed_peer, w.failed_attempts,
                          w.failed_at);
  }
}

bool Domain::wait_gate(void* ctx, std::uint64_t pe) {
  return static_cast<Domain*>(ctx)->step(static_cast<int>(pe));
}

// Each send, flag test and watcher registration happens in the same event,
// at the same clock, as it would if the fiber ran the rounds itself with a
// blocking send and a blocking wait: a send whose local completion lies
// ahead takes a turn there (resume, as advance_to would), and a failing
// flag test arms the watcher (as block would). Only the switch-ins in
// between are gone.
bool Domain::step(int me) {
  Wait& w = waits_[static_cast<std::size_t>(me)];
  sim::Fiber& f = *w.fiber;
  for (;;) {
    if (w.failed_peer >= 0) return true;
    if (w.test_due) {
      std::int64_t v = 0;
      std::memcpy(&v, segments_[me].data() + w.off, sizeof v);
      if (!compare(v, w.cmp, w.value) && !ended(w)) {
        w.watching = true;
        f.set_block_op(w.op);
        return false;
      }
      if (w.dist >= w.as.pe_size) return true;
    }
    const int peer = w.as.world_pe((w.rel + w.dist) % w.as.pe_size);
    const int round = std::countr_zero(static_cast<unsigned>(w.dist));
    w.off = w.flags_off +
            sizeof(std::int64_t) * static_cast<std::uint64_t>(round);
    w.dist <<= 1;
    w.test_due = true;
    Wait::RoundPair& rp = w.round_pairs[static_cast<std::size_t>(round)];
    if (rp.peer != peer) rp = {peer, kNoPair};
    const sim::Time now = f.clock();
    const net::PutCompletion c =
        w.send.fn(w.send.ctx, me, now, peer, w.off, w.value, &rp.id);
    if (!c.ok) {
      w.failed_peer = peer;
      w.failed_attempts = c.attempts;
      w.failed_at = c.delivered;
    }
    if (c.local_complete > now) {
      engine_.resume(f, c.local_complete);
      return false;
    }
  }
}

}  // namespace fabric
