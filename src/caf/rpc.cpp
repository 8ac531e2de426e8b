#include "caf/rpc.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <vector>

#include "caf/gasnet_conduit.hpp"
#include "fabric/domain.hpp"
#include "gasnet/gasnet.hpp"
#include "net/fabric.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace caf {

// ---------------------------------------------------------------------------
// Target-side handler context
// ---------------------------------------------------------------------------

namespace {

// The simulation is single-threaded: one handler runs at a time, so the
// active handler's context lives in plain globals, saved/restored for
// nesting (a fiber-context drain can run a handler while a continuation is
// already on the stack).
Runtime* g_target_rt = nullptr;
int g_target_image = 0;
sim::Time g_charge = 0;

struct TargetScope {
  Runtime* prev_rt;
  int prev_image;
  sim::Time prev_charge;

  TargetScope(Runtime* rt, int image)
      : prev_rt(g_target_rt),
        prev_image(g_target_image),
        prev_charge(g_charge) {
    g_target_rt = rt;
    g_target_image = image;
    g_charge = 0;
  }
  sim::Time charge() const { return g_charge; }
  ~TargetScope() {
    g_target_rt = prev_rt;
    g_target_image = prev_image;
    g_charge = prev_charge;
  }
};

}  // namespace

Runtime* rpc_target_runtime() { return g_target_rt; }
int rpc_target_image() { return g_target_image; }
void rpc_charge(sim::Time ns) { g_charge += ns; }

namespace rpc_detail {
void add_charge(sim::Time ns) { g_charge += ns; }
}  // namespace rpc_detail

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

RpcEngine::RpcEngine(Runtime& rt, const RpcOptions& opts)
    : rt_(rt), conduit_(rt.conduit()), opts_(opts) {
  if (opts_.slot_bytes <= kHeaderBytes || opts_.slots_per_pair < 1) {
    throw std::invalid_argument("RpcOptions: slot_bytes/slots_per_pair");
  }
  const bool is_gasnet = dynamic_cast<GasnetConduit*>(&conduit_) != nullptr;
  switch (opts_.transport) {
    case RpcOptions::Transport::kAm:
      if (!is_gasnet) {
        throw std::logic_error(
            "RpcOptions::Transport::kAm requires the GASNet conduit");
      }
      am_ = true;
      break;
    case RpcOptions::Transport::kMailbox:
      am_ = false;
      break;
    case RpcOptions::Transport::kAuto:
      am_ = is_gasnet;
      break;
  }
  const auto n = static_cast<std::size_t>(conduit_.nranks());
  per_.resize(n);
  // Sized here rather than in init_symmetric: a sender marks the target's
  // set and takes a row there, and the target may not have reached its own
  // init yet.
  for (PerPe& st : per_) st.cand.assign((n + 63) / 64, 0);
}

RpcEngine::~RpcEngine() = default;

int RpcEngine::self() const { return conduit_.rank(); }

std::size_t RpcEngine::ring_bytes() const {
  return static_cast<std::size_t>(conduit_.nranks()) *
         static_cast<std::size_t>(opts_.slots_per_pair) * opts_.slot_bytes;
}

void RpcEngine::init_symmetric() {
  const int n = conduit_.nranks();
  // Collective allocations — identical sequence on every image. The mailbox
  // area is allocated even on the AM transport (it keeps the two
  // transports' heap layouts — and thus every other offset — identical, so
  // a transport A/B comparison isolates the transport). Its rows are
  // cleared when a sender first takes one, so the pages of rows nobody
  // uses are never touched.
  mbox_off_ = conduit_.allocate(ring_bytes());
  bell_off_ = conduit_.allocate(sizeof(std::int64_t));
  ack_off_ = conduit_.allocate(static_cast<std::size_t>(n) * 8);

  const int me = self();
  std::byte* seg = conduit_.segment(me);
  std::memset(seg + bell_off_, 0, sizeof(std::int64_t));
  std::memset(seg + ack_off_, 0, static_cast<std::size_t>(n) * 8);

  PerPe& st = per_[static_cast<std::size_t>(me)];
  st.put_target = -1;
  st.stage.assign(opts_.slot_bytes, std::byte{0});
  auto& reg = obs::registry();
  st.c_sent = &reg.counter(me, "rpc.sent");
  st.c_ff = &reg.counter(me, "rpc.ff_sent");
  st.c_handled = &reg.counter(me, "rpc.handled");
  st.c_replies = &reg.counter(me, "rpc.replies");
  st.c_failed = &reg.counter(me, "rpc.failed");
  st.c_parked_drains = &reg.counter(me, "rpc.parked_drains");

  if (am_ && am_handler_ < 0) {
    auto& world = static_cast<GasnetConduit&>(conduit_).world();
    am_handler_ = world.register_handler(
        [this](const gasnet::Token& tok, std::span<const std::byte> payload,
               std::uint64_t arg0, std::uint64_t arg1) -> std::uint64_t {
          handle_am(tok, payload.data(), payload.size(), arg0, arg1);
          return 0;
        });
  }
}

void RpcEngine::bind_local(rpc_detail::FutureCore& core, int target0) {
  const int me = self();
  core.owner = me;
  core.rt = &rt_;
  core.sink = &per_[static_cast<std::size_t>(me)].ready;
  core.target = target0;
}

std::int64_t RpcEngine::read_bell(int image) {
  std::int64_t v;
  std::memcpy(&v, conduit_.segment(image) + bell_off_, sizeof(v));
  return v;
}

void RpcEngine::set_parked(int image, bool on) {
  per_[static_cast<std::size_t>(image)].parked = on;
}

void RpcEngine::fail_outstanding(PerPe& st, rpc_detail::Outstanding rec) {
  ++*st.c_failed;
  rec.remote->fulfill(kStatFailedImage);
  rec.op->fulfill(kStatFailedImage);
}

int RpcEngine::sweep_failures(int image) {
  PerPe& st = per_[static_cast<std::size_t>(image)];
  sim::Engine& eng = conduit_.engine();
  if (eng.declared_count() == 0 || st.outstanding.empty()) return 0;
  int failed = 0;
  for (auto it = st.outstanding.begin(); it != st.outstanding.end();) {
    if (it->second.target0 >= 0 && eng.pe_declared(it->second.target0)) {
      rpc_detail::Outstanding rec = std::move(it->second);
      it = st.outstanding.erase(it);
      fail_outstanding(st, std::move(rec));
      ++failed;
    } else {
      ++it;
    }
  }
  return failed;
}

void RpcEngine::run_ready(int image) {
  PerPe& st = per_[static_cast<std::size_t>(image)];
  if (st.in_ready) return;  // the outer loop will pick up new arrivals
  st.in_ready = true;
  while (!st.ready.empty()) {
    std::vector<std::function<void()>> batch = std::move(st.ready);
    st.ready.clear();
    for (auto& cb : batch) cb();
  }
  st.in_ready = false;
}

void RpcEngine::progress() {
  sim::Engine& eng = conduit_.engine();
  if (eng.current_fiber() == nullptr) return;  // not attributable to an image
  const int me = self();
  drain(me, /*fiber=*/true, 0);
  run_ready(me);
}

// ---------------------------------------------------------------------------
// Request submission
// ---------------------------------------------------------------------------

void RpcEngine::submit(int target0, std::uint64_t fn, const std::byte* blob,
                       std::size_t bytes, rpc_detail::Outstanding rec,
                       bool ff) {
  if (target0 < 0 || target0 >= conduit_.nranks()) {
    throw std::out_of_range("caf::rpc: bad target image");
  }
  if (bytes > payload_capacity()) {
    throw std::length_error("caf::rpc: request blob exceeds slot capacity");
  }
  const int me = self();
  PerPe& st = per_[static_cast<std::size_t>(me)];
  obs::Span sp(obs::Cat::kRpcSend, bytes,
               static_cast<std::uint32_t>(target0));
  sim::Engine& eng = conduit_.engine();
  if (eng.pe_declared(target0)) {
    if (!ff) fail_outstanding(st, std::move(rec));
    return;
  }
  const std::uint64_t id = ++st.next_req;
  if (!ff) st.outstanding.emplace(id, std::move(rec));
  ++*(ff ? st.c_ff : st.c_sent);
  try {
    if (am_) {
      auto& world = static_cast<GasnetConduit&>(conduit_).world();
      const std::uint64_t wire_id =
          id | (ff ? (std::uint64_t{1} << 63) : std::uint64_t{0});
      world.am_request(target0, am_handler_, wire_id, fn, blob, bytes);
    } else {
      rpc_detail::SlotHeader hdr;
      hdr.fn = fn;
      hdr.req_id = id;
      hdr.bytes = static_cast<std::uint32_t>(bytes);
      hdr.flags = ff ? rpc_detail::kFlagFf : 0;
      mailbox_send(me, target0, hdr, blob);
    }
  } catch (const fabric::PeerFailedError&) {
    // The transport pronounced delivery failed (dead target or exhausted
    // retries): surface through the future; ff requests vanish silently.
    if (!ff) {
      auto it = st.outstanding.find(id);
      if (it != st.outstanding.end()) {
        rpc_detail::Outstanding dead = std::move(it->second);
        st.outstanding.erase(it);
        fail_outstanding(st, std::move(dead));
      }
    }
  }
}

void RpcEngine::mailbox_send(int me, int target0,
                             const rpc_detail::SlotHeader& hdr,
                             const std::byte* blob) {
  PerPe& st = per_[static_cast<std::size_t>(me)];
  PerPe& ts = per_[static_cast<std::size_t>(target0)];
  const std::uint64_t k = static_cast<std::uint64_t>(opts_.slots_per_pair);
  // Indexed, never held: other first-contact senders grow ts.pairs while
  // this fiber blocks.
  const std::size_t row = row_of(target0, me);
  const std::uint64_t seq = ts.pairs[row].sent + 1;

  // Ring backpressure: the slot this sequence lands in is free once the
  // target's cumulative ack covers seq - k. Park while waiting — the wait
  // is bounded by the target's own progress, and incoming requests must
  // keep draining meanwhile or two mutually-flooding images deadlock.
  const std::uint64_t ack_cell =
      ack_off_ + static_cast<std::uint64_t>(target0) * 8;
  const auto read_acked = [&]() {
    std::int64_t acked;
    std::memcpy(&acked, conduit_.segment(me) + ack_cell, sizeof(acked));
    return acked;
  };
  if (seq > static_cast<std::uint64_t>(read_acked()) + k) {
    // Drain-then-park, like every other progress point: requests that
    // arrived while this image was running found it unparked (their
    // doorbell completions did nothing), so parking without draining
    // would strand them — and deadlock two mutually-flooding images.
    drain(me, /*fiber=*/true, 0);
    // Any image's declaration wakes the wait early; unless the target is
    // the one declared, wait again: putting now would overwrite a slot the
    // target has not served.
    const auto need = static_cast<std::int64_t>(seq - k);
    while (seq > static_cast<std::uint64_t>(read_acked()) + k) {
      st.parked = true;
      rt_.wait_fault(ack_cell, Cmp::kGe, need);
      st.parked = false;
      if (conduit_.engine().pe_declared(target0)) {
        throw fabric::PeerFailedError("rpc_send", me, target0, 0,
                                      conduit_.engine().now());
      }
    }
  }

  // put + quiet + fetch-add: the OpenSHMEM signaling idiom. The doorbell
  // bump is ordered after the slot payload (quiet), so one doorbell scan
  // always finds a fully-delivered request.
  rpc_detail::SlotHeader wire = hdr;
  wire.seq = seq;
  std::byte* buf = st.stage.data();
  std::memcpy(buf, &wire, kHeaderBytes);
  if (hdr.bytes != 0) std::memcpy(buf + kHeaderBytes, blob, hdr.bytes);
  const std::uint64_t dst_off = slot_off(row, seq);
  // Join the target's candidate set before the put is issued: the payload
  // can land, and a drain started by another doorbell can find it, before
  // this image's quiet returns. The in-flight marker keeps the bit alive
  // until the target has consumed this sequence.
  ts.cand[static_cast<std::size_t>(me) / 64] |= std::uint64_t{1} << (me % 64);
  st.put_target = target0;
  st.put_seq = seq;
  sim::Engine& eng = conduit_.engine();
  // How far this send got, for the unwind paths below.
  enum class Stage { kPut, kWire, kBell } stage = Stage::kPut;
  try {
    conduit_.put(target0, dst_off, buf, kHeaderBytes + hdr.bytes,
                 /*nbi=*/false);
    stage = Stage::kWire;
    conduit_.quiet();
    ts.pairs[row].sent = seq;
    if (conduit_.native_amo()) {
      stage = Stage::kBell;
      (void)conduit_.amo_fadd(target0, bell_off_, 1);
    }
  } catch (const fabric::PeerFailedError&) {
    if (stage == Stage::kPut) {
      st.put_target = -1;  // declined by the transport: nothing lands
    } else {
      ++ts.lost_signals;  // the slot landed; its fetch-add never executed
    }
    throw;
  } catch (...) {
    // Killed (the fiber unwinds). An accepted put lands regardless, so the
    // marker stays; so does an issued fetch-add, but a bump not yet issued
    // never comes.
    if (stage != Stage::kBell) ++ts.lost_signals;
    throw;
  }
  if (conduit_.native_amo()) {
    // The fetch-add has returned, so the bump has landed at the target. A
    // target parked at a progress point cannot poll — drain it from the
    // event loop (this is the "no progress thread" substitute: the signal
    // completion itself carries the progress obligation).
    eng.schedule_raw(eng.now(), &RpcEngine::parked_drain_event, this,
                     static_cast<std::uint64_t>(target0));
  } else {
    // Emulated AMOs (ARMCI's mutex-hosted get/put Rmw) span several fabric
    // events, so they race with the single-event scheduler pokes the
    // reply/failure paths apply to the same bell cell — a poke landing
    // between the emulation's get and put is silently overwritten, and a
    // lost bump wedges the idle accounting. Ship the doorbell as an 8-byte
    // signal put instead and fold the increment into one scheduler event
    // at delivery, which is DES-atomic against every other bell writer.
    fabric::Domain* d = conduit_.rma_domain();
    const net::PutCompletion pc = d->fabric().submit_reply(
        me, target0, sizeof(std::int64_t), conduit_.sw(), eng.now());
    if (pc.ok) {
      eng.schedule_raw(pc.delivered, &RpcEngine::signal_event, this,
                       static_cast<std::uint64_t>(target0));
    } else {
      ++ts.lost_signals;
    }
  }
}

void RpcEngine::parked_drain_event(void* ctx, std::uint64_t target0,
                                   std::uint64_t) {
  auto* self = static_cast<RpcEngine*>(ctx);
  const int t = static_cast<int>(target0);
  PerPe& ts = self->per_[target0];
  sim::Engine& e = self->conduit_.engine();
  if (ts.parked && !e.pe_failed(t)) {
    ++*ts.c_parked_drains;
    self->drain(t, /*fiber=*/false, e.sim_now());
  }
}

void RpcEngine::signal_event(void* ctx, std::uint64_t target0,
                             std::uint64_t) {
  auto* self = static_cast<RpcEngine*>(ctx);
  sim::Engine& e = self->conduit_.engine();
  if (e.pe_failed(static_cast<int>(target0))) return;
  self->bump_bell(static_cast<int>(target0), e.sim_now());
  parked_drain_event(ctx, target0, 0);
}

// ---------------------------------------------------------------------------
// Target-side draining / execution
// ---------------------------------------------------------------------------

void RpcEngine::drain(int t, bool fiber, sim::Time at) {
  if (am_) return;  // AM transport: the fabric delivers straight to handlers
  PerPe& st = per_[static_cast<std::size_t>(t)];
  if (st.draining || st.stage.empty()) return;
  st.draining = true;
  const int n = conduit_.nranks();
  const std::byte* seg = conduit_.segment(t);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    const std::int64_t bell = read_bell(t);
    if (static_cast<std::uint64_t>(bell) + st.lost_signals <=
        st.handled + st.replies_seen) {
      break;  // every signaled request/reply already processed
    }
    // Ascending candidate sources, looked up afresh at each step so a
    // source that arrives mid-pass is met exactly where a scan of all n
    // rings would meet it.
    for (int s = next_candidate(st, 0); s < n;
         s = next_candidate(st, s + 1)) {
      // A candidate has a row: the sender takes it before setting the bit.
      // Indexed, never held: a handler's clock advance lets a first-contact
      // sender grow st.pairs.
      const auto row = static_cast<std::size_t>(st.senders.find(s));
      bool any = false;
      while (true) {
        const std::uint64_t next = st.pairs[row].consumed + 1;
        const std::uint64_t off = slot_off(row, next);
        rpc_detail::SlotHeader hdr;
        std::memcpy(&hdr, seg + off, kHeaderBytes);
        if (hdr.seq != next) break;
        if (hdr.bytes != 0) {
          std::memcpy(st.stage.data(), seg + off + kHeaderBytes, hdr.bytes);
        }
        st.pairs[row].consumed = next;
        ++st.handled;
        ++*st.c_handled;
        exec_request(t, s, hdr, st.stage.data(), fiber, at);
        any = true;
        progressed = true;
      }
      retire_candidate(t, s);
      if (any) {
        const sim::Time ack_at =
            fiber ? conduit_.engine().now() : std::max(at, st.proc_free);
        send_ack(t, s, st.pairs[row].consumed, ack_at);
      }
    }
  }
  st.draining = false;
}

std::size_t RpcEngine::row_of(int t, int src) {
  PerPe& ts = per_[static_cast<std::size_t>(t)];
  const std::int32_t found = ts.senders.find(src);
  if (found >= 0) return static_cast<std::size_t>(found);
  // Host storage only: the modeled layout is still one row per pair, so
  // taking and clearing a row costs no virtual time.
  const auto r = static_cast<std::size_t>(ts.senders.insert(src));
  ts.pairs.emplace_back();
  const std::size_t row_bytes =
      static_cast<std::size_t>(opts_.slots_per_pair) * opts_.slot_bytes;
  std::memset(conduit_.segment(t) + slot_off(r, 1), 0, row_bytes);
  return r;
}

std::uint64_t RpcEngine::slot_off(std::size_t row, std::uint64_t seq) const {
  const auto k = static_cast<std::uint64_t>(opts_.slots_per_pair);
  return mbox_off_ + (row * k + (seq - 1) % k) * opts_.slot_bytes;
}

int RpcEngine::next_candidate(const PerPe& st, int from) const {
  const int n = conduit_.nranks();
  if (from >= n) return n;
  auto w = static_cast<std::size_t>(from) / 64;
  std::uint64_t bits = st.cand[w] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++w == st.cand.size()) return n;
    bits = st.cand[w];
  }
  return static_cast<int>(w * 64) + std::countr_zero(bits);
}

void RpcEngine::retire_candidate(int t, int s) {
  const PerPe& src = per_[static_cast<std::size_t>(s)];
  PerPe& st = per_[static_cast<std::size_t>(t)];
  const Pair& p = st.pairs[static_cast<std::size_t>(st.senders.find(s))];
  if (p.consumed < p.sent) return;  // landed, unread
  if (src.put_target == t && p.consumed < src.put_seq) return;  // in flight
  st.cand[static_cast<std::size_t>(s) / 64] &=
      ~(std::uint64_t{1} << (s % 64));
}

void RpcEngine::exec_request(int t, int src,
                             const rpc_detail::SlotHeader& hdr,
                             const std::byte* payload, bool fiber,
                             sim::Time at) {
  auto tramp = reinterpret_cast<rpc_detail::Trampoline>(
      static_cast<std::uintptr_t>(hdr.fn));
  const bool ff = (hdr.flags & rpc_detail::kFlagFf) != 0;
  std::byte ret[kMaxRet];
  std::size_t ret_len = 0;
  sim::Time charge = 0;
  PerPe& st = per_[static_cast<std::size_t>(t)];
  if (fiber) {
    // Draining at an explicit progress point: the handler runs on this
    // image's fiber and its CPU time advances the image's clock.
    obs::Span sp(obs::Cat::kRpcExec, hdr.bytes,
                 static_cast<std::uint32_t>(src));
    {
      TargetScope scope(&rt_, t + 1);
      ret_len = tramp(rt_, payload, ret, sizeof(ret));
      charge = scope.charge();
    }
    sim::Engine& eng = conduit_.engine();
    eng.advance(conduit_.sw().handler_cpu + charge);
    if (!ff) send_reply(t, src, hdr.req_id, ret, ret_len, eng.now());
  } else {
    // Parked-target drain from the event loop: serialize handler CPU on the
    // image's own ledger. (The cost hides inside the target's wait stall —
    // the documented approximation of handler-CPU accounting while parked;
    // the ledger still defers the *replies* by the full handler cost.)
    const sim::Time start = std::max(at, st.proc_free);
    {
      TargetScope scope(&rt_, t + 1);
      ret_len = tramp(rt_, payload, ret, sizeof(ret));
      charge = scope.charge();
    }
    const sim::Time done = start + conduit_.sw().handler_cpu + charge;
    st.proc_free = done;
    if (!ff) send_reply(t, src, hdr.req_id, ret, ret_len, done);
  }
}

void RpcEngine::handle_am(const gasnet::Token& tok, const std::byte* payload,
                          std::size_t payload_bytes, std::uint64_t wire_id,
                          std::uint64_t fn) {
  (void)payload_bytes;
  const int t = tok.dst_node;
  const int src = tok.src_node;
  sim::Engine& eng = conduit_.engine();
  if (eng.pe_failed(t)) return;  // a dead CPU runs no handlers
  PerPe& st = per_[static_cast<std::size_t>(t)];
  const bool ff = (wire_id >> 63) != 0;
  const std::uint64_t req_id = wire_id & ~(std::uint64_t{1} << 63);
  auto tramp = reinterpret_cast<rpc_detail::Trampoline>(
      static_cast<std::uintptr_t>(fn));
  std::byte ret[kMaxRet];
  std::size_t ret_len = 0;
  sim::Time charge = 0;
  {
    TargetScope scope(&rt_, t + 1);
    ret_len = tramp(rt_, payload, ret, sizeof(ret));
    charge = scope.charge();
  }
  ++st.handled;
  ++*st.c_handled;
  if (!ff) {
    // The fabric's submit_am already charged sw.handler_cpu on the target's
    // handler unit (tok.when is handler start); user-declared charge delays
    // the reply further.
    send_reply(t, src, req_id, ret, ret_len,
               tok.when + conduit_.sw().handler_cpu + charge);
  }
}

// ---------------------------------------------------------------------------
// Replies & acks (control-channel messages)
// ---------------------------------------------------------------------------

void RpcEngine::send_ack(int t, int src, std::uint64_t consumed,
                         sim::Time at) {
  fabric::Domain* d = conduit_.rma_domain();
  const net::PutCompletion pc = d->fabric().submit_reply(
      t, src, sizeof(std::int64_t), conduit_.sw(), at);
  if (!pc.ok) return;
  const std::uint64_t pair = static_cast<std::uint64_t>(t) << 32 |
                            static_cast<std::uint32_t>(src);
  conduit_.engine().schedule_raw(pc.delivered, &RpcEngine::ack_event, this,
                                 pair, consumed);
}

void RpcEngine::ack_event(void* ctx, std::uint64_t pair, std::uint64_t val) {
  auto* self = static_cast<RpcEngine*>(ctx);
  const auto t = static_cast<int>(pair >> 32);
  const auto src = static_cast<int>(pair & 0xffffffffu);
  Conduit& c = self->conduit_;
  sim::Engine& e = c.engine();
  if (e.pe_failed(src)) return;
  const std::uint64_t cell =
      self->ack_off_ + static_cast<std::uint64_t>(t) * 8;
  // Monotonic max: a retransmitted older ack must not regress the cell.
  std::int64_t cur;
  std::memcpy(&cur, c.segment(src) + cell, sizeof(cur));
  const std::int64_t v = std::max(cur, static_cast<std::int64_t>(val));
  c.poke(src, cell, &v, sizeof(v), e.sim_now());
}

void RpcEngine::bump_bell(int image, sim::Time at) {
  std::int64_t cur;
  std::memcpy(&cur, conduit_.segment(image) + bell_off_, sizeof(cur));
  const std::int64_t v = cur + 1;
  conduit_.poke(image, bell_off_, &v, sizeof(v), at);
}

void RpcEngine::send_reply(int t, int src, std::uint64_t req_id,
                           const std::byte* ret_bytes, std::size_t ret_len,
                           sim::Time at) {
  fabric::Domain* d = conduit_.rma_domain();
  const net::PutCompletion pc = d->fabric().submit_reply(
      t, src, ret_len + kReplyOverhead, conduit_.sw(), at);
  if (!pc.ok) return;  // dead initiator, or retries exhausted: reply lost
  std::uint32_t idx;
  if (free_replies_.empty()) {
    idx = static_cast<std::uint32_t>(replies_.size());
    replies_.emplace_back();
  } else {
    idx = free_replies_.back();
    free_replies_.pop_back();
  }
  Reply& r = replies_[idx];
  r.req_id = req_id;
  r.src = src;
  r.len = static_cast<std::uint32_t>(ret_len);
  if (ret_len != 0) std::memcpy(r.ret, ret_bytes, ret_len);
  conduit_.engine().schedule_raw(pc.delivered, &RpcEngine::reply_event, this,
                                 idx);
}

void RpcEngine::reply_event(void* ctx, std::uint64_t idx, std::uint64_t) {
  auto* self = static_cast<RpcEngine*>(ctx);
  // Copy the record out before recycling its slot.
  const Reply r = self->replies_[idx];
  self->free_replies_.push_back(static_cast<std::uint32_t>(idx));
  sim::Engine& e = self->conduit_.engine();
  if (e.pe_failed(r.src)) return;
  PerPe& st = self->per_[static_cast<std::size_t>(r.src)];
  ++st.replies_seen;
  ++*st.c_replies;
  auto it = st.outstanding.find(r.req_id);
  if (it != st.outstanding.end()) {
    rpc_detail::Outstanding rec = std::move(it->second);
    st.outstanding.erase(it);
    if (!rec.op->ready) {
      if (rec.set_value) rec.set_value(r.ret, r.len);
      rec.remote->fulfill(kStatOk);
      rec.op->fulfill(kStatOk);
    }
  }
  // Wake the initiator if it is parked on the doorbell.
  self->bump_bell(r.src, e.sim_now());
}

// ---------------------------------------------------------------------------
// Waiting
// ---------------------------------------------------------------------------

void RpcEngine::wait(rpc_detail::FutureCore& core) {
  const int me = self();
  assert(core.owner == me && "a future must be waited on its owning image");
  PerPe& st = per_[static_cast<std::size_t>(me)];
  sim::Engine& eng = conduit_.engine();
  obs::Span sp(obs::Cat::kRpcWait);
  while (true) {
    drain(me, /*fiber=*/true, 0);
    run_ready(me);
    if (core.ready) return;
    if (eng.declared_count() > 0) {
      sweep_failures(me);
      run_ready(me);
      if (core.ready) return;
    }
    const std::int64_t seen = read_bell(me);
    if (static_cast<std::uint64_t>(seen) > st.handled + st.replies_seen) {
      continue;  // a signal landed between the drain and the bell read
    }
    // Park on the doorbell: replies and new requests ring it, and a peer's
    // declaration ends the wait (the failure hook's Domain::end_wait).
    st.parked = true;
    rt_.wait_fault(bell_off_, Cmp::kGe, seen + 1);
    st.parked = false;
  }
}

void rpc_wait_core(Runtime& rt, rpc_detail::FutureCore& core) {
  RpcEngine* eng = rt.rpc_engine();
  if (eng == nullptr) {
    throw std::logic_error("caf::future::wait(): RPC engine not enabled");
  }
  eng->wait(core);
}

}  // namespace caf
