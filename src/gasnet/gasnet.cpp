#include "gasnet/gasnet.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace gasnet {

World::World(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
             std::size_t seg_bytes)
    : engine_(engine) {
  if (seg_bytes <= reserved_bytes()) {
    throw std::invalid_argument("gasnet::World: segment too small");
  }
  domain_ = std::make_unique<fabric::Domain>(engine, fabric, std::move(sw),
                                             seg_bytes);
  barrier_gen_.assign(domain_->npes(), 0);
  barrier_flags_off_ = 0;
  // GASNet barriers are AM-based in every conduit: the notify message runs
  // a handler on the target CPU that bumps the round flag.
  barrier_handler_ = register_handler(
      [this](const Token& tok, std::span<const std::byte>, std::uint64_t off,
             std::uint64_t gen) -> std::uint64_t {
        const auto g = static_cast<std::int64_t>(gen);
        domain_->poke(tok.dst_node, off, &g, sizeof g, tok.when);
        return 0;
      });
}

World::~World() = default;

void World::launch(std::function<void()> node_main) {
  for (int node = 0; node < nodes(); ++node) {
    engine_.spawn(node, node_main);
  }
}

int World::mynode() const {
  sim::Fiber* f = engine_.current_fiber();
  assert(f != nullptr && "gasnet calls require a node fiber context");
  return f->pe();
}

void World::put(int node, std::uint64_t dst_off, const void* src,
                std::size_t n) {
  // gasnet_put blocks until remote completion.
  const auto c = domain_->put(node, dst_off, src, n, /*pipelined=*/false);
  engine_.advance_to(c.delivered);
}

void World::put_nbi(int node, std::uint64_t dst_off, const void* src,
                    std::size_t n) {
  domain_->put(node, dst_off, src, n, /*pipelined=*/true);
}

void World::put_scatter_nbi(int node, const fabric::ScatterRec* recs,
                            std::size_t nrecs, const void* payload,
                            std::size_t payload_bytes) {
  domain_->put_scatter(node, recs, nrecs, payload, payload_bytes,
                       /*pipelined=*/true);
}

void World::get(void* dst, int node, std::uint64_t src_off, std::size_t n) {
  domain_->get(dst, node, src_off, n);
}

void World::wait_syncnbi_puts() { domain_->quiet(); }

int World::register_handler(Handler fn) {
  handlers_.push_back(std::move(fn));
  return static_cast<int>(handlers_.size()) - 1;
}

void World::am_exec(void* ctx, std::uint64_t rec, std::uint64_t) {
  auto* w = static_cast<World*>(ctx);
  auto* r = reinterpret_cast<AmRecord*>(rec);
  Token tok{*w, r->src, r->dst, r->exec};
  r->reply = w->handlers_[r->handler](
      tok, std::span<const std::byte>(r->buf, r->payload_bytes), r->arg0,
      r->arg1);
  w->am_bufs_.release(r->buf, r->buf_cls);
  if (r->fiber == nullptr) w->am_pool_.release(r);
}

void World::am_complete(void* ctx, std::uint64_t rec, std::uint64_t) {
  auto* w = static_cast<World*>(ctx);
  auto* r = reinterpret_cast<AmRecord*>(rec);
  sim::Fiber& f = *r->fiber;
  const sim::Time complete = r->complete;
  if (!f.kill_pending()) *r->result = r->reply;
  w->am_pool_.release(r);
  w->engine_.resume(f, complete);
}

net::PutCompletion World::am_at(int me, sim::Time now, int node, int handler,
                                std::uint64_t arg0, std::uint64_t arg1,
                                const void* payload, std::size_t payload_bytes,
                                sim::Fiber* fiber, std::uint64_t* result) {
  assert(handler >= 0 && handler < static_cast<int>(handlers_.size()));
  const auto rt = domain_->fabric().submit_am(me, node, payload_bytes,
                                              domain_->sw(), now);
  // Request injection costs the sender one put overhead.
  const sim::Time local = now + domain_->sw().put_overhead;
  if (!rt.ok) return {local, rt.complete, false, rt.attempts};
  AmRecord* r = am_pool_.acquire();
  *r = {.fiber = fiber, .result = result, .payload_bytes = payload_bytes,
        .arg0 = arg0, .arg1 = arg1, .exec = rt.target_read,
        .complete = rt.complete, .handler = handler, .src = me, .dst = node};
  r->buf = am_bufs_.acquire(payload_bytes, &r->buf_cls);
  if (payload_bytes > 0) std::memcpy(r->buf, payload, payload_bytes);
  const auto rec = reinterpret_cast<std::uint64_t>(r);
  engine_.schedule_raw(rt.target_read, &am_exec, this, rec);
  if (fiber != nullptr) {
    engine_.schedule_raw(rt.complete, &am_complete, this, rec);
  }
  return {local, rt.target_read, true, rt.attempts};
}

std::uint64_t World::send_am(bool reply, int node, int handler,
                             std::uint64_t arg0, std::uint64_t arg1,
                             const void* payload, std::size_t payload_bytes) {
  const int me = mynode();
  std::uint64_t result = 0;
  sim::Fiber* const waiter = reply ? engine_.current_fiber() : nullptr;
  const net::PutCompletion c = am_at(me, engine_.now(), node, handler, arg0,
                                     arg1, payload, payload_bytes, waiter,
                                     &result);
  if (!c.ok) {
    // A request gives up after its injection, a reply wait at the give-up.
    engine_.advance_to(reply ? c.delivered : c.local_complete);
    throw fabric::PeerFailedError(reply ? "am_reply" : "am", me, node,
                                  c.attempts, c.delivered);
  }
  if (!reply) {
    engine_.advance_to(c.local_complete);
    return 0;
  }
  waiter->set_block_op("gasnet_am_reply", node);
  engine_.block();
  return result;
}

net::PutCompletion World::barrier_flag(void* world, int me, sim::Time now,
                                       int peer, std::uint64_t off,
                                       std::int64_t gen, std::uint32_t*) {
  auto* w = static_cast<World*>(world);
  return w->am_at(me, now, peer, w->barrier_handler_, off,
                  static_cast<std::uint64_t>(gen), nullptr, 0);
}

void World::barrier() {
  const int me = mynode();
  const int n = nodes();
  if (n == 1) return;
  domain_->barrier(me, {0, 0, n}, barrier_flags_off_, ++barrier_gen_[me],
                   {&World::barrier_flag, this, "am"}, "gasnet_block_until");
}

}  // namespace gasnet
