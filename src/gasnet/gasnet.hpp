// gasnet::World — a GASNet-core-like conduit.
//
// GASNet is the baseline communication layer UHCAF used before this paper's
// OpenSHMEM port (Table I: UHCAF runs over GASNet or ARMCI), and the
// comparator in Figures 2-3 and 6-10. The surface implemented here follows
// the GASNet core + extended API style:
//
//   * gasnet_put / put_bulk   — blocking until *remote* completion;
//   * put_nbi                 — non-blocking implicit; source reusable on
//                               return; completed by wait_syncnbi_puts();
//   * gasnet_get              — blocking read;
//   * active messages         — short/medium requests dispatched to a
//                               registered handler on the target "CPU", with
//                               an optional 64-bit reply.
//
// Crucially for the paper's analysis, GASNet has *no remote atomics*: the
// CAF runtime must emulate them with AM round-trips that serialize on the
// target CPU (see Fabric::submit_am). This is what makes locks over GASNet
// slower than over SHMEM in Figure 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fabric/domain.hpp"
#include "net/profiles.hpp"

namespace gasnet {

class World;

/// Handler context: identifies the requesting node and carries the virtual
/// time at which the handler runs (needed to timestamp memory mutations).
struct Token {
  World& world;
  int src_node;  ///< requester
  int dst_node;  ///< node the handler is executing on
  sim::Time when;
};

/// An AM handler receives the token, an optional medium payload, and two
/// 64-bit arguments; its return value is delivered to a requester waiting on
/// am_request_reply (ignored for plain am_request).
using Handler = std::function<std::uint64_t(
    const Token&, std::span<const std::byte> payload, std::uint64_t arg0,
    std::uint64_t arg1)>;

class World {
 public:
  World(sim::Engine& engine, net::Fabric& fabric, net::SwProfile sw,
        std::size_t seg_bytes);
  ~World();

  void launch(std::function<void()> node_main);

  int mynode() const;
  int nodes() const { return domain_->npes(); }
  sim::Engine& engine() { return engine_; }
  fabric::Domain& domain() { return *domain_; }

  /// Attached segment base for `node` (GASNet segment-everything style:
  /// offsets are symmetric across nodes).
  std::byte* seg(int node) { return domain_->segment(node); }
  std::size_t seg_bytes() const { return domain_->segment_bytes(); }

  // ---- extended API: one-sided memory ----
  /// Blocking put: returns only when the data is in remote memory.
  void put(int node, std::uint64_t dst_off, const void* src, std::size_t n);
  /// Non-blocking implicit put: local completion only.
  void put_nbi(int node, std::uint64_t dst_off, const void* src,
               std::size_t n);
  /// Access-region write combining: many small updates shipped as ONE
  /// pipelined message (the GASNet VIS / access-region idiom), scattered at
  /// the target per `recs`. Completes with wait_syncnbi_puts().
  void put_scatter_nbi(int node, const fabric::ScatterRec* recs,
                       std::size_t nrecs, const void* payload,
                       std::size_t payload_bytes);
  /// Blocking get.
  void get(void* dst, int node, std::uint64_t src_off, std::size_t n);
  /// Completes all outstanding nbi puts from this node.
  void wait_syncnbi_puts();

  // ---- core API: active messages ----
  /// Registers `fn` and returns its handler index.
  int register_handler(Handler fn);
  /// Fire-and-forget AM request (short or medium, depending on payload).
  void am_request(int node, int handler, std::uint64_t arg0,
                  std::uint64_t arg1, const void* payload = nullptr,
                  std::size_t payload_bytes = 0) {
    send_am(false, node, handler, arg0, arg1, payload, payload_bytes);
  }
  /// AM request that blocks for the handler's 64-bit reply. This is the
  /// primitive CAF-over-GASNet uses to emulate remote atomics.
  std::uint64_t am_request_reply(int node, int handler, std::uint64_t arg0,
                                 std::uint64_t arg1,
                                 const void* payload = nullptr,
                                 std::size_t payload_bytes = 0) {
    return send_am(true, node, handler, arg0, arg1, payload, payload_bytes);
  }

  /// Barrier (gasnet_barrier_notify/wait rolled into one): dissemination
  /// whose round flags travel as AMs.
  void barrier();

  /// Blocks the calling fiber until the int64 at `off` in the local segment
  /// satisfies `cmp value` (used by layered runtimes to spin on AM-written
  /// flags). Equivalent to GASNET_BLOCKUNTIL; `epoch` as in
  /// fabric::Domain::wait_until.
  void block_until(std::uint64_t off, fabric::Cmp cmp, std::int64_t value,
                   std::uint64_t epoch = fabric::kNoEpoch) {
    domain_->wait_until(mynode(), off, cmp, value, "gasnet_block_until",
                        epoch);
  }

 private:
  // One AM in flight, run like fabric::Domain's round trips (DESIGN.md §6):
  // exec runs the handler at the target even if the requester has been
  // killed; completion (replies only) then skips the copy to the requester.
  struct AmRecord {
    AmRecord* next{};         ///< pool link
    sim::Fiber* fiber{};      ///< requester awaiting the reply, or nullptr
    std::uint64_t* result{};  ///< requester's reply slot
    std::byte* buf{};         ///< pooled payload copy
    std::size_t payload_bytes{};
    std::uint64_t arg0{};
    std::uint64_t arg1{};
    std::uint64_t reply{};
    sim::Time exec{};         ///< handler start at the target
    sim::Time complete{};     ///< reply arrival at the requester
    int handler{};
    int src{};
    int dst{};
    std::uint8_t buf_cls{};
  };

  std::uint64_t send_am(bool reply, int node, int handler, std::uint64_t arg0,
                        std::uint64_t arg1, const void* payload,
                        std::size_t payload_bytes);
  /// Injects an AM from node `me` at its clock `now` and queues its
  /// handler run (and, when `fiber` awaits the reply in `*result`, the
  /// reply), but neither advances the clock nor throws: Domain::put_at's
  /// contract, so a request (`fiber` nullptr) can be sent from the
  /// scheduler. `local_complete` is the end of the request's injection; an
  /// AM the transport gave up on comes back with `ok` false, its attempts,
  /// and the give-up time as `delivered`.
  net::PutCompletion am_at(int me, sim::Time now, int node, int handler,
                           std::uint64_t arg0, std::uint64_t arg1,
                           const void* payload, std::size_t payload_bytes,
                           sim::Fiber* fiber = nullptr,
                           std::uint64_t* result = nullptr);
  /// The barrier's FlagSend: the round flag travels as an AM whose handler
  /// pokes it into the target's segment.
  static net::PutCompletion barrier_flag(void* world, int me, sim::Time now,
                                         int peer, std::uint64_t off,
                                         std::int64_t gen, std::uint32_t*);
  static void am_exec(void* ctx, std::uint64_t rec, std::uint64_t);
  static void am_complete(void* ctx, std::uint64_t rec, std::uint64_t);

  sim::Engine& engine_;
  std::unique_ptr<fabric::Domain> domain_;
  std::vector<Handler> handlers_;
  fabric::SlabPool<AmRecord> am_pool_;
  fabric::BufPool am_bufs_;
  std::vector<std::int64_t> barrier_gen_;
  std::uint64_t barrier_flags_off_ = 0;  // the segment's reserved prefix
  int barrier_handler_ = -1;

 public:
  /// Bytes of segment reserved for the conduit's own barrier flags;
  /// layered code must allocate at or beyond this offset.
  static constexpr std::size_t reserved_bytes() {
    return fabric::Domain::kMaxRounds * sizeof(std::int64_t);
  }
};

}  // namespace gasnet
