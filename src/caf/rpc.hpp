// caf::rpc — asynchronous remote execution over the conduit abstraction
// (DESIGN.md §4f).
//
//   caf::rpc(rt, image, fn, args...)      -> future<R>   (round trip)
//   caf::rpc_ff(rt, image, fn, args...)                   (fire and forget)
//   caf::rpc_completions(rt, image, ...)  -> Completions<R>
//
// `fn` and every argument must be trivially copyable (captureless lambdas
// and lambdas with trivially copyable captures qualify); they are memcpy-
// serialized into a bounded request blob. `fn` runs AT THE TARGET image —
// inside it, rpc_target_runtime()/rpc_target_image() identify the executing
// image, sym_view<T> resolves symmetric-heap offsets to target-local
// pointers, and rpc_charge(ns) bills simulated compute to the handler.
// Handlers must be communication-free (local compute + local memory only):
// the mailbox transport may execute them from scheduler context, where no
// fiber is available to block on the NIC.
//
// Two transports sit behind one interface (RpcOptions::transport):
//
//   * kMailbox — the OpenSHMEM emulation: symmetric per-pair slot rings
//     written with put, published with the put+quiet+amo signaling idiom
//     (the doorbell fetch-add is the signal), drained by shmem_test-style
//     polling woven into the runtime's progress points. No progress thread:
//     a target blocked at a known progress point is marked "parked" and the
//     sender's doorbell completion drains it from the event loop.
//   * kAm — the GASNet path: one registered medium-AM handler carries the
//     request; the fabric's submit_am model prices the handler CPU and
//     serializes it on the target (implicit progress even mid-compute).
//
// Replies and mailbox acks ride Fabric::submit_reply (control-channel
// timing, fault-injected like any message). A target's death surfaces as
// kStatFailedImage through the future, discovered by the initiator's
// failure sweep against the engine's declared membership.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "caf/future.hpp"
#include "caf/index_set.hpp"
#include "caf/runtime.hpp"

namespace gasnet {
struct Token;
}

namespace caf {

// ---------------------------------------------------------------------------
// Target-side context (valid only while an RPC handler runs)
// ---------------------------------------------------------------------------

/// The runtime executing the current RPC handler. Null outside a handler.
Runtime* rpc_target_runtime();
/// 1-based image the current RPC handler runs on (0 outside a handler).
int rpc_target_image();
/// Bills `ns` of simulated compute to the current handler invocation: the
/// target's handler unit is occupied that much longer and the reply leaves
/// later. The stand-in for real CPU work inside a handler body.
void rpc_charge(sim::Time ns);

/// A typed window over `count` Ts at symmetric offset `off`, resolvable on
/// whichever image executes the handler. Trivially copyable, so it passes
/// through the serialization shim; local() is only meaningful inside a
/// handler (it resolves against the *target's* segment).
template <typename T>
struct sym_view {
  std::uint64_t off = 0;
  std::uint32_t count = 0;

  T* local() const {
    Runtime* rt = rpc_target_runtime();
    assert(rt != nullptr && "sym_view::local() outside an RPC handler");
    return reinterpret_cast<T*>(rt->image_addr(rpc_target_image(), off));
  }
  T& operator[](std::size_t i) const { return local()[i]; }
};

namespace rpc_detail {

/// Per-slot wire header of the mailbox transport.
struct SlotHeader {
  std::uint64_t seq = 0;  ///< 1-based per-(src,dst) sequence; 0 = empty slot
  std::uint64_t fn = 0;   ///< trampoline id
  std::uint64_t req_id = 0;
  std::uint32_t bytes = 0;  ///< payload bytes following the header
  std::uint32_t flags = 0;
};
static_assert(sizeof(SlotHeader) == 32);
inline constexpr std::uint32_t kFlagFf = 1u;  ///< fire-and-forget request

/// Type-erased handler entry point. Returns the bytes written to `ret`.
using Trampoline = std::size_t (*)(Runtime&, const std::byte* blob,
                                   std::byte* ret, std::size_t ret_cap);

void add_charge(sim::Time ns);

/// One in-flight round-trip request on the initiator.
struct Outstanding {
  std::shared_ptr<FutureCore> op;      ///< operation-completion core
  std::shared_ptr<FutureCore> remote;  ///< remote-completion core
  /// Typed value installer, built by the rpc<> template (null for void).
  std::function<void(const std::byte*, std::size_t)> set_value;
  int target0 = -1;
};

// ---- serialization shim (trivially-copyable memcpy packing) ----

template <typename T>
void pack_one(std::vector<std::byte>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>,
                "caf::rpc arguments must be trivially copyable");
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

struct BlobReader {
  const std::byte* p;
  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }
};

/// The instantiation whose address identifies (F, Args...) on the wire.
/// Identification by function pointer is the single-process stand-in for
/// the handler-index registration a distributed build would use.
template <typename F, typename... Args>
std::size_t invoke_trampoline(Runtime&, const std::byte* blob, std::byte* ret,
                              std::size_t ret_cap) {
  BlobReader r{blob};
  F f = r.template take<F>();
  // Braced init evaluates left to right, matching the pack order.
  std::tuple<Args...> args{r.template take<Args>()...};
  using R = std::invoke_result_t<F, Args...>;
  if constexpr (std::is_void_v<R>) {
    (void)ret;
    (void)ret_cap;
    std::apply(std::move(f), std::move(args));
    return 0;
  } else {
    static_assert(std::is_trivially_copyable_v<R>,
                  "caf::rpc return type must be trivially copyable");
    R v = std::apply(std::move(f), std::move(args));
    assert(sizeof(R) <= ret_cap);
    std::memcpy(ret, &v, sizeof(R));
    return sizeof(R);
  }
}

template <typename F, typename... Args>
std::uint64_t fn_id() {
  Trampoline t = &invoke_trampoline<F, Args...>;
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(t));
}

}  // namespace rpc_detail

// ---------------------------------------------------------------------------
// RpcEngine — per-Runtime transport + completion machinery
// ---------------------------------------------------------------------------

class RpcEngine {
 public:
  static constexpr std::size_t kHeaderBytes = sizeof(rpc_detail::SlotHeader);
  /// Reply wire framing (req_id + length) added to the returned bytes.
  static constexpr std::size_t kReplyOverhead = 16;
  /// Largest trivially-copyable RPC return value.
  static constexpr std::size_t kMaxRet = 64;

  RpcEngine(Runtime& rt, const RpcOptions& opts);
  ~RpcEngine();

  /// Collective: allocates the symmetric mailbox/doorbell/ack cells (same
  /// allocation sequence on every image) and registers the AM handler on
  /// the kAm transport. Called from Runtime::init().
  void init_symmetric();

  bool am_transport() const { return am_; }
  /// Largest request blob (serialized fn + args) one RPC can carry.
  std::size_t payload_capacity() const {
    return opts_.slot_bytes - kHeaderBytes;
  }

  /// Fiber-context progress point: drain this image's request mailbox and
  /// run ready future continuations. Cheap no-op (one local doorbell read)
  /// when idle.
  void progress();

  /// Marks `image` (0-based) parked at a blocking runtime progress point;
  /// while parked, a sender's doorbell completion drains the mailbox from
  /// scheduler context so requests don't wait out the block.
  void set_parked(int image, bool on);
  bool parked(int image) const {
    return per_[static_cast<std::size_t>(image)].parked;
  }

  /// Fails every outstanding request of `image` whose target is declared
  /// failed (kStatFailedImage through the future). Returns how many.
  int sweep_failures(int image);

  /// Issues one request. `rec` carries the completion cores (empty for
  /// fire-and-forget). A known-dead target fails the cores immediately
  /// (ff requests are silently dropped).
  void submit(int target0, std::uint64_t fn, const std::byte* blob,
              std::size_t bytes, rpc_detail::Outstanding rec, bool ff);

  /// Binds a fresh future core to the calling image: owner rank, runtime
  /// back pointer, continuation sink, and the operation's target rank.
  void bind_local(rpc_detail::FutureCore& core, int target0);

  Runtime& runtime() { return rt_; }

  /// Blocks the calling fiber until `core` completes (see rpc_wait_core).
  void wait(rpc_detail::FutureCore& core);

  /// Symmetric offset and size of the mailbox ring area (for tests).
  std::uint64_t ring_offset() const { return mbox_off_; }
  std::size_t ring_bytes() const;

 private:
  /// Sequence counters of one (source, target) pair, kept at the target.
  struct Pair {
    std::uint64_t sent = 0;      ///< requests the source has issued
    std::uint64_t consumed = 0;  ///< requests the target has drained
  };

  struct PerPe {
    /// Sources that have sent here, in first-contact order: a source's
    /// position is the row of this image's ring area its slots live in,
    /// and its index into `pairs` (DESIGN.md §4f).
    IndexSet senders;
    std::vector<Pair> pairs;  ///< by row; grows on first contact
    /// Candidate sources of this image's mailbox, one bit per source: a
    /// superset of the sources whose next slot is visible or in flight
    /// here. drain() visits only these (DESIGN.md §4f).
    std::vector<std::uint64_t> cand;
    /// The slot put this image may have in flight: set before the put is
    /// issued, inert once `put_target` has consumed `put_seq`.
    int put_target = -1;
    std::uint64_t put_seq = 0;
    std::vector<std::byte> stage;  ///< slot_bytes staging for send and drain
    std::uint64_t handled = 0;            ///< total requests drained
    std::uint64_t replies_seen = 0;       ///< total replies processed
    /// Doorbell bumps that will never arrive for slots that did land here:
    /// the sender was killed, or its fetch-add exhausted, between its put
    /// and its bump. Counted with the bell so such a slot cannot pass for
    /// the signal of a later one.
    std::uint64_t lost_signals = 0;
    std::uint64_t next_req = 0;
    bool parked = false;
    bool draining = false;  ///< re-entrancy guard for drain passes
    bool in_ready = false;  ///< re-entrancy guard for continuation runs
    std::unordered_map<std::uint64_t, rpc_detail::Outstanding> outstanding;
    std::vector<std::function<void()>> ready;  ///< fulfilled continuations
    sim::Time proc_free = 0;  ///< scheduler-context handler serialization
    // Cached obs counters (stable registry handles).
    std::uint64_t* c_sent = nullptr;
    std::uint64_t* c_ff = nullptr;
    std::uint64_t* c_handled = nullptr;
    std::uint64_t* c_replies = nullptr;
    std::uint64_t* c_failed = nullptr;
    std::uint64_t* c_parked_drains = nullptr;
  };

  /// One reply in flight between send_reply and its delivery event.
  struct Reply {
    std::uint64_t req_id = 0;
    int src = 0;
    std::uint32_t len = 0;
    std::byte ret[kMaxRet];
  };

  int self() const;
  /// Image `image`'s doorbell: the count of requests and replies signalled
  /// to it. Only signals write the cell; a failure declaration ends a wait
  /// on it without touching it.
  std::int64_t read_bell(int image);
  void fail_outstanding(PerPe& st, rpc_detail::Outstanding rec);
  void handle_am(const gasnet::Token& tok, const std::byte* payload,
                 std::size_t payload_bytes, std::uint64_t wire_id,
                 std::uint64_t fn);

  // Mailbox transport.
  void mailbox_send(int me, int target0, const rpc_detail::SlotHeader& hdr,
                    const std::byte* blob);
  /// Drains image `t`'s mailbox. `fiber` selects execution context: on the
  /// owning fiber the handler advances the fiber clock; from the scheduler
  /// it serializes on the image's proc_free ledger starting at `at`.
  void drain(int t, bool fiber, sim::Time at);
  /// `src`'s row in image `t`'s ring area. The first request takes the
  /// next row and clears its slots.
  std::size_t row_of(int t, int src);
  /// Offset of the slot that sequence `seq` of ring row `row` lands in.
  std::uint64_t slot_off(std::size_t row, std::uint64_t seq) const;
  /// First candidate source >= `from` in `st`'s set, or nranks if none.
  int next_candidate(const PerPe& st, int from) const;
  /// Drops `s` from image `t`'s candidate set if every slot `s` has put or
  /// is putting to `t` has been consumed.
  void retire_candidate(int t, int s);
  /// Executes one request at image `t` and emits the reply timing. `at`
  /// seeds the proc_free ledger on the scheduler-context path; the fiber
  /// path uses the image's own clock instead.
  void exec_request(int t, int src, const rpc_detail::SlotHeader& hdr,
                    const std::byte* payload, bool fiber, sim::Time at);
  void send_ack(int t, int src, std::uint64_t consumed, sim::Time at);
  /// Times and schedules the reply delivery for request `req_id` back to
  /// `src`; fulfills the initiator's cores at the delivery event.
  void send_reply(int t, int src, std::uint64_t req_id,
                  const std::byte* ret_bytes, std::size_t ret_len,
                  sim::Time at);
  /// Rings `image`'s doorbell from the scheduler at `at`: one more signal,
  /// which wakes the image if it is parked on the bell.
  void bump_bell(int image, sim::Time at);
  void run_ready(int image);

  // schedule_raw entry points (ctx = this).
  static void parked_drain_event(void* ctx, std::uint64_t target0,
                                 std::uint64_t);
  static void signal_event(void* ctx, std::uint64_t target0, std::uint64_t);
  static void ack_event(void* ctx, std::uint64_t pair, std::uint64_t val);
  static void reply_event(void* ctx, std::uint64_t idx, std::uint64_t);

  friend void rpc_wait_core(Runtime& rt, rpc_detail::FutureCore& core);

  Runtime& rt_;
  Conduit& conduit_;
  RpcOptions opts_;
  bool am_ = false;
  int am_handler_ = -1;
  /// n * slots_per_pair * slot_bytes ring area, one row per sender that
  /// has made contact.
  std::uint64_t mbox_off_ = 0;
  std::uint64_t bell_off_ = 0;  ///< one int64 doorbell
  std::uint64_t ack_off_ = 0;   ///< n int64 cumulative-consumed cells
  std::vector<PerPe> per_;
  std::vector<Reply> replies_;  ///< pooled reply records, indexed by event
  std::vector<std::uint32_t> free_replies_;
};

// ---------------------------------------------------------------------------
// Public call templates
// ---------------------------------------------------------------------------

namespace rpc_detail {

template <typename F, typename... Args>
std::vector<std::byte> pack_request(const F& f, const Args&... args) {
  static_assert(std::is_trivially_copyable_v<F>,
                "caf::rpc callable must be trivially copyable");
  std::vector<std::byte> blob;
  blob.reserve(sizeof(F) + (0 + ... + sizeof(Args)));
  pack_one(blob, f);
  (pack_one(blob, args), ...);
  return blob;
}

}  // namespace rpc_detail

/// Full completion triple: source (request injected; buffers reusable),
/// remote (handler executed at the target), operation (result available
/// here). source is ready on return — injection is synchronous in this
/// runtime (the blob is copied before send returns).
template <typename F, typename... Args>
auto rpc_completions(Runtime& rt, int image, F f, Args... args)
    -> Completions<std::invoke_result_t<F, Args...>> {
  using R = std::invoke_result_t<F, Args...>;
  RpcEngine* eng = rt.rpc_engine();
  if (eng == nullptr) {
    throw std::logic_error("caf::rpc: Options::rpc.enabled is false");
  }
  if constexpr (!std::is_void_v<R>) {
    static_assert(sizeof(R) <= RpcEngine::kMaxRet,
                  "caf::rpc return value too large");
  }
  auto op = std::make_shared<rpc_detail::FutureState<R>>();
  auto remote = std::make_shared<rpc_detail::FutureState<void>>();
  eng->bind_local(*op, image - 1);
  eng->bind_local(*remote, image - 1);

  rpc_detail::Outstanding rec;
  rec.op = op;
  rec.remote = remote;
  rec.target0 = image - 1;
  if constexpr (!std::is_void_v<R>) {
    rec.set_value = [op](const std::byte* p, std::size_t n) {
      R v{};
      std::memcpy(&v, p, n < sizeof(R) ? n : sizeof(R));
      op->set(std::move(v));
    };
  }

  const std::vector<std::byte> blob = rpc_detail::pack_request(f, args...);
  eng->submit(image - 1, rpc_detail::fn_id<F, Args...>(), blob.data(),
              blob.size(), std::move(rec), /*ff=*/false);

  Completions<R> c;
  c.source = make_ready_future();
  c.remote = future<void>(std::move(remote));
  c.operation = future<R>(std::move(op));
  return c;
}

/// Runs `f(args...)` on `image` (1-based); the returned future completes on
/// this image when the reply arrives.
template <typename F, typename... Args>
auto rpc(Runtime& rt, int image, F f, Args... args)
    -> future<std::invoke_result_t<F, Args...>> {
  return rpc_completions(rt, image, std::move(f), std::move(args)...)
      .operation;
}

/// Fire-and-forget: no reply, no future; delivery failures are swallowed
/// (use rpc() when the caller needs the failure surfaced).
template <typename F, typename... Args>
void rpc_ff(Runtime& rt, int image, F f, Args... args) {
  static_assert(
      std::is_void_v<std::invoke_result_t<F, Args...>>,
      "caf::rpc_ff requires a void handler (the result has nowhere to go)");
  RpcEngine* eng = rt.rpc_engine();
  if (eng == nullptr) {
    throw std::logic_error("caf::rpc_ff: Options::rpc.enabled is false");
  }
  const std::vector<std::byte> blob = rpc_detail::pack_request(f, args...);
  eng->submit(image - 1, rpc_detail::fn_id<F, Args...>(), blob.data(),
              blob.size(), rpc_detail::Outstanding{}, /*ff=*/true);
}

}  // namespace caf
