#include "caf/gasnet_conduit.hpp"

#include <cstring>
#include <new>
#include <stdexcept>

namespace caf {

namespace {
// User allocations start past the conduit's own barrier flags, aligned.
constexpr std::uint64_t user_base() {
  return (gasnet::World::reserved_bytes() + 15) & ~std::uint64_t{15};
}
}  // namespace

GasnetConduit::GasnetConduit(gasnet::World& world)
    : world_(world),
      seg_bytes_(world.seg_bytes()),
      allocator_(user_base(), world.seg_bytes() - user_base()) {
  alloc_cursor_.assign(world_.nodes(), 0);

  // The AMO-emulation handler: runs on the target CPU, performs the RMW on
  // the target's segment at the handler's virtual time, replies with the
  // fetched value. poke() wakes a waiter on the updated word.
  amo_handler_ = world_.register_handler(
      [this](const gasnet::Token& tok, std::span<const std::byte> payload,
             std::uint64_t off, std::uint64_t packed_op) -> std::uint64_t {
        const auto op = static_cast<fabric::AmoOp>(packed_op);
        // payload = [operand, cond] as int64s; target = token destination,
        // which is the node the handler runs on. We recover it from the
        // payload's trailing rank field.
        std::uint64_t operand = 0, cond = 0;
        std::int64_t target = 0;
        std::memcpy(&operand, payload.data(), 8);
        std::memcpy(&cond, payload.data() + 8, 8);
        std::memcpy(&target, payload.data() + 16, 8);
        std::uint64_t old = 0;
        std::memcpy(&old, world_.seg(static_cast<int>(target)) + off, 8);
        if (const auto neu = fabric::amo_apply(op, old, operand, cond)) {
          world_.domain().poke(static_cast<int>(target), off, &*neu, 8,
                               tok.when);
        }
        return old;
      });
}

std::int64_t GasnetConduit::do_amo(fabric::AmoOp op, int rank,
                                   std::uint64_t off, std::int64_t operand,
                                   std::int64_t cond) {
  std::int64_t payload[3] = {operand, cond, rank};
  return static_cast<std::int64_t>(world_.am_request_reply(
      rank, amo_handler_, off, static_cast<std::uint64_t>(op), payload,
      sizeof payload));
}

std::uint64_t GasnetConduit::allocate(std::size_t bytes) {
  const int me = world_.mynode();
  const std::size_t cursor = alloc_cursor_[me];
  if (cursor == alloc_log_.size()) {
    auto got = allocator_.allocate(bytes);
    // Failures are logged too (result = kAllocFailed) so replaying nodes
    // observe the same failure at the same op index; later, smaller
    // allocations still succeed.
    alloc_log_.push_back({false, bytes, got ? *got : kAllocFailed});
  }
  alloc_cursor_[me] = cursor + 1;
  const AllocOp op = alloc_log_[cursor];  // copy: log grows during barrier
  if (op.is_free || op.arg != bytes) {
    throw std::logic_error("GasnetConduit::allocate: collective mismatch");
  }
  if (op.result == kAllocFailed) {
    throw shmem::HeapExhaustedError("GasnetConduit::allocate", bytes,
                                    allocator_.bytes_in_use(),
                                    allocator_.capacity());
  }
  world_.barrier();
  return op.result;
}

void GasnetConduit::deallocate(std::uint64_t offset) {
  const int me = world_.mynode();
  const std::size_t cursor = alloc_cursor_[me]++;
  if (cursor == alloc_log_.size()) {
    allocator_.release(offset);
    alloc_log_.push_back({true, offset, 0});
  }
  const AllocOp op = alloc_log_[cursor];
  if (!op.is_free || op.arg != offset) {
    throw std::logic_error("GasnetConduit::deallocate: collective mismatch");
  }
  world_.barrier();
}

void GasnetConduit::do_iput(int rank, std::uint64_t dst_off,
                         std::ptrdiff_t dst_stride, const void* src,
                         std::ptrdiff_t src_stride, std::size_t elem_bytes,
                         std::size_t nelems) {
  // Software loop of nbi puts (GASNet has no strided API).
  const auto* s = static_cast<const std::byte*>(src);
  for (std::size_t i = 0; i < nelems; ++i) {
    world_.put_nbi(rank,
                   dst_off + i * static_cast<std::uint64_t>(dst_stride) *
                                 elem_bytes,
                   s + static_cast<std::ptrdiff_t>(i) * src_stride *
                           static_cast<std::ptrdiff_t>(elem_bytes),
                   elem_bytes);
  }
}

void GasnetConduit::do_iget(void* dst, std::ptrdiff_t dst_stride, int rank,
                         std::uint64_t src_off, std::ptrdiff_t src_stride,
                         std::size_t elem_bytes, std::size_t nelems) {
  auto* d = static_cast<std::byte*>(dst);
  for (std::size_t i = 0; i < nelems; ++i) {
    world_.get(d + static_cast<std::ptrdiff_t>(i) * dst_stride *
                       static_cast<std::ptrdiff_t>(elem_bytes),
               rank,
               src_off + i * static_cast<std::uint64_t>(src_stride) *
                             elem_bytes,
               elem_bytes);
  }
}

}  // namespace caf
