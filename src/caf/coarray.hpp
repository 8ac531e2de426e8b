// caf::Coarray<T> — the typed, user-facing coarray API.
//
// Mirrors Fortran 2008 coarray semantics in embedded-C++ form, driving the
// same runtime entry points an OpenUH-compiled CAF program would:
//
//   Fortran                              this API
//   -------------------------------      ----------------------------------
//   integer :: x(4)[*]                   auto x = make_coarray<int>(rt, {4});
//   x(i) = v                             x(i) = v            (local, 1-based)
//   x(1)[4] = v                          x.put_scalar(4, {1}, v)
//   v = x(3)[4]                          v = x.get_scalar(4, {3})
//   y(:)(...) = x(1:9:2,...)[j]          x.get_section(buf, j, sec)
//   x(1:9:2,...)[j] = ...                x.put_section(j, sec, buf)
//   deallocate(x)                        free_coarray(rt, x)  (collective)
//
// Image indices are 1-based; subscripts are 1-based column-major; sections
// are lo:hi:stride triplets — all exactly as in the paper's examples.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "caf/runtime.hpp"
#include "caf/section.hpp"

namespace caf {

template <typename T>
class Coarray {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "coarray elements must be trivially copyable");

  Coarray() = default;

  const Shape& shape() const { return shape_; }
  std::int64_t size() const { return shape_.size(); }
  std::uint64_t offset() const { return off_; }
  Runtime& runtime() const { return *rt_; }

  /// Base of this image's local coarray storage.
  T* data() { return reinterpret_cast<T*>(rt_->local_addr(off_)); }
  const T* data() const {
    return reinterpret_cast<const T*>(rt_->local_addr(off_));
  }

  /// Local 1-based element access: x(i, j, k).
  template <typename... Subs>
  T& operator()(Subs... subs) {
    return data()[shape_.linear_index({static_cast<std::int64_t>(subs)...})];
  }
  template <typename... Subs>
  const T& operator()(Subs... subs) const {
    return data()[shape_.linear_index({static_cast<std::int64_t>(subs)...})];
  }

  // ---- co-indexed scalar access: x(subs)[image] ----
  T get_scalar(int image, std::initializer_list<std::int64_t> subs) const {
    T v{};
    rt_->get_bytes(&v, image,
                   off_ + static_cast<std::uint64_t>(shape_.linear_index(subs)) *
                              sizeof(T),
                   sizeof(T));
    return v;
  }
  void put_scalar(int image, std::initializer_list<std::int64_t> subs, T v) {
    rt_->put_bytes(image,
                   off_ + static_cast<std::uint64_t>(shape_.linear_index(subs)) *
                              sizeof(T),
                   &v, sizeof(T));
  }

  // ---- co-indexed contiguous block access (whole-array or prefix) ----
  void put_contiguous(int image, const T* src, std::size_t nelems,
                      std::int64_t first_elem = 0) {
    rt_->put_bytes(image,
                   off_ + static_cast<std::uint64_t>(first_elem) * sizeof(T),
                   src, nelems * sizeof(T));
  }
  void get_contiguous(T* dst, int image, std::size_t nelems,
                      std::int64_t first_elem = 0) const {
    rt_->get_bytes(dst, image,
                   off_ + static_cast<std::uint64_t>(first_elem) * sizeof(T),
                   nelems * sizeof(T));
  }

  // ---- co-indexed section access (§IV-C strided algorithms) ----
  /// x(sec)[image] = src_packed — src in section order, column-major.
  StridedStats put_section(int image, const Section& sec,
                           const T* src_packed) {
    return rt_->put_strided(image, off_, sizeof(T), describe(shape_, sec),
                            src_packed);
  }
  /// dst_packed = x(sec)[image].
  StridedStats get_section(T* dst_packed, int image, const Section& sec) const {
    return rt_->get_strided(dst_packed, image, off_, sizeof(T),
                            describe(shape_, sec));
  }

  /// Local section gather/scatter (no communication; used by tests and by
  /// halo packing): one copy_n per contiguous run of dimension 0.
  void pack_local(T* dst_packed, const Section& sec) const {
    const SectionDesc d = describe(shape_, sec);
    const T* base = data();
    for_each_run(d, 0, [&](std::int64_t elem, std::int64_t packed) {
      if (d.dim0_contiguous()) {
        std::copy_n(base + elem, d.count[0], dst_packed + packed);
        return;
      }
      for (std::int64_t i = 0; i < d.count[0]; ++i) {
        dst_packed[packed + i] = base[elem + i * d.elem_stride[0]];
      }
    });
  }
  void unpack_local(const Section& sec, const T* src_packed) {
    const SectionDesc d = describe(shape_, sec);
    T* base = data();
    for_each_run(d, 0, [&](std::int64_t elem, std::int64_t packed) {
      if (d.dim0_contiguous()) {
        std::copy_n(src_packed + packed, d.count[0], base + elem);
        return;
      }
      for (std::int64_t i = 0; i < d.count[0]; ++i) {
        base[elem + i * d.elem_stride[0]] = src_packed[packed + i];
      }
    });
  }

 private:
  template <typename U>
  friend Coarray<U> make_coarray(Runtime&, Shape);
  template <typename U>
  friend void free_coarray(Runtime&, Coarray<U>&);

  Runtime* rt_ = nullptr;
  std::uint64_t off_ = 0;
  Shape shape_;
};

/// Remote section-to-section assignment:
///   dst(dst_sec)[image] = src(src_sec)
/// where `src` is the caller's local coarray (or the same coarray). The two
/// sections must select the same number of elements; the source is packed
/// locally and shipped with the configured strided algorithm.
template <typename T>
StridedStats copy_section(Coarray<T>& dst, int image, const Section& dst_sec,
                          const Coarray<T>& src, const Section& src_sec) {
  const SectionDesc sd = describe(src.shape(), src_sec);
  const SectionDesc dd = describe(dst.shape(), dst_sec);
  if (sd.total != dd.total) {
    throw std::invalid_argument("copy_section: section sizes differ");
  }
  std::vector<T> packed(static_cast<std::size_t>(sd.total));
  src.pack_local(packed.data(), src_sec);
  return dst.put_section(image, dst_sec, packed.data());
}

/// Remote section fetch into a local section:
///   dst(dst_sec) = src(src_sec)[image]
template <typename T>
StridedStats copy_section_from(Coarray<T>& dst, const Section& dst_sec,
                               const Coarray<T>& src, int image,
                               const Section& src_sec) {
  const SectionDesc sd = describe(src.shape(), src_sec);
  const SectionDesc dd = describe(dst.shape(), dst_sec);
  if (sd.total != dd.total) {
    throw std::invalid_argument("copy_section_from: section sizes differ");
  }
  std::vector<T> packed(static_cast<std::size_t>(sd.total));
  const StridedStats stats = src.get_section(packed.data(), image, src_sec);
  dst.unpack_local(dst_sec, packed.data());
  return stats;
}

/// Collective coarray allocation (CAF `allocate(x(shape)[*])` — Table II
/// maps this onto shmalloc).
template <typename T>
Coarray<T> make_coarray(Runtime& rt, Shape shape) {
  Coarray<T> c;
  c.rt_ = &rt;
  c.shape_ = shape;
  c.off_ = rt.allocate_coarray_bytes(
      static_cast<std::size_t>(shape.size()) * sizeof(T));
  return c;
}

/// Collective deallocation (CAF `deallocate` → shfree).
template <typename T>
void free_coarray(Runtime& rt, Coarray<T>& c) {
  rt.deallocate_coarray_bytes(c.off_);
  c.rt_ = nullptr;
  c.off_ = 0;
}

/// Typed atomic cell: a Coarray<int64> of one element with the atomic_*
/// intrinsics attached (atomic_define/ref/cas/fetch_add — Table II).
class AtomicCell {
 public:
  explicit AtomicCell(Runtime& rt)
      : rt_(&rt), off_(rt.allocate_coarray_bytes(sizeof(std::int64_t))) {
    std::memset(rt.local_addr(off_), 0, sizeof(std::int64_t));
    rt.conduit().barrier();
  }
  std::uint64_t offset() const { return off_; }
  void define(int image, std::int64_t v) { rt_->atomic_define(image, off_, v); }
  std::int64_t ref(int image) { return rt_->atomic_ref(image, off_); }
  std::int64_t fetch_add(int image, std::int64_t v) {
    return rt_->atomic_fetch_add(image, off_, v);
  }
  std::int64_t cas(int image, std::int64_t cond, std::int64_t val) {
    return rt_->atomic_cas(image, off_, cond, val);
  }
  std::int64_t fetch_and(int image, std::int64_t m) {
    return rt_->atomic_fetch_and(image, off_, m);
  }
  std::int64_t fetch_or(int image, std::int64_t m) {
    return rt_->atomic_fetch_or(image, off_, m);
  }
  std::int64_t fetch_xor(int image, std::int64_t m) {
    return rt_->atomic_fetch_xor(image, off_, m);
  }

 private:
  Runtime* rt_;
  std::uint64_t off_;
};

}  // namespace caf
