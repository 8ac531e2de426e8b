// Fortran-style array shapes and sections for coarrays.
//
// CAF arrays are column-major with (by default) 1-based inclusive bounds.
// A Section selects a rectangular sub-array with one triplet lo:hi:stride
// per dimension, exactly like `a(1:100:2, 1:80:2, 1:100:4)` in the paper's
// §IV-C example. SectionDesc flattens a Section against a Shape into the
// per-dimension byte strides and element counts that the strided transfer
// algorithms consume, and for_each_run walks it one run at a time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace caf {

inline constexpr int kMaxDims = 7;  // Fortran 2008 rank limit for coarrays

/// Array extents, column-major storage, 1-based indexing.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> extents);

  int rank() const { return rank_; }
  std::int64_t extent(int dim) const { return extents_[dim]; }
  std::int64_t size() const;

  /// Element stride (in elements) of dimension `dim` in column-major order:
  /// the product of the extents below it, cached at construction.
  std::int64_t dim_stride(int dim) const { return strides_[dim]; }

  /// Linear element index (0-based) of a 1-based subscript tuple.
  std::int64_t linear_index(std::initializer_list<std::int64_t> subs) const {
    if (static_cast<int>(subs.size()) != rank_) {
      throw std::invalid_argument("linear_index: rank mismatch");
    }
    std::int64_t idx = 0;
    int d = 0;
    for (std::int64_t s : subs) {
      if (s < 1 || s > extents_[d]) {
        throw std::out_of_range("linear_index: subscript out of bounds");
      }
      idx += (s - 1) * strides_[d++];
    }
    return idx;
  }

 private:
  int rank_ = 0;
  std::array<std::int64_t, kMaxDims> extents_{};
  std::array<std::int64_t, kMaxDims> strides_{1};
};

/// One dimension of a section: lo:hi:stride, 1-based and inclusive.
struct Triplet {
  std::int64_t lo = 1;
  std::int64_t hi = 1;
  std::int64_t stride = 1;

  std::int64_t count() const {
    if (stride <= 0) throw std::invalid_argument("Triplet: stride must be > 0");
    if (hi < lo) return 0;
    return (hi - lo) / stride + 1;
  }
};

/// A rectangular section of an array (one triplet per dimension).
class Section {
 public:
  Section() = default;
  Section(std::initializer_list<Triplet> dims);

  int rank() const { return rank_; }
  const Triplet& dim(int d) const { return dims_[d]; }
  std::int64_t count() const;  // total selected elements

  /// Validates against a shape (each triplet within bounds, ranks match).
  void validate(const Shape& shape) const;

  /// The full section of `shape` (every element).
  static Section all(const Shape& shape);

 private:
  int rank_ = 0;
  std::array<Triplet, kMaxDims> dims_{};
};

/// A section flattened against a shape: per-dimension selected-element
/// counts and the stride *in elements of the underlying array* between
/// consecutive selected elements; plus the linear element offset of the
/// section's first element. This is the input to the strided algorithms.
struct SectionDesc {
  int rank = 0;
  std::int64_t first_elem = 0;                      // 0-based linear offset
  std::array<std::int64_t, kMaxDims> count{};       // selected per dim
  std::array<std::int64_t, kMaxDims> elem_stride{}; // array elems between picks
  std::int64_t total = 0;

  /// True when the selected elements of dimension 0 are contiguous in
  /// memory (stride 1 in a column-major innermost dimension) — the
  /// "matrix-oriented" case of the Himeno discussion (§V-D).
  bool dim0_contiguous() const { return rank > 0 && elem_stride[0] == 1; }

  /// Element stride of dimension `dim` in the packed (section-order)
  /// buffer: the product of the selected counts below it.
  std::int64_t packed_stride(int dim) const {
    std::int64_t s = 1;
    for (int i = 0; i < dim; ++i) s *= count[i];
    return s;
  }
};

SectionDesc describe(const Shape& shape, const Section& sec);

/// The one walk over a section, shared by local packing and every strided
/// RMA algorithm. A run is the count[base] elements along dimension `base`;
/// fn(elem, packed) is called once per index tuple of the other dimensions,
/// in column-major order, with the run's first linear array element and
/// its first position in the packed buffer. Within the run, elements follow
/// at d.elem_stride[base] in the array and d.packed_stride(base) in the
/// buffer. Offsets advance incrementally; no count is ever a divisor, so an
/// empty dimension simply yields no runs (or empty ones, when it is `base`).
template <typename Fn>
void for_each_run(const SectionDesc& d, int base, Fn&& fn) {
  std::array<std::int64_t, kMaxDims> idx{};
  std::array<std::int64_t, kMaxDims> ps{};
  std::int64_t runs = 1;
  for (int dim = 0; dim < d.rank; ++dim) {
    ps[dim] = d.packed_stride(dim);
    if (dim != base) runs *= d.count[dim];
  }
  std::int64_t elem = d.first_elem;
  std::int64_t packed = 0;
  for (std::int64_t n = 0; n < runs; ++n) {
    fn(elem, packed);
    for (int dim = 0; dim < d.rank; ++dim) {
      if (dim == base) continue;
      if (++idx[dim] < d.count[dim]) {
        elem += d.elem_stride[dim];
        packed += ps[dim];
        break;
      }
      elem -= (d.count[dim] - 1) * d.elem_stride[dim];
      packed -= (d.count[dim] - 1) * ps[dim];
      idx[dim] = 0;
    }
  }
}

/// Enumerates the 0-based linear element indices of a section in Fortran
/// (column-major) order, one element at a time. The tests' oracle for
/// for_each_run; no library code walks sections through it.
std::vector<std::int64_t> linear_elements(const SectionDesc& d);

}  // namespace caf
