#include "caf/section.hpp"

namespace caf {

Shape::Shape(std::initializer_list<std::int64_t> extents) {
  if (extents.size() > kMaxDims) {
    throw std::invalid_argument("Shape: rank exceeds kMaxDims");
  }
  for (std::int64_t e : extents) {
    if (e < 0) throw std::invalid_argument("Shape: negative extent");
    extents_[rank_++] = e;
  }
  for (int d = 1; d < kMaxDims; ++d) {
    strides_[d] = strides_[d - 1] * extents_[d - 1];
  }
}

std::int64_t Shape::size() const {
  std::int64_t s = 1;
  for (int d = 0; d < rank_; ++d) s *= extents_[d];
  return rank_ == 0 ? 1 : s;
}

Section::Section(std::initializer_list<Triplet> dims) {
  if (dims.size() > kMaxDims) {
    throw std::invalid_argument("Section: rank exceeds kMaxDims");
  }
  for (const Triplet& t : dims) dims_[rank_++] = t;
}

std::int64_t Section::count() const {
  std::int64_t c = 1;
  for (int d = 0; d < rank_; ++d) c *= dims_[d].count();
  return rank_ == 0 ? 1 : c;
}

void Section::validate(const Shape& shape) const {
  if (rank_ != shape.rank()) {
    throw std::invalid_argument("Section: rank does not match shape");
  }
  for (int d = 0; d < rank_; ++d) {
    const Triplet& t = dims_[d];
    if (t.stride <= 0) throw std::invalid_argument("Section: stride must be > 0");
    if (t.lo < 1 || t.hi > shape.extent(d)) {
      throw std::out_of_range("Section: triplet outside array bounds");
    }
  }
}

Section Section::all(const Shape& shape) {
  Section s;
  s.rank_ = shape.rank();
  for (int d = 0; d < shape.rank(); ++d) {
    s.dims_[d] = Triplet{1, shape.extent(d), 1};
  }
  return s;
}

SectionDesc describe(const Shape& shape, const Section& sec) {
  sec.validate(shape);
  SectionDesc d;
  d.rank = sec.rank();
  d.total = 1;
  for (int i = 0; i < d.rank; ++i) {
    const Triplet& t = sec.dim(i);
    d.count[i] = t.count();
    d.elem_stride[i] = t.stride * shape.dim_stride(i);
    d.first_elem += (t.lo - 1) * shape.dim_stride(i);
    d.total *= d.count[i];
  }
  if (d.rank == 0) {
    d.total = 1;
    d.count[0] = 1;
    d.elem_stride[0] = 1;
    d.rank = 1;
  }
  return d;
}

std::vector<std::int64_t> linear_elements(const SectionDesc& d) {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(d.total));
  std::array<std::int64_t, kMaxDims> idx{};
  for (std::int64_t n = 0; n < d.total; ++n) {
    std::int64_t lin = d.first_elem;
    for (int dim = 0; dim < d.rank; ++dim) lin += idx[dim] * d.elem_stride[dim];
    out.push_back(lin);
    for (int dim = 0; dim < d.rank; ++dim) {
      if (++idx[dim] < d.count[dim]) break;
      idx[dim] = 0;
    }
  }
  return out;
}

}  // namespace caf
