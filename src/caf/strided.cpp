// Multi-dimensional strided RMA (§IV-C): the naive algorithm, the paper's
// 2dim_strided algorithm, and the aggregated (write-combining) plan.
//
// Host-side data is packed in section order (column-major over the selected
// elements); the remote side is described by a SectionDesc against the
// coarray's shape. Every algorithm walks the section with caf::for_each_run
// (section.hpp), the same walker local packing uses.
//
//   naive        — walk the dim-0 runs; transfer one contiguous run per
//                  innermost (dim 0) segment: a single putmem/getmem when
//                  dim 0 of the section is contiguous (the matrix-oriented
//                  case that §V-D shows favours naive), else one
//                  putmem/getmem per element, exactly the 50*40*25-call
//                  behaviour of the paper's example.
//   2dim_strided — pick base_dim ∈ {0, 1} with the most strided elements
//                  (the paper restricts the choice to the first two
//                  dimensions to respect data locality), then issue one 1-D
//                  shmem_iput/iget per run along it. For the
//                  example this reduces 50*40*25 calls to 1*40*25.
//   aggregate    — puts only: stage every run into the write-combining
//                  chunk; many small runs ship as a few scatter messages.
//
// Run coalescing (Options::rma.run_coalescing) sits under all put/get run
// walks: innermost runs that happen to be adjacent in BOTH remote and
// packed space are merged into one transfer before dispatch.
#include <cmath>
#include <cstddef>

#include "caf/runtime.hpp"

namespace caf {

namespace {

/// Chooses the 2dim_strided base dimension: the one of the first two
/// dimensions with more strided elements (§IV-C's two optimizations:
/// fewer calls, bounded locality damage).
int choose_base_dim(const SectionDesc& d) {
  if (d.rank < 2) return 0;
  return d.count[1] > d.count[0] ? 1 : 0;
}

// Planner plan identifiers beyond the 0/1 base dimensions.
constexpr int kPlanNaive = -1;
constexpr int kPlanAggregate = -2;

/// §VII adaptive planner: estimated cost (ns) of the candidate execution
/// plans for a section, from the conduit's software profile. Four plans:
///   kPlanNaive     — naive (contiguous runs if dim 0 is contiguous, else
///                    per-element transfers);
///   0 or 1         — 1-D strided calls along that base dimension;
///   kPlanAggregate — stage the runs through the write-combining chunk and
///                    ship them as scatter messages (puts only).
/// The estimate charges the per-call CPU overhead, the per-element NIC gap
/// for hardware iput (or the per-element put for software iput), and the
/// byte cost at the conduit's link bandwidth.
double plan_cost(const net::SwProfile& sw, bool hw, const SectionDesc& d,
                 std::size_t elem_bytes, int plan, bool is_put,
                 const RmaOptions& rma) {
  const double o = static_cast<double>(sw.put_overhead);
  const double link = sw.link_bytes_per_ns * sw.bw_efficiency;
  const double byte_ns = static_cast<double>(d.total) * elem_bytes / link;
  const bool contig = d.dim0_contiguous();
  if (plan == kPlanAggregate) {
    // Eligible only for puts with write-combining enabled, and only when
    // the individual runs fit the stage's small-put bound.
    if (!is_put || !rma.write_combining) return 1e300;
    const double run_bytes =
        static_cast<double>(contig ? d.count[0] : 1) * elem_bytes;
    if (run_bytes == 0 || run_bytes > static_cast<double>(kAggMaxPut)) {
      return 1e300;
    }
    const double nrecs =
        contig ? static_cast<double>(d.total) / d.count[0]
               : static_cast<double>(d.total);
    const double wire = static_cast<double>(d.total) * elem_bytes +
                        nrecs * fabric::kScatterRecWire;
    const double msgs =
        std::ceil(wire / static_cast<double>(kAggChunkBytes));
    return nrecs * static_cast<double>(kAggStageCpuNs) +
           msgs * static_cast<double>(sw.per_msg_gap) + wire / link;
  }
  if (plan < 0) {
    if (contig) {
      const double runs = static_cast<double>(d.total) / d.count[0];
      return runs * o + byte_ns;
    }
    return static_cast<double>(d.total) * o + byte_ns;
  }
  if (plan >= d.rank) return 1e300;
  const double calls = static_cast<double>(d.total) / d.count[plan];
  if (!hw) {
    // Software iput degenerates to per-element puts: never better than
    // naive, and worse than naive-runs for contiguous sections.
    return static_cast<double>(d.total) * o + byte_ns;
  }
  return calls * o +
         static_cast<double>(d.total) * sw.strided_elem_gap + byte_ns;
}

/// Picks the cheapest plan (kPlanNaive, 0/1 = base dimension, or
/// kPlanAggregate when the write-combining stage wins).
int choose_adaptive_plan(const net::SwProfile& sw, bool hw,
                         const SectionDesc& d, std::size_t elem_bytes,
                         bool is_put, const RmaOptions& rma) {
  int best = kPlanNaive;
  double best_cost =
      plan_cost(sw, hw, d, elem_bytes, kPlanNaive, is_put, rma);
  for (int p = 0; p < 2 && p < d.rank; ++p) {
    const double c = plan_cost(sw, hw, d, elem_bytes, p, is_put, rma);
    if (c < best_cost) {
      best_cost = c;
      best = p;
    }
  }
  const double agg =
      plan_cost(sw, hw, d, elem_bytes, kPlanAggregate, is_put, rma);
  if (agg < best_cost) best = kPlanAggregate;
  return best;
}

/// Merges adjacent innermost runs before dispatch. A run extends the
/// pending one only when it is adjacent in BOTH remote and packed element
/// space, so one contiguous memcpy on each side covers the merged range.
template <typename Dispatch>
class RunCoalescer {
 public:
  RunCoalescer(bool enabled, StridedStats& stats, ImageStats& istats,
               Dispatch dispatch)
      : enabled_(enabled), stats_(stats), istats_(istats),
        dispatch_(dispatch) {}

  void add(std::int64_t roff, std::int64_t poff, std::int64_t elems) {
    if (len_ > 0 && enabled_ && roff == roff_ + len_ && poff == poff_ + len_) {
      len_ += elems;
      ++stats_.coalesced;
      ++istats_.coalesced_runs;
      return;
    }
    flush();
    roff_ = roff;
    poff_ = poff;
    len_ = elems;
  }

  void flush() {
    if (len_ == 0) return;
    dispatch_(roff_, poff_, len_);
    ++stats_.messages;
    len_ = 0;
  }

 private:
  bool enabled_;
  StridedStats& stats_;
  ImageStats& istats_;
  Dispatch dispatch_;
  std::int64_t roff_ = 0;
  std::int64_t poff_ = 0;
  std::int64_t len_ = 0;
};

/// The naive walk: one run per dimension-0 run of `d` (or one per element
/// when dimension 0 is strided), through the coalescer, then a final flush.
template <typename Dispatch>
void add_naive_runs(RunCoalescer<Dispatch>& co, const SectionDesc& d) {
  const bool contig = d.dim0_contiguous();
  for_each_run(d, 0, [&](std::int64_t roff, std::int64_t poff) {
    if (contig) {
      co.add(roff, poff, d.count[0]);
      return;
    }
    for (std::int64_t i = 0; i < d.count[0]; ++i) {
      co.add(roff + i * d.elem_stride[0], poff + i, 1);
    }
  });
  co.flush();
}

}  // namespace

StridedStats Runtime::put_strided(int image, std::uint64_t base_off,
                                  std::size_t elem_bytes,
                                  const SectionDesc& dst,
                                  const void* src_packed) {
  require_init();
  const int rank0 = image - 1;
  const auto* src = static_cast<const std::byte*>(src_packed);
  StridedStats stats;
  stats.elements = static_cast<std::size_t>(dst.total);
  auto& istats = per_image_[me()].stats;

  StridedAlgo algo = opts_.strided;
  int adaptive_base = -1;
  if (algo == StridedAlgo::kAdaptive) {
    const int plan =
        choose_adaptive_plan(conduit_.sw(), conduit_.hw_strided(), dst,
                             elem_bytes, /*is_put=*/true, opts_.rma);
    if (plan == kPlanAggregate) {
      algo = StridedAlgo::kAggregate;
    } else if (plan == kPlanNaive) {
      algo = StridedAlgo::kNaive;
    } else {
      algo = StridedAlgo::kTwoDim;
      adaptive_base = plan;
    }
  }
  // The aggregated plan needs the write-combining stage; without it the
  // runs degrade gracefully to the naive walk.
  if (algo == StridedAlgo::kAggregate && !opts_.rma.write_combining) {
    algo = StridedAlgo::kNaive;
  }
  const bool nbi = deferred();

  if (algo == StridedAlgo::kNaive || algo == StridedAlgo::kAggregate) {
    // One contiguous transfer per innermost run (or per element when the
    // innermost dimension is itself strided), coalescing adjacent runs.
    const bool aggregate = algo == StridedAlgo::kAggregate;
    auto send = [&](std::int64_t roff, std::int64_t poff, std::int64_t elems) {
      const std::uint64_t off =
          base_off + static_cast<std::uint64_t>(roff) * elem_bytes;
      const std::byte* p = src + poff * static_cast<std::int64_t>(elem_bytes);
      const std::size_t n = static_cast<std::size_t>(elems) * elem_bytes;
      if (aggregate) {
        pipelined_put(rank0, off, p, n);
      } else {
        conduit_.put(rank0, off, p, n, nbi);
      }
    };
    RunCoalescer co(opts_.rma.run_coalescing, stats, istats, send);
    add_naive_runs(co, dst);
  } else {
    // 2dim_strided: one 1-D strided call per tuple of the non-base dims.
    const int base = adaptive_base >= 0 ? adaptive_base : choose_base_dim(dst);
    for_each_run(dst, base, [&](std::int64_t roff, std::int64_t poff) {
      conduit_.iput(rank0,
                    base_off + static_cast<std::uint64_t>(roff) * elem_bytes,
                    /*dst_stride=*/dst.elem_stride[base],
                    src + poff * static_cast<std::int64_t>(elem_bytes),
                    /*src_stride=*/dst.packed_stride(base), elem_bytes,
                    static_cast<std::size_t>(dst.count[base]));
      ++stats.messages;
    });
  }
  istats.strided_puts += stats.messages;
  istats.put_bytes += stats.elements * elem_bytes;
  if (!deferred()) {
    // Eager completion: flush any staged runs now, then the paper's strict
    // quiet. In deferred mode both wait for the next completion point.
    if (algo == StridedAlgo::kAggregate) agg_flush();
    if (opts_.memory_model == MemoryModel::kStrict) conduit_.quiet();
  }
  return stats;
}

StridedStats Runtime::get_strided(void* dst_packed, int image,
                                  std::uint64_t base_off,
                                  std::size_t elem_bytes,
                                  const SectionDesc& src) {
  require_init();
  const int rank0 = image - 1;
  auto* dst = static_cast<std::byte*>(dst_packed);
  StridedStats stats;
  stats.elements = static_cast<std::size_t>(src.total);
  auto& istats = per_image_[me()].stats;
  if (opts_.memory_model == MemoryModel::kStrict) {
    // A strict-mode get must observe this image's program-order-earlier
    // puts: flush staged records headed to the read target, then complete
    // in-flight puts — but only when the tracker shows any toward it.
    auto& img = per_image_[me()];
    if (!img.agg_recs.empty() && img.agg_target == rank0) agg_flush();
    if (conduit_.pending(rank0)) conduit_.quiet();
  }

  StridedAlgo algo = opts_.strided;
  int adaptive_base = -1;
  if (algo == StridedAlgo::kAdaptive) {
    const int plan =
        choose_adaptive_plan(conduit_.sw(), conduit_.hw_strided(), src,
                             elem_bytes, /*is_put=*/false, opts_.rma);
    if (plan == kPlanNaive || plan == kPlanAggregate) {
      algo = StridedAlgo::kNaive;
    } else {
      algo = StridedAlgo::kTwoDim;
      adaptive_base = plan;
    }
  }
  // There is no aggregated get (the stage only combines writes).
  if (algo == StridedAlgo::kAggregate) algo = StridedAlgo::kNaive;

  if (algo == StridedAlgo::kNaive) {
    auto recv = [&](std::int64_t roff, std::int64_t poff, std::int64_t elems) {
      conduit_.get(dst + poff * static_cast<std::int64_t>(elem_bytes), rank0,
                   base_off + static_cast<std::uint64_t>(roff) * elem_bytes,
                   static_cast<std::size_t>(elems) * elem_bytes);
    };
    RunCoalescer co(opts_.rma.run_coalescing, stats, istats, recv);
    add_naive_runs(co, src);
  } else {
    const int base = adaptive_base >= 0 ? adaptive_base : choose_base_dim(src);
    for_each_run(src, base, [&](std::int64_t roff, std::int64_t poff) {
      conduit_.iget(dst + poff * static_cast<std::int64_t>(elem_bytes),
                    /*dst_stride=*/src.packed_stride(base), rank0,
                    base_off + static_cast<std::uint64_t>(roff) * elem_bytes,
                    /*src_stride=*/src.elem_stride[base], elem_bytes,
                    static_cast<std::size_t>(src.count[base]));
      ++stats.messages;
    });
  }
  istats.get_bytes += stats.elements * elem_bytes;
  return stats;
}

}  // namespace caf
