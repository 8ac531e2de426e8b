// Conformance tests for the topology-aware collectives engine: every
// algorithm arm, on every conduit, must produce results bit-identical to a
// sequential ascending-rank fold — including a non-commutative (but
// associative) combiner, which exposes any arm that merges out of order.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "caf/collectives.hpp"
#include "caf_test_util.hpp"
#include "obs/obs.hpp"

using caf::CollAlgo;
using caftest::Harness;
using caftest::Stack;

namespace {

caf::Options coll_opts(CollAlgo bcast, CollAlgo red) {
  caf::Options o;
  o.use_native_collectives = false;  // always exercise the engine
  o.coll.broadcast = bcast;
  o.coll.reduce = red;
  return o;
}

std::string stack_name(const ::testing::TestParamInfo<Stack>& info) {
  switch (info.param) {
    case Stack::kShmemCray: return "cray_shmem";
    case Stack::kShmemMvapich: return "mvapich_shmem";
    case Stack::kGasnet: return "gasnet";
    case Stack::kArmci: return "armci";
    case Stack::kMpi3: return "mpi3";
  }
  return "unknown";
}

// 2x2 integer matrices mod 1'000'003 under multiplication: associative but
// NON-commutative, so an arm that folds out of rank order computes a
// visibly different product.
constexpr std::int64_t kMod = 1'000'003;

struct Mat {
  std::int64_t m[4];
};

Mat mat_mul(const Mat& x, const Mat& y) {
  Mat r;
  r.m[0] = (x.m[0] * y.m[0] + x.m[1] * y.m[2]) % kMod;
  r.m[1] = (x.m[0] * y.m[1] + x.m[1] * y.m[3]) % kMod;
  r.m[2] = (x.m[2] * y.m[0] + x.m[3] * y.m[2]) % kMod;
  r.m[3] = (x.m[2] * y.m[1] + x.m[3] * y.m[3]) % kMod;
  return r;
}

Mat mat_of(int rank0, std::size_t i) {
  Mat v;
  for (int j = 0; j < 4; ++j) {
    v.m[j] = ((rank0 + 1) * 1'009 + static_cast<std::int64_t>(i) * 31 +
              j * 7 + 1) %
             kMod;
  }
  return v;
}

void mat_comb(void* a, const void* b) {
  Mat x, y;
  std::memcpy(&x, a, sizeof x);
  std::memcpy(&y, b, sizeof y);
  x = mat_mul(x, y);
  std::memcpy(a, &x, sizeof x);
}

std::int64_t bcast_val(int root0, std::size_t i) {
  return root0 * 1'000'003LL + static_cast<std::int64_t>(i) * 7 + 1;
}

/// mincore's residency bits for the pages of [seg, seg + bytes), the first
/// page being the one `seg` lies in.
std::vector<unsigned char> residency(const std::byte* seg, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto lo = reinterpret_cast<std::uintptr_t>(seg) & ~(page - 1);
  const auto hi = reinterpret_cast<std::uintptr_t>(seg + bytes);
  std::vector<unsigned char> vec((hi - lo + page - 1) / page);
  if (mincore(reinterpret_cast<void*>(lo), hi - lo, vec.data()) != 0) {
    ADD_FAILURE() << "mincore failed";
  }
  return vec;
}

/// True when the page holding `p` is mapped by this process alone, which
/// for an anonymous page means it was written (/proc/self/pagemap bit 56,
/// "exclusively mapped"). A page that was only read maps the kernel's
/// shared zero page and leaves the bit clear.
bool privately_written(const void* p) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto index = reinterpret_cast<std::uintptr_t>(p) / page;
  std::uint64_t entry = 0;
  const int fd = open("/proc/self/pagemap", O_RDONLY);
  if (fd < 0 ||
      pread(fd, &entry, sizeof entry,
            static_cast<off_t>(index * sizeof entry)) != sizeof entry) {
    ADD_FAILURE() << "cannot read /proc/self/pagemap";
  }
  if (fd >= 0) close(fd);
  return ((entry >> 56) & 1) != 0;
}

class CollConformance : public ::testing::TestWithParam<Stack> {};
INSTANTIATE_TEST_SUITE_P(Conduits, CollConformance,
                         ::testing::ValuesIn(caftest::kAllStacks), stack_name);

}  // namespace

TEST_P(CollConformance, BroadcastArmsMatchReference) {
  // 24'000 bytes: the non-pipelined arms chunk (3 slots), kPipelined
  // actually streams. Two back-to-back broadcasts with different roots
  // stress the generation-parity slot banks.
  constexpr std::size_t kN = 3'000;
  for (const int images : {5, 17, 33}) {
    for (const CollAlgo arm :
         {CollAlgo::kFlat, CollAlgo::kBinomial, CollAlgo::kTwoLevel,
          CollAlgo::kPipelined}) {
      Harness h(GetParam(), images, coll_opts(arm, CollAlgo::kAuto));
      h.run([&] {
        auto& rt = h.rt();
        const int me0 = rt.this_image() - 1;
        const int rootA = 2 % images;
        const int rootB = images - 1;
        std::vector<std::int64_t> data(kN);
        for (std::size_t i = 0; i < kN; ++i) {
          data[i] = me0 == rootA ? bcast_val(rootA, i) : -1;
        }
        rt.co_broadcast(data.data(), kN, rootA + 1);
        for (std::size_t i = 0; i < kN; ++i) {
          ASSERT_EQ(data[i], bcast_val(rootA, i))
              << "arm=" << static_cast<int>(arm) << " images=" << images
              << " i=" << i;
        }
        // Immediately again from a different root, no intervening sync.
        if (me0 == rootB) {
          for (std::size_t i = 0; i < kN; ++i) data[i] = bcast_val(rootB, i);
        }
        rt.co_broadcast(data.data(), kN, rootB + 1);
        for (std::size_t i = 0; i < kN; ++i) {
          ASSERT_EQ(data[i], bcast_val(rootB, i))
              << "arm=" << static_cast<int>(arm) << " images=" << images
              << " i=" << i;
        }
        rt.sync_all();
      });
    }
  }
}

TEST_P(CollConformance, ReduceArmsMatchRankOrderFold) {
  // 400 * 32 B = 12'800 B: above one pipe chunk (kPipelined streams), and
  // several recursive-doubling/two-level chunks of rd_max_bytes.
  constexpr std::size_t kMats = 400;
  for (const int images : {5, 17, 33}) {
    // Sequential ascending-rank reference fold.
    std::vector<Mat> expect(kMats);
    for (std::size_t i = 0; i < kMats; ++i) {
      expect[i] = mat_of(0, i);
      for (int r = 1; r < images; ++r) {
        expect[i] = mat_mul(expect[i], mat_of(r, i));
      }
    }
    for (const CollAlgo arm :
         {CollAlgo::kFlat, CollAlgo::kBinomial, CollAlgo::kTwoLevel,
          CollAlgo::kRecursiveDoubling, CollAlgo::kPipelined}) {
      Harness h(GetParam(), images, coll_opts(CollAlgo::kAuto, arm));
      h.run([&] {
        auto& rt = h.rt();
        const int me0 = rt.this_image() - 1;
        std::vector<Mat> data(kMats);
        for (std::size_t i = 0; i < kMats; ++i) data[i] = mat_of(me0, i);
        rt.coll_engine()->allreduce(data.data(), kMats, sizeof(Mat), mat_comb);
        ASSERT_EQ(std::memcmp(data.data(), expect.data(),
                              kMats * sizeof(Mat)),
                  0)
            << "arm=" << static_cast<int>(arm) << " images=" << images;
        rt.sync_all();
      });
    }
  }
}

TEST_P(CollConformance, CoSumThroughRuntimeMatchesExact) {
  // The rerouted co_sum template over the auto-selected arm: exactly
  // representable doubles make any associative fold order bit-identical.
  constexpr std::size_t kN = 1'500;  // 12 KB: forces the pipelined path
  const int images = 18;
  Harness h(GetParam(), images, coll_opts(CollAlgo::kAuto, CollAlgo::kAuto));
  h.run([&] {
    auto& rt = h.rt();
    std::vector<double> data(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      data[i] = rt.this_image() * 1.5 + static_cast<double>(i % 7);
    }
    rt.co_sum(data.data(), kN);
    const double ranksum = 1.5 * images * (images + 1) / 2;
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(data[i], ranksum + images * static_cast<double>(i % 7));
    }
    rt.sync_all();
  });
}

TEST(CollEngine, SelectorPricesFromProfile) {
  // Stampede (16 cores/node) at 33 images spans 3 nodes: small payloads
  // favor the hierarchical arms, large ones the pipelined tree.
  Harness multi(Stack::kShmemMvapich, 33, coll_opts(CollAlgo::kAuto,
                                                    CollAlgo::kAuto));
  multi.run([&] {
    auto* eng = multi.rt().coll_engine();
    ASSERT_NE(eng, nullptr);
    EXPECT_EQ(eng->num_nodes(), 3);
    EXPECT_EQ(eng->node_size(), 16);
    EXPECT_EQ(eng->pick_broadcast(64), CollAlgo::kTwoLevel);
    EXPECT_EQ(eng->pick_reduce(8), CollAlgo::kTwoLevel);
    EXPECT_EQ(eng->pick_broadcast(100'000), CollAlgo::kPipelined);
    EXPECT_EQ(eng->pick_reduce(100'000), CollAlgo::kPipelined);
    multi.rt().sync_all();
  });
  // 8 images on an XC30 node (24 cores) are a single node: no hierarchy to
  // exploit; small allreduces take recursive doubling.
  Harness single(Stack::kShmemCray, 8, coll_opts(CollAlgo::kAuto,
                                                 CollAlgo::kAuto));
  single.run([&] {
    auto* eng = single.rt().coll_engine();
    EXPECT_EQ(eng->num_nodes(), 1);
    EXPECT_EQ(eng->pick_broadcast(64), CollAlgo::kBinomial);
    EXPECT_EQ(eng->pick_reduce(8), CollAlgo::kRecursiveDoubling);
    single.rt().sync_all();
  });
}

TEST(CollEngine, TwoLevelOnlyLeadersTouchTheWire) {
  // 33 Stampede images = 3 nodes of 16/16/1. Broadcasting from image 6
  // (rank 5, mid-node): under the two-level arm the only images allowed to
  // send across nodes are the root (standing in for its node's leader) and
  // the other node leaders — ranks 5, 16, 32. A rotated binomial tree, by
  // contrast, scatters cross-node edges over arbitrary ranks.
  Harness h(Stack::kShmemMvapich, 33,
            coll_opts(CollAlgo::kTwoLevel, CollAlgo::kAuto));
  h.run([&] {
    auto& rt = h.rt();
    std::vector<std::int64_t> data(128, rt.this_image());
    rt.co_broadcast(data.data(), data.size(), 6);
    rt.sync_all();
    const auto& tele = rt.coll_engine()->telemetry();
    const int me0 = rt.this_image() - 1;
    if (me0 == 5) {
      EXPECT_GT(tele.inter_node_msgs, 0u);  // root feeds the other leaders
    } else if (me0 != 16 && me0 != 32) {
      EXPECT_EQ(tele.inter_node_msgs, 0u);
    }
  });
}

TEST(CollEngine, TwoLevelBroadcastBeatsBinomialAcrossNodes) {
  // The latency claim behind the selector's pricing: for small payloads on
  // a 3-node machine, one inter-node k-nomial hop plus intra-node fan-out
  // beats ceil(log2 33) = 6 serial wire hops.
  auto elapsed = [](CollAlgo arm) {
    Harness h(Stack::kShmemMvapich, 33, coll_opts(arm, CollAlgo::kAuto));
    sim::Time t = 0;
    h.run([&] {
      auto& rt = h.rt();
      std::int64_t v[8] = {};
      rt.sync_all();
      const sim::Time t0 = h.engine().now();
      for (int i = 0; i < 20; ++i) rt.co_broadcast(v, 8, 1);
      rt.sync_all();
      if (rt.this_image() == 1) t = h.engine().now() - t0;
    });
    return t;
  };
  EXPECT_LT(elapsed(CollAlgo::kTwoLevel), elapsed(CollAlgo::kBinomial));
}

TEST(CollEngine, IntraNodeStagesUseDirectPath) {
  // Every stack, transport on and off: the two-level gather/fan-out stages
  // within a node send intra-node messages either way; with the node
  // transport on they ride its shared-segment copies (elided fabric
  // messages), with it off none is elided.
  for (const Stack stack : caftest::kAllStacks) {
    for (const bool node_on : {true, false}) {
      SCOPED_TRACE(std::string(caftest::to_string(stack)) +
                   (node_on ? " transport on" : " transport off"));
      caf::Options opts = coll_opts(CollAlgo::kTwoLevel, CollAlgo::kTwoLevel);
      opts.node.enabled = node_on;
      obs::registry().clear();  // the previous arm's node.* counts
      Harness h(stack, 6, opts);
      h.run([&] {
        auto& rt = h.rt();
        std::int64_t v = rt.this_image();
        rt.co_sum(&v, 1);
        EXPECT_EQ(v, 21);
        rt.sync_all();
        const auto& tele = rt.coll_engine()->telemetry();
        const int me0 = rt.this_image() - 1;
        const std::uint64_t elided =
            obs::registry().value(me0, "node.elided_msgs");
        if (me0 != 0) {  // every non-leader sent intra-node
          EXPECT_GT(tele.intra_node_msgs, 0u);
          EXPECT_EQ(elided > 0, node_on);
        }
        if (!node_on) {
          EXPECT_EQ(elided, 0u);
        }
        EXPECT_EQ(tele.inter_node_msgs, 0u);  // single node: nothing crossed
      });
    }
  }
}

TEST(CollEngine, HierarchicalBarrierSynchronizes) {
  // team_sync on a fault-free run takes the engine's dissemination barrier;
  // a late image must hold everyone back, across nodes.
  const int images = 34;  // 3 Stampede nodes, ragged last node
  Harness h(Stack::kShmemMvapich, images);
  h.run([&] {
    auto& rt = h.rt();
    caf::Team all;
    for (int i = 1; i <= images; ++i) all.members.push_back(i);
    for (int round = 1; round <= 3; ++round) {
      if (rt.this_image() == round) {
        h.engine().advance(100'000 * round);
      }
      EXPECT_EQ(rt.team_sync(all), caf::kStatOk);
      EXPECT_GE(h.engine().now(),
                static_cast<sim::Time>(100'000) * round);
    }
    EXPECT_EQ(rt.coll_engine()->telemetry().barriers, 3u);
  });
}

TEST(CollEngine, PipelinedTelemetryShowsStreaming) {
  // A 256 KB broadcast at depth 4 must actually overlap segments: every
  // interior image forwards 32 chunks per child.
  Harness h(Stack::kShmemMvapich, 9,
            coll_opts(CollAlgo::kPipelined, CollAlgo::kAuto));
  h.run([&] {
    auto& rt = h.rt();
    std::vector<std::int64_t> data(32'768);
    if (rt.this_image() == 1) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = bcast_val(0, i);
      }
    }
    rt.co_broadcast(data.data(), data.size(), 1);
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(data[i], bcast_val(0, i));
    }
    rt.sync_all();
    if (rt.this_image() == 1) {
      EXPECT_GE(rt.coll_engine()->telemetry().chunks_pipelined, 32u);
    }
  });
}

TEST(CollEngine, SmallAndLargePayloadsShareBanksSafely) {
  // Payloads up to kSmallSlotBytes stage in the compact twins, larger ones
  // in the full slots, and both share a bank's flag. Cycling 8, 64, 65 and
  // 1024 bytes over more than 2 * kBcBanks generations puts small and
  // large payloads on every bank in turn; a receiver reading the wrong
  // slot, or a bank reused while still in flight, shows up as a wrong
  // byte. First back-to-back broadcasts from one root, which never waits
  // and so runs up to kBcBanks generations ahead of the late images; then
  // broadcasts from rotating roots alternating with allreduces. Runs on a
  // two-level (3 Stampede nodes) and a flat topology.
  constexpr std::size_t kSizes[] = {8, 64, 65, 1024};
  constexpr int kRounds = 3 * caf::CollectiveEngine::kBcBanks;
  constexpr int kImages = 40;
  auto byte_of = [](int round, int image0, std::size_t i) {
    return static_cast<std::uint8_t>(round * 37 + image0 * 11 +
                                     static_cast<int>(i) * 5 + 1);
  };
  for (const bool hierarchical : {true, false}) {
    caf::Options o = coll_opts(CollAlgo::kAuto, CollAlgo::kAuto);
    o.coll.hierarchical = hierarchical;
    Harness h(Stack::kShmemMvapich, kImages, o);
    h.run([&] {
      auto& rt = h.rt();
      const int me0 = rt.this_image() - 1;
      const std::string where = " on image " + std::to_string(me0 + 1) +
                                (hierarchical ? ", two-level" : ", flat");
      constexpr int kRoot0 = 3;
      if (me0 % 5 == 1) h.engine().advance(20'000);  // late images
      std::vector<std::vector<std::uint8_t>> got(kRounds);
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t n = kSizes[round % 4];
        got[round].assign(n, 0);
        if (me0 == kRoot0) {
          for (std::size_t i = 0; i < n; ++i) {
            got[round][i] = byte_of(round, kRoot0, i);
          }
        }
        rt.co_broadcast(got[round].data(), n, kRoot0 + 1);
      }
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < got[round].size(); ++i) {
          ASSERT_EQ(got[round][i], byte_of(round, kRoot0, i))
              << "streamed broadcast " << round << " (" << got[round].size()
              << " B), byte " << i << where;
        }
      }
      std::vector<std::uint8_t> buf;
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t n = kSizes[round % 4];
        const int root0 = (round * 7) % kImages;
        buf.assign(n, 0);
        if (me0 == root0) {
          for (std::size_t i = 0; i < n; ++i) buf[i] = byte_of(round, root0, i);
        }
        rt.co_broadcast(buf.data(), n, root0 + 1);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(buf[i], byte_of(round, root0, i))
              << "broadcast " << round << " (" << n << " B), byte " << i
              << where;
        }
        for (std::size_t i = 0; i < n; ++i) buf[i] = byte_of(round, me0, i);
        rt.co_sum(buf.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          std::uint8_t want = 0;
          for (int r = 0; r < kImages; ++r) {
            want = static_cast<std::uint8_t>(want + byte_of(round, r, i));
          }
          ASSERT_EQ(buf[i], want) << "allreduce " << round << " (" << n
                                  << " B), byte " << i << where;
        }
      }
      rt.sync_all();
    });
  }
}

TEST(CollFootprint, FaultFreeRunNeverWritesTheTeamPage) {
  // The CRITICAL construct's lock cell shares a page with the engine's
  // team cells, which only a failure-aware team operation writes. Init
  // clears either only when it holds stale bytes, so a fault-free image
  // reads that page but never writes it, and it stays the kernel's zero
  // page. The collective cells, which init zeroes, are written. Segments
  // of 40 MiB are fresh zero mappings (see the test below); huge pages
  // are turned off on them so that one write faults in only its own page.
  constexpr int kImages = 4;
  constexpr std::size_t kHeap = std::size_t{40} << 20;
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto page_of = [page](const std::byte* p) {
    return reinterpret_cast<std::uintptr_t>(p) / page;
  };
  for (const Stack stack : caftest::kAllStacks) {
    SCOPED_TRACE(caftest::to_string(stack));
    Harness h(stack, kImages, {}, kHeap);
    h.run(
        [&] {
          auto& rt = h.rt();
          const int me0 = rt.conduit().rank();
          std::byte* seg = rt.conduit().segment(me0);
          const std::uintptr_t lo = page_of(seg) * page;
          EXPECT_EQ(madvise(reinterpret_cast<void*>(lo),
                            reinterpret_cast<std::uintptr_t>(seg) + kHeap - lo,
                            MADV_NOHUGEPAGE),
                    0);
          rt.init();
          rt.sync_all();
          const caf::CollectiveEngine& eng = *rt.coll_engine();
          const std::byte* crit = seg + rt.critical_offset();
          const std::byte* team = seg + eng.team_area_offset();
          EXPECT_EQ(page_of(crit), page_of(team));
          EXPECT_FALSE(privately_written(team)) << "image " << me0 + 1;
          EXPECT_TRUE(privately_written(seg + eng.staging_offset()))
              << "image " << me0 + 1;
        },
        /*auto_init=*/false);
  }
}

TEST(CollFootprint, SmallCollectivesTouchOnePageOfStaging) {
  // Flag cells and small-payload slots are packed at the head of the
  // engine's staging allocation, so an image that only takes part in small
  // collectives touches (nearly) none of the rest: at most 2 staging pages,
  // where a slot per broadcast bank 8 KiB apart would cost one page per
  // bank. 64 Stampede images are 4 nodes of 16; the images checked are
  // the non-leaders, which only receive broadcasts and results.
  //
  // Counted are the staging pages that became resident after the segment
  // was allocated (mincore before init and after the collectives): a
  // segment carved from reused malloc memory is cleared by calloc, and so
  // resident from the start. Segments of 40 MiB, above glibc's largest
  // mmap threshold, keep all but the first few fresh zero mappings.
  constexpr int kImages = 64;
  constexpr std::size_t kHeap = std::size_t{40} << 20;
  Harness h(Stack::kShmemMvapich, kImages,
            coll_opts(CollAlgo::kAuto, CollAlgo::kAuto), kHeap);
  std::vector<std::size_t> touched(kImages, 0);
  int node_size = 0;
  h.run(
      [&] {
        auto& rt = h.rt();
        const int me0 = rt.conduit().rank();
        const std::byte* seg = rt.conduit().segment(me0);
        const std::vector<unsigned char> before = residency(seg, kHeap);
        rt.init();
        for (int i = 0; i < 2 * caf::CollectiveEngine::kBcBanks; ++i) {
          std::int64_t v = me0 + i;
          rt.co_sum(&v, 1);
          EXPECT_EQ(v, kImages * (kImages - 1) / 2 + kImages * i);
          std::int64_t b = me0 == 0 ? 1000 + i : -1;
          rt.co_broadcast(&b, 1, 1);
          EXPECT_EQ(b, 1000 + i);
        }
        rt.sync_all();
        const std::vector<unsigned char> after = residency(seg, kHeap);
        const caf::CollectiveEngine& eng = *rt.coll_engine();
        node_size = eng.node_size();
        const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
        const auto base = reinterpret_cast<std::uintptr_t>(seg) & ~(page - 1);
        const auto at = [&](std::uint64_t off) {
          return (reinterpret_cast<std::uintptr_t>(seg + off) - base) / page;
        };
        const std::uint64_t off = eng.staging_offset();
        for (std::size_t p = at(off); p <= at(off + eng.staging_bytes() - 1);
             ++p) {
          if ((after[p] & 1) != 0 && (before[p] & 1) == 0) {
            ++touched[static_cast<std::size_t>(me0)];
          }
        }
      },
      /*auto_init=*/false);
  ASSERT_EQ(node_size, 16);
  std::size_t most = 0;
  for (int r = 0; r < kImages; ++r) {
    if (r % node_size == 0) continue;  // node leaders gather
    EXPECT_LE(touched[static_cast<std::size_t>(r)], 2u) << "image " << r + 1;
    most = std::max(most, touched[static_cast<std::size_t>(r)]);
  }
  // Every image waits on its staging cells, so some fresh segment must show
  // a new page; none means the measurement saw nothing.
  EXPECT_GT(most, 0u);
}
