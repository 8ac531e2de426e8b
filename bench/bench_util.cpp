#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/analyzer.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace bench {

namespace {

constexpr int kPesPerNode = 16;
constexpr int kWorldPes = 32;  // two nodes

net::Library raw_library(RawLib lib, net::Machine m) {
  switch (lib) {
    case RawLib::kShmem: return net::native_shmem(m);
    case RawLib::kGasnet: return net::Library::kGasnet;
    case RawLib::kMpi3: return net::Library::kMpi3;
  }
  return net::Library::kGasnet;
}

double latency_us(const std::vector<sim::Time>& lat, int pairs, int reps) {
  sim::Time sum = 0;
  for (int p = 0; p < pairs; ++p) sum += lat[p];
  return sim::to_us(sum) / (pairs * reps);
}

// Aggregate bandwidth over the global span: first sender released from the
// barrier to last byte delivered. Per-pair max(dt) would under-report when
// the release barrier itself staggers the senders (which message loss in
// the barrier's own traffic can do).
double aggregate_mbs(const std::vector<sim::Time>& begin,
                     const std::vector<sim::Time>& end, int pairs,
                     std::size_t bytes, int reps) {
  sim::Time first = begin[0], last = end[0];
  for (int p = 0; p < pairs; ++p) {
    first = std::min(first, begin[p]);
    last = std::max(last, end[p]);
  }
  return static_cast<double>(bytes) * reps * pairs /
         (sim::to_sec(last - first) * 1e6);
}

}  // namespace

PutResult run_put_test(RawLib lib, net::Machine machine, std::size_t bytes,
                       int pairs, int reps, const net::FaultPlan* plan) {
  const std::size_t seg = bytes * 2 + (512 << 10);
  sim::Engine engine(64 * 1024);
  net::Fabric fabric(net::machine_profile(machine), kWorldPes);
  std::unique_ptr<net::FaultInjector> injector;
  if (plan != nullptr && plan->active()) {
    injector = std::make_unique<net::FaultInjector>(
        *plan, kWorldPes, fabric.profile().cores_per_node);
    fabric.set_fault_injector(injector.get());
    injector->arm(engine);
  }
  const net::SwProfile sw = net::sw_profile(raw_library(lib, machine), machine);

  const std::vector<char> payload(bytes, 'x');

  PutResult out;
  switch (lib) {
    case RawLib::kShmem: {
      shmem::World world(engine, fabric, sw, seg);
      std::vector<sim::Time> lat(kWorldPes, 0);
      std::vector<sim::Time> bw_begin(kWorldPes, 0), bw_end(kWorldPes, 0);
      world.launch([&] {
        const int me = world.my_pe();
        auto* buf = static_cast<char*>(world.shmalloc(bytes));
        world.barrier_all();
        if (me < pairs) {  // senders on node 0
          const int dst = kPesPerNode + me;
          const sim::Time t0 = engine.now();
          for (int r = 0; r < reps; ++r) {
            world.putmem(buf, payload.data(), bytes, dst);
            world.quiet();
          }
          lat[me] = engine.now() - t0;
          world.barrier_all();
          bw_begin[me] = engine.now();
          for (int r = 0; r < reps; ++r) {
            world.putmem_nbi(buf, payload.data(), bytes, dst);
          }
          world.quiet();
          bw_end[me] = engine.now();
        } else {
          world.barrier_all();
        }
        world.barrier_all();
      });
      engine.run();
      out.latency_us = latency_us(lat, pairs, reps);
      out.bandwidth_mbs = aggregate_mbs(bw_begin, bw_end, pairs, bytes, reps);
      break;
    }
    case RawLib::kGasnet: {
      gasnet::World world(engine, fabric, sw, seg);
      std::vector<sim::Time> lat(kWorldPes, 0);
      std::vector<sim::Time> bw_begin(kWorldPes, 0), bw_end(kWorldPes, 0);
      const std::uint64_t off = gasnet::World::reserved_bytes();
      world.launch([&] {
        const int me = world.mynode();
        world.barrier();
        if (me < pairs) {
          const int dst = kPesPerNode + me;
          const sim::Time t0 = engine.now();
          for (int r = 0; r < reps; ++r) {
            world.put(dst, off, payload.data(), bytes);  // remotely complete
          }
          lat[me] = engine.now() - t0;
          world.barrier();
          bw_begin[me] = engine.now();
          for (int r = 0; r < reps; ++r) {
            world.put_nbi(dst, off, payload.data(), bytes);
          }
          world.wait_syncnbi_puts();
          bw_end[me] = engine.now();
        } else {
          world.barrier();
        }
        world.barrier();
      });
      engine.run();
      out.latency_us = latency_us(lat, pairs, reps);
      out.bandwidth_mbs = aggregate_mbs(bw_begin, bw_end, pairs, bytes, reps);
      break;
    }
    case RawLib::kMpi3: {
      mpi3::Window win(engine, fabric, sw, seg);
      std::vector<sim::Time> lat(kWorldPes, 0);
      std::vector<sim::Time> bw_begin(kWorldPes, 0), bw_end(kWorldPes, 0);
      const std::uint64_t off = mpi3::Window::reserved_bytes();
      win.launch([&] {
        const int me = win.rank();
        win.barrier();
        if (me < pairs) {
          const int dst = kPesPerNode + me;
          const sim::Time t0 = engine.now();
          for (int r = 0; r < reps; ++r) {
            win.put(payload.data(), bytes, dst, off);
            win.flush_all();
          }
          lat[me] = engine.now() - t0;
          win.barrier();
          bw_begin[me] = engine.now();
          for (int r = 0; r < reps; ++r) {
            win.put(payload.data(), bytes, dst, off);
          }
          win.flush_all();
          bw_end[me] = engine.now();
        } else {
          win.barrier();
        }
        win.barrier();
      });
      engine.run();
      out.latency_us = latency_us(lat, pairs, reps);
      out.bandwidth_mbs = aggregate_mbs(bw_begin, bw_end, pairs, bytes, reps);
      break;
    }
  }
  return out;
}

PutResult run_get_test(RawLib lib, net::Machine machine, std::size_t bytes,
                       int pairs, int reps) {
  const std::size_t seg = bytes * 2 + (512 << 10);
  sim::Engine engine(64 * 1024);
  net::Fabric fabric(net::machine_profile(machine), kWorldPes);
  const net::SwProfile sw = net::sw_profile(raw_library(lib, machine), machine);
  std::vector<char> sink(bytes);
  PutResult out;
  std::vector<sim::Time> lat(kWorldPes, 0);

  auto finish = [&] {
    sim::Time lat_sum = 0;
    for (int p = 0; p < pairs; ++p) lat_sum += lat[p];
    out.latency_us = sim::to_us(lat_sum) / (pairs * reps);
    out.bandwidth_mbs =
        static_cast<double>(bytes) / (out.latency_us * 1e-6) / 1e6;
  };

  switch (lib) {
    case RawLib::kShmem: {
      shmem::World world(engine, fabric, sw, seg);
      world.launch([&] {
        const int me = world.my_pe();
        auto* buf = static_cast<char*>(world.shmalloc(bytes));
        world.barrier_all();
        if (me < pairs) {
          const int src = kPesPerNode + me;
          const sim::Time t0 = engine.now();
          for (int r = 0; r < reps; ++r) {
            world.getmem(sink.data(), buf, bytes, src);
          }
          lat[me] = engine.now() - t0;
        }
        world.barrier_all();
      });
      engine.run();
      finish();
      break;
    }
    case RawLib::kGasnet: {
      gasnet::World world(engine, fabric, sw, seg);
      const std::uint64_t off = gasnet::World::reserved_bytes();
      world.launch([&] {
        const int me = world.mynode();
        world.barrier();
        if (me < pairs) {
          const int src = kPesPerNode + me;
          const sim::Time t0 = engine.now();
          for (int r = 0; r < reps; ++r) {
            world.get(sink.data(), src, off, bytes);
          }
          lat[me] = engine.now() - t0;
        }
        world.barrier();
      });
      engine.run();
      finish();
      break;
    }
    case RawLib::kMpi3: {
      mpi3::Window win(engine, fabric, sw, seg);
      const std::uint64_t off = mpi3::Window::reserved_bytes();
      win.launch([&] {
        const int me = win.rank();
        win.barrier();
        if (me < pairs) {
          const int src = kPesPerNode + me;
          const sim::Time t0 = engine.now();
          for (int r = 0; r < reps; ++r) {
            win.get(sink.data(), bytes, src, off);
          }
          lat[me] = engine.now() - t0;
        }
        win.barrier();
      });
      engine.run();
      finish();
      break;
    }
  }
  return out;
}

double geomean_ratio(const std::vector<double>& a,
                     const std::vector<double>& b) {
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::log(a[i] / b[i]);
  return std::exp(acc / static_cast<double>(a.size()));
}

void obs_report(const char* label) {
  if (!obs::enabled()) return;
  obs::sync_engine_counters();
  const obs::Attribution attr = obs::analyze();
  std::printf("\n--- wall-time attribution: %s ---\n", label);
  std::printf("%s", attr.table().c_str());
  const sim::EngineStats es = sim::last_engine_stats();
  if (es.events > 0) {
    std::printf(
        "engine: %llu events, %llu switches, %.4f heap-slabs/kevent, "
        "%.1f MiB peak stacks\n",
        static_cast<unsigned long long>(es.events),
        static_cast<unsigned long long>(es.switches),
        1000.0 * static_cast<double>(es.event_slab_allocs) /
            static_cast<double>(es.events),
        static_cast<double>(es.stack_bytes_peak) / (1024.0 * 1024.0));
  }
  if (!obs::config().trace_path.empty() && obs::write_chrome_trace()) {
    std::printf("chrome trace written to %s\n",
                obs::config().trace_path.c_str());
  }
}

namespace {

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

int g_check_failures = 0;

}  // namespace

Record Record::array() {
  Record r;
  r.array_ = true;
  return r;
}

Record& Record::put(std::string key, std::string text) {
  Record item;
  item.key_ = std::move(key);
  item.text_ = std::move(text);
  items_.push_back(std::move(item));
  return *this;
}

Record& Record::add(std::string key, std::string_view s) {
  return put(std::move(key), quote(s));
}

Record& Record::add(std::string key, double v, int precision) {
  char text[512];
  std::snprintf(text, sizeof text, "%.*f", precision, v);
  return put(std::move(key), text);
}

Record& Record::add(std::string key, Record v) {
  v.key_ = std::move(key);
  items_.push_back(std::move(v));
  return *this;
}

std::string Record::dump(int indent) const {
  if (!text_.empty()) return text_;
  const bool one_line =
      indent > 0 && std::all_of(items_.begin(), items_.end(),
                                [](const Record& r) { return !r.text_.empty(); });
  std::string out(1, array_ ? '[' : '{');
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += one_line ? ", " : ",";
    if (!one_line) out.append(1, '\n').append(indent + 2, ' ');
    if (!array_) out.append(quote(items_[i].key_)).append(": ");
    out += items_[i].dump(indent + 2);
  }
  if (!one_line && !items_.empty()) out.append(1, '\n').append(indent, ' ');
  out += array_ ? ']' : '}';
  return out;
}

void Record::write(const char* path) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "%s\n", dump(0).c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

void check(bool ok, const std::string& where, const char* what) {
  if (!ok) {
    std::printf("FAIL [%s]: %s\n", where.c_str(), what);
    ++g_check_failures;
  }
}

int check_failures() { return g_check_failures; }

}  // namespace bench
