// Shared infrastructure for the figure/table harnesses: raw-conduit put
// testers (SHMEM / GASNet / MPI-3) for the Figures 2-3 motivation study,
// small table-formatting helpers, and the `--json` record writer and
// self-check counter the harnesses share.
//
// Measurement conventions (PGAS Microbenchmark suite style, §III/§V-B):
//   * pairs span two nodes: PE p (node 0) is paired with PE 16+p (node 1);
//   * latency  = mean time of one remotely-complete put, 1 pair active;
//   * bandwidth = payload * reps / elapsed with `reps` pipelined puts
//     completed by one quiet, for 1 or 16 concurrently active pairs.
#pragma once

#include <concepts>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gasnet/gasnet.hpp"
#include "mpi3/rma.hpp"
#include "net/fault.hpp"
#include "net/profiles.hpp"
#include "shmem/world.hpp"

namespace bench {

/// The raw one-sided libraries compared in Figures 2-3.
enum class RawLib { kShmem, kGasnet, kMpi3 };

inline std::string raw_lib_name(RawLib lib, net::Machine m) {
  switch (lib) {
    case RawLib::kShmem:
      return m == net::Machine::kStampede ? "MVAPICH2-X SHMEM" : "Cray SHMEM";
    case RawLib::kGasnet:
      return "GASNet";
    case RawLib::kMpi3:
      return m == net::Machine::kStampede ? "MVAPICH2-X MPI-3.0" : "Cray MPICH";
  }
  return "?";
}

struct PutResult {
  double latency_us = 0;   ///< per-op, remotely complete
  double bandwidth_mbs = 0;///< aggregate across active pairs, MB/s
};

/// Runs the pair put test for one library / machine / size / pair count.
/// With a non-null, active `plan`, a FaultInjector drives the fabric for
/// the whole run (the fault_sweep harness: bandwidth under message loss).
PutResult run_put_test(RawLib lib, net::Machine machine, std::size_t bytes,
                       int pairs, int reps,
                       const net::FaultPlan* plan = nullptr);

/// Same harness for blocking gets (round-trip latency; pipelined bandwidth
/// is not meaningful for blocking gets, so bandwidth here is per-op
/// payload/latency).
PutResult run_get_test(RawLib lib, net::Machine machine, std::size_t bytes,
                       int pairs, int reps);

/// Prints a CSV-ish row set header.
inline void print_series_header(const char* xlabel,
                                const std::vector<std::string>& series) {
  std::printf("%-14s", xlabel);
  for (const auto& s : series) std::printf(" %22s", s.c_str());
  std::printf("\n");
}

inline void print_row(double x, const std::vector<double>& ys,
                      const char* fmt = "%22.2f") {
  std::printf("%-14.0f", x);
  for (double y : ys) std::printf(" "), std::printf(fmt, y);
  std::printf("\n");
}

/// Geometric mean of pairwise ratios a[i]/b[i]; the "average X% improvement"
/// statistic the paper quotes.
double geomean_ratio(const std::vector<double>& a, const std::vector<double>& b);

/// Prints the obs critical-path attribution table for the current trace
/// session under `label`, and writes the Chrome trace when an output path
/// is configured (CAF_TRACE=<path>). No-op while tracing is disabled.
/// Call it after the instrumented run, before any new Fabric is
/// constructed (fabric construction resets the session).
void obs_report(const char* label);

/// One bench record: an ordered JSON value (object or array) built member
/// by member and written to a harness's `--json` path. Scalars are rendered
/// when added: integers exactly, floats at the precision the caller gives.
/// A nested record of scalars prints on one line, so each row of a series
/// is one line of the file.
class Record {
 public:
  Record() = default;  ///< an empty object
  static Record array();

  // Object members, in insertion order; push() appends array elements.
  template <std::integral T>
  Record& add(std::string key, T v) {
    return put(std::move(key), std::to_string(v));
  }
  Record& add(std::string key, std::string_view s);
  Record& add(std::string key, double v, int precision);
  Record& add(std::string key, Record v);
  Record& push(std::string_view s) { return add({}, s); }
  Record& push(Record v) { return add({}, std::move(v)); }

  /// Writes the record to `path` and prints "wrote PATH"; exits with
  /// status 1 when the file cannot be opened.
  void write(const char* path) const;

 private:
  Record& put(std::string key, std::string text);
  std::string dump(int indent) const;

  std::string key_;   ///< member name inside an object
  std::string text_;  ///< rendered scalar; empty for an object or array
  bool array_ = false;
  std::vector<Record> items_;
};

/// Command-line helpers: whether `flag` is present, and the value after
/// it (nullptr when absent).
bool has_flag(int argc, char** argv, const char* flag);
const char* flag_value(int argc, char** argv, const char* flag);

/// A harness self-check: prints "FAIL [where]: what" and counts the
/// violation when `ok` is false. A self-checking harness exits non-zero
/// when check_failures() is above 0.
void check(bool ok, const std::string& where, const char* what);
int check_failures();

}  // namespace bench
