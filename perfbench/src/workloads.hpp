// workloads.hpp — entry points of the `pb` subcommands and the shared
// pieces of the per-layer ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch directory inside the checkout
  std::string trace_out;  ///< Chrome trace JSON path (traced runs)
};

int serve_main(int argc, char** argv);
bool is_rpc_workload(const std::string& name);
int rpc_main(const RunArgs& args);
int engine_main(const RunArgs& args);

/// FNV-1a hash of the ops a workload issues for `seed` (the encoded
/// request frames with counter indices in place of ids, plus their
/// schedule; for engine_broadcast the item payloads), for the
/// seed-determinism test.
std::uint64_t rpc_opstream_hash(const std::string& workload,
                                std::uint64_t seed, double seconds);
std::uint64_t engine_opstream_hash(std::uint64_t seed, double seconds);

// ---- layer probes (layers.cpp) --------------------------------------
// Each times one layer's public functions directly, outside any load.

struct CoreTimes {
  double increment_ns = 0;
  double check_fast_ns = 0;
  double onreach_arm_ns = 0;
  double onreach_fire_ns = 0;
};
/// make_counter(`spec`) with 16 live OnReach levels, as a server
/// counter carries under rpc_wake.
CoreTimes time_core(const std::string& spec);

/// ThreadPoolExecutor::post -> run latency (median, us) with the
/// server's default worker count.
double time_post_hop_us(std::size_t workers);

struct StateFileTimes {
  double append_fsync_us = 0;    ///< record encode + write_all + fsync
  double snapshot_save_ms = 0;   ///< save_snapshot of `counters` records
  double restore_ms = 0;         ///< load_snapshot + load_journal
  double increment_record_bytes = 0;
};
/// Times the state_file layer in `dir`.  restore_ms reads
/// `restore_from` (snapshot path; its journal beside it) when given,
/// else the snapshot this probe just saved.
StateFileTimes time_state_file(const std::string& dir, std::size_t counters,
                               const std::string& restore_from);

}  // namespace pb
