// main.cpp — the `pb` benchmark binary.
//
//   pb run --workload W --seed N --seconds S --trace 0|1
//          --work-dir DIR [--trace-out FILE]
//   pb opstream --workload W --seed N --seconds S   (prints the hash)
//   pb serve --uds PATH [--state-file PATH]         (server child)
//
// perfbench/run.py builds this binary and calls `pb run`.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pb run --workload W --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE]\n"
               "       pb opstream --workload W --seed N --seconds S\n"
               "       pb serve --uds PATH [--state-file PATH]\n"
               "workloads: rpc_spread rpc_wake rpc_durable engine_broadcast\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "serve") return pb::serve_main(argc - 2, argv + 2);
  if (cmd != "run" && cmd != "opstream") return usage();

  ::signal(SIGPIPE, SIG_IGN);
  pb::RunArgs a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return usage();
  }
  if (!pb::is_rpc_workload(a.workload) && a.workload != "engine_broadcast") {
    return usage();
  }
  if (!(a.seconds > 0)) return usage();
  if (cmd == "opstream") {
    const std::uint64_t h =
        pb::is_rpc_workload(a.workload)
            ? pb::rpc_opstream_hash(a.workload, a.seed, a.seconds)
            : pb::engine_opstream_hash(a.seed, a.seconds);
    std::printf("%016llx\n", static_cast<unsigned long long>(h));
    return 0;
  }
  if (a.work_dir.empty()) return usage();
  pb::info("build compiler=%s type=%s", PB_COMPILER, PB_BUILD_TYPE);
  try {
    return pb::is_rpc_workload(a.workload) ? pb::rpc_main(a) : pb::engine_main(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb: %s\n", e.what());
    return 1;
  }
}
