// server_recovery_child.cpp — the server process the crash-recovery
// suite forks, SIGKILLs, SIGTERMs and restarts.
//
// A separate exec'd binary, not a fork-without-exec, on purpose: the
// gtest parent is multi-threaded by the time the recovery tests run
// (client retry loops, chaos proxy), and constructing a CounterServer
// in a forked copy of a multi-threaded process is a locked-mutex
// lottery.  exec resets the world.
//
//   server_recovery_child <uds_path> <state_file> [--no-fsync]
//
// Runs a persistent, SIGTERM-drainable server until a drain completes
// (exit 0).  SIGKILL is the other way out — that is the test's job.
// An empty <state_file> runs it in memory only; server_test measures
// such a child's footprint.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "monotonic/server/server.hpp"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <uds_path> <state_file> [--no-fsync]\n", argv[0]);
    return 2;
  }
  monotonic::server::ServerOptions opts;
  opts.uds_path = argv[1];
  opts.state_file = argv[2];
  opts.drain_on_sigterm = true;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-fsync") == 0) opts.journal_fsync = false;
  }
  monotonic::server::CounterServer server(std::move(opts));
  server.Start();
  while (!server.drained()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return 0;
}
