// serve.cpp — `pb serve`: the child process that holds the engine for
// the rpc_* workloads.  It runs one CounterServer with its default
// options (only the listener path and, for rpc_durable, the state
// file are set), reports its thread ids on stdout so the parent can
// read per-thread CPU from /proc, and lives until its stdin closes or
// it is killed.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"
#include "monotonic/server/server.hpp"

namespace pb {

namespace {

std::string join_new(const std::vector<pid_t>& before,
                     const std::vector<pid_t>& after) {
  std::string out;
  for (pid_t t : after) {
    bool seen = false;
    for (pid_t b : before) seen = seen || b == t;
    if (seen) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(t);
  }
  return out.empty() ? "0" : out;
}

}  // namespace

int serve_main(int argc, char** argv) {
  monotonic::server::ServerOptions opts;
  for (int i = 0; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--uds") == 0) opts.uds_path = argv[i + 1];
    if (std::strcmp(argv[i], "--state-file") == 0) opts.state_file = argv[i + 1];
  }
  if (opts.uds_path.empty()) {
    std::fprintf(stderr, "pb serve: --uds PATH is required\n");
    return 2;
  }
  const pid_t self = ::getpid();
  const std::vector<pid_t> t0 = list_tasks(self);
  monotonic::server::CounterServer server(opts);
  const std::vector<pid_t> t1 = list_tasks(self);  // + executor workers
  server.Start();
  const std::vector<pid_t> t2 = list_tasks(self);  // + event loop
  std::printf("ready %s %s\n", join_new(t1, t2).c_str(),
              join_new(t0, t1).c_str());
  std::fflush(stdout);

  char buf[64];
  while (::read(STDIN_FILENO, buf, sizeof(buf)) > 0) {
  }
  server.Stop();
  return 0;
}

}  // namespace pb
