// policy_sweep — drive any counter spec from the command line.
//
//   policy_sweep [spec] [--writers=N] [--items=N] [--timeout-ms=N]
//
// The spec string selects the wait policy, value plane and wait index
// at runtime ("hybrid", "list,pool=0", "sharded:4+futex", ...); `--help`
// prints the grammar.  The program fans N writers over
// the counter, registers an OnReach milestone callback at every
// quarter of the total, and has the main thread follow progress with
// timed CheckFor probes — the three faces of the unified engine
// (blocking Check, timed CheckFor, async OnReach) through one
// type-erased handle.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/counter_stats.hpp"
#include "monotonic/support/cli.hpp"
#include "monotonic/threads/structured.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace monotonic;
  const CliArgs args(argc, argv);
  if (args.has_flag("help")) {
    std::printf(
        "usage: %s [spec] [--writers=N] [--items=N] [--timeout-ms=N]\n"
        "spec grammar: %s\n",
        args.program().c_str(), std::string(counter_spec_help()).c_str());
    return 0;
  }
  const std::string spec = args.positional_str(0, "hybrid");
  const auto writers =
      static_cast<int>(args.option_u64("writers").value_or(4));
  const counter_value_t items = args.option_u64("items").value_or(100000);
  const std::chrono::milliseconds probe_timeout(
      args.option_u64("timeout-ms").value_or(5));

  auto counter = make_counter(spec);
  std::printf("spec: %s (canonical), kind: %s\n", counter->spec().c_str(),
              std::string(to_string(counter->kind())).c_str());

  const counter_value_t total = static_cast<counter_value_t>(writers) * items;
  std::atomic<int> milestones_fired{0};
  for (int quarter = 1; quarter <= 4; ++quarter) {
    const counter_value_t level = total * quarter / 4;
    counter->OnReach(level, [&milestones_fired, quarter, level] {
      milestones_fired.fetch_add(1, std::memory_order_relaxed);
      std::printf("  milestone %d/4 reached (level %llu)\n", quarter,
                  static_cast<unsigned long long>(level));
    });
  }

  std::vector<std::function<void()>> bodies;
  for (int w = 0; w < writers; ++w) {
    bodies.emplace_back([&] {
      for (counter_value_t i = 0; i < items; ++i) counter->Increment(1);
    });
  }
  bodies.emplace_back([&] {
    int probes = 0;
    while (!counter->CheckFor(total, probe_timeout)) ++probes;
    std::printf("  reader: %d timed probes before the total landed\n",
                probes);
  });
  multithreaded(std::move(bodies), Execution::kMultithreaded);

  counter->Check(total);  // plain blocking Check: passes immediately now
  std::printf("value %llu, milestones %d\n",
              static_cast<unsigned long long>(counter->debug_value()),
              milestones_fired.load());
  // Auto-width stats table: columns line up at any magnitude, and the
  // stripe columns appear only when the spec is sharded.
  std::printf("%s", counter_stats_table(
                        {{counter->spec(), counter->stats()}})
                        .to_string()
                        .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
