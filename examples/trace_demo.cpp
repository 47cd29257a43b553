// trace_demo — visualize counter dataflow with the tracing subsystem.
//
//   ./build/examples/trace_demo [items] [readers] [out.json]
//
// Runs a §5.3 writer/readers broadcast over a plain Counter with phase
// spans, prints the counter's own fast-check and suspension counts, then
// writes a Chrome trace-event file.  Open the output in chrome://tracing
// or https://ui.perfetto.dev to see the writer's phase racing ahead of
// each reader's.
//
// The trace lands next to the binary (usually under build/) so the
// demo never litters the working tree; pass --out=FILE or a third
// positional to choose another path.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "monotonic/core/counter.hpp"
#include "monotonic/support/cli.hpp"
#include "monotonic/support/trace.hpp"
#include "monotonic/threads/structured.hpp"

using namespace monotonic;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::size_t items = args.positional_u64(0, 64);
  const std::size_t readers = args.positional_u64(1, 3);
  const std::string default_out =
      (std::filesystem::path(argv[0]).parent_path() / "trace.json").string();
  const std::string out_path =
      args.option_str("out").value_or(args.positional_str(2, default_out));
  if (items < 1 || readers < 1) {
    std::fprintf(stderr, "usage: %s [items] [readers] [out.json] "
                         "[--out=file]\n",
                 argv[0]);
    return 2;
  }

  Tracer tracer;
  tracer.enable();

  std::vector<std::uint64_t> data(items);
  Counter published;

  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    Tracer::Span span(tracer, "writer");
    for (std::size_t i = 0; i < items; ++i) {
      data[i] = i * i;
      published.Increment(1);
    }
  });
  for (std::size_t r = 0; r < readers; ++r) {
    bodies.emplace_back([&] {
      Tracer::Span span(tracer, "reader");
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < items; ++i) {
        published.Check(i + 1);
        sum += data[i];
      }
      tracer.record(TraceEventKind::kInstant, "reader-done", sum);
    });
  }
  multithreaded(std::move(bodies), Execution::kMultithreaded);

  const CounterStatsSnapshot stats = published.stats();
  std::printf("%zu events: %zu increments visible, %llu fast checks, "
              "%llu suspensions\n",
              tracer.events().size(), items,
              static_cast<unsigned long long>(stats.fast_checks),
              static_cast<unsigned long long>(stats.suspensions));

  std::ofstream out(out_path);
  out << tracer.to_chrome_json();
  std::printf("wrote %s — open in chrome://tracing or ui.perfetto.dev\n",
              out_path.c_str());
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
