// any_counter.cpp — kind names and the spec-string factory.
//
// The recursive builder is the interesting part: every decorator layer
// wraps the layer beneath it through AnyHandle, so the same generic
// templates (Traced<C>, Batching<C>) serve both compile-time
// composition and runtime spec strings.
//
// Removed knobs still parse, because server state files record raw
// specs: overload=spin folds to overload=block, max_levels=L to
// max_waiters=min(W, L), pool_size=N is ignored and a broadcast layer
// is dropped.  Canonical specs never print them.
//
// A "sharded[:N]" prefix is not a decorator: it selects the striped
// value plane *inside* the base counter (BasicCounter<Policy,
// StripedPlane>), so it is parsed off the front before the base and
// re-printed first in the canonical spec.  An explicit ":N" is always
// printed; the auto stripe count (sized from hardware_concurrency) is
// never printed, so canonical specs stay machine-independent.
//
// Spec errors throw std::invalid_argument with a message naming the
// offending token — "hybrid+traced+traced" reports the duplicated
// 'traced', not a generic parse failure — because specs arrive from
// command lines and config files where "something was wrong" is
// useless.

#include "monotonic/core/any_counter.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "monotonic/core/broadcast_counter.hpp"
#include "monotonic/core/completion.hpp"
#include "monotonic/core/counter.hpp"
#include "monotonic/core/counter_decorator.hpp"
#include "monotonic/core/futex_counter.hpp"
#include "monotonic/core/hybrid_counter.hpp"
#include "monotonic/core/shared_counter.hpp"
#include "monotonic/core/spin_counter.hpp"
#include "monotonic/support/trace.hpp"

namespace monotonic {

std::string_view to_string(CounterKind kind) {
  switch (kind) {
    case CounterKind::kList:
      return "list";
    case CounterKind::kListNoPool:
      return "list-nopool";
    case CounterKind::kSingleCv:
      return "single-cv";
    case CounterKind::kFutex:
      return "futex";
    case CounterKind::kSpin:
      return "spin";
    case CounterKind::kHybrid:
      return "hybrid";
    case CounterKind::kShared:
      return "shared";
  }
  return "?";
}

CounterKind counter_kind_from_string(std::string_view name) {
  for (CounterKind k : all_counter_kinds()) {
    if (to_string(k) == name) return k;
  }
  throw std::invalid_argument("unknown counter kind '" + std::string(name) +
                              "'");
}

const std::vector<CounterKind>& all_counter_kinds() {
  static const std::vector<CounterKind> kinds = {
      CounterKind::kList,  CounterKind::kListNoPool, CounterKind::kSingleCv,
      CounterKind::kFutex, CounterKind::kSpin,       CounterKind::kHybrid};
  return kinds;
}

std::string_view counter_spec_help() {
  return "[sharded[:N]+][pooled[:N]+]kind[,opt=val...]"
         "[+decorator[,opt=val...]]... — kinds: list, list-nopool, "
         "single-cv, futex, spin, hybrid; sharded[:N] stripes the value "
         "plane (bare 'sharded' = sharded+hybrid); pooled[:N] "
         "preallocates N wait nodes (default 64; bare 'pooled' = "
         "pooled+hybrid); base opts: pool=0|1, max_waiters=N, "
         "overload=throw|block, "
         "waitplane=heap:S (S = level shards of the wait index, "
         "1..64; bare list|heap = one shard), "
         "executor=inline|pool[:N] (where OnReach callbacks run: inline "
         "on the incrementing thread — the default — or a completion "
         "thread pool of N workers, default 1); "
         "decorators: traced, batching[,batch=N] (each at most once); "
         "old specs still parse: overload=spin = overload=block, "
         "max_levels=L = max_waiters=min(N,L), pool_size=N and "
         "+broadcast[,shards=N] are dropped; "
         "cross-process: shared:/name[,detect=MS]"
         "[,stale=MS][+futex] attaches every process naming the same "
         "/name to one shm-backed counter (detect = death-detector "
         "period, default 100 ms; stale = opt-in heartbeat staleness "
         "backstop, default off; '+futex' is accepted and redundant — "
         "the shared wait plane is always the futex word)";
}

namespace {

/// All spec diagnostics funnel through here so every failure names the
/// token that caused it and carries the same exception type as
/// MC_REQUIRE (std::invalid_argument).
[[noreturn]] void spec_error(const std::string& msg) {
  throw std::invalid_argument("counter spec: " + msg);
}

struct SpecPart {
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;
};

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

std::vector<SpecPart> parse_spec(std::string_view spec) {
  std::vector<SpecPart> parts;
  for (const std::string& chunk : split(spec, '+')) {
    const std::vector<std::string> tokens = split(chunk, ',');
    if (tokens.empty() || tokens.front().empty()) {
      spec_error("empty component in '" + std::string(spec) + "'");
    }
    SpecPart part;
    part.name = tokens.front();
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::string& tok = tokens[i];
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size()) {
        spec_error("option '" + tok + "' must be key=value");
      }
      part.options.emplace_back(trim(tok.substr(0, eq)),
                                trim(tok.substr(eq + 1)));
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

std::uint64_t parse_uint(const std::string& key, const std::string& value) {
  if (value.empty()) spec_error("option '" + key + "' needs a numeric value");
  std::uint64_t out = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      spec_error("option '" + key + "' value '" + value + "' is not numeric");
    }
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return out;
}

/// Value-independent monotone-predicate reduction (the same gallop +
/// bisect BasicCounter::predicate_level runs), for adapters whose
/// wrapped counter lacks a native Check(pred) — currently the shared
/// counter, whose predicate support lives process-side.
counter_value_t reduce_predicate(
    const std::function<bool(counter_value_t)>& pred, counter_value_t cap) {
  if (pred(0)) return 0;
  MC_REQUIRE(pred(cap),
             "Check(pred): predicate is false at the maximum counter "
             "value, so it can never be signalled (is it monotone?)");
  counter_value_t lo = 0;
  counter_value_t hi = 1;
  while (hi < cap && !pred(hi)) {
    lo = hi;
    hi = hi <= cap / 2 ? hi * 2 : cap;
  }
  while (hi - lo > 1) {
    const counter_value_t mid = lo + (hi - lo) / 2;
    (pred(mid) ? hi : lo) = mid;
  }
  return hi;
}

bool is_shard_token(const std::string& name) {
  return name == "sharded" || name.rfind("sharded:", 0) == 0;
}

bool is_pool_token(const std::string& name) {
  return name == "pooled" || name.rfind("pooled:", 0) == 0;
}

struct ShardPrefix {
  bool sharded = false;
  std::size_t stripes = 0;  ///< 0 = auto (hardware_concurrency)
};

/// Consumes a leading "sharded" / "sharded:N" component.  Bare
/// "sharded" with nothing after it means "sharded+hybrid", so a hybrid
/// base part is synthesized in that case.
ShardPrefix take_shard_prefix(std::vector<SpecPart>& parts) {
  ShardPrefix out;
  if (parts.empty() || !is_shard_token(parts.front().name)) return out;
  const SpecPart part = std::move(parts.front());
  parts.erase(parts.begin());
  out.sharded = true;
  if (!part.options.empty()) {
    spec_error(
        "'sharded' takes no key=value options; fix the stripe count "
        "with 'sharded:N'");
  }
  if (part.name != "sharded") {
    const std::string digits =
        part.name.substr(std::string("sharded:").size());
    const std::uint64_t n = parse_uint("sharded:N", digits);
    if (n < 1) spec_error("'" + part.name + "' needs at least one stripe");
    out.stripes = static_cast<std::size_t>(n);
  }
  if (parts.empty()) {
    SpecPart hybrid;
    hybrid.name = "hybrid";
    parts.push_back(std::move(hybrid));
  }
  return out;
}

struct PoolPrefix {
  bool pooled = false;
  std::size_t nodes = 0;
};

/// Consumes a leading "pooled" / "pooled:N" component (after any shard
/// prefix — canonical order is sharded+pooled+base).  Bare "pooled"
/// preallocates the default 64 nodes; like bare "sharded", a spec that
/// ends at the prefix synthesizes a hybrid base.
PoolPrefix take_pool_prefix(std::vector<SpecPart>& parts) {
  PoolPrefix out;
  if (parts.empty() || !is_pool_token(parts.front().name)) return out;
  const SpecPart part = std::move(parts.front());
  parts.erase(parts.begin());
  out.pooled = true;
  out.nodes = 64;
  if (!part.options.empty()) {
    spec_error(
        "'pooled' takes no key=value options; fix the node count with "
        "'pooled:N'");
  }
  if (part.name != "pooled") {
    const std::string digits = part.name.substr(std::string("pooled:").size());
    const std::uint64_t n = parse_uint("pooled:N", digits);
    if (n < 1) spec_error("'" + part.name + "' needs at least one node");
    out.nodes = static_cast<std::size_t>(n);
  }
  if (parts.empty()) {
    SpecPart hybrid;
    hybrid.name = "hybrid";
    parts.push_back(std::move(hybrid));
  }
  return out;
}

/// Satellite check run before any layer is built: every decorator must
/// be a known name and appear at most once, and 'sharded' cannot ride
/// in decorator position.  Reported by token so "hybrid+traced+traced"
/// and "hybrid+tarced" both say exactly what's wrong.
void validate_decorators(const std::vector<SpecPart>& parts) {
  std::vector<std::string> seen;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& name = parts[i].name;
    if (is_shard_token(name)) {
      spec_error("'" + name + "' must be the first component of a spec");
    }
    if (is_pool_token(name)) {
      spec_error("'" + name +
                 "' must come before the base (after any 'sharded' prefix)");
    }
    if (name != "traced" && name != "batching" && name != "broadcast") {
      spec_error("unknown decorator '" + name + "'");
    }
    // A removed broadcast layer is dropped (make_counter), but only
    // with the options it used to accept.
    if (name == "broadcast") {
      for (const auto& [key, value] : parts[i].options) {
        if (key != "shards" || parse_uint(key, value) < 1) {
          spec_error("'broadcast' takes only shards=N, N >= 1");
        }
      }
    }
    for (const std::string& s : seen) {
      if (s == name) spec_error("duplicate decorator '" + name + "'");
    }
    seen.push_back(name);
  }
}

struct BaseConfig {
  CounterKind kind;
  bool sharded = false;
  /// Workers of the completion pool; 0 = inline delivery (the default,
  /// never printed).  The executor itself lives in options — this is
  /// the number canonical_base() re-prints.
  std::size_t executor_pool_threads = 0;
  /// True when the spec named an executor explicitly (even
  /// "executor=inline") — an ambient default executor passed to
  /// make_counter(spec, executor) must not override it.
  bool executor_explicit = false;
  WaitListOptions options;
};

BaseConfig parse_base(const SpecPart& part, const ShardPrefix& shard,
                      const PoolPrefix& pool) {
  BaseConfig cfg;
  cfg.kind = counter_kind_from_string(part.name);
  cfg.sharded = shard.sharded;
  cfg.options.stripes = shard.stripes;
  cfg.options.preallocated_nodes = pool.pooled ? pool.nodes : 0;
  if (cfg.kind == CounterKind::kListNoPool) cfg.options.pool_nodes = false;
  std::size_t max_levels = 0;  // removed knob: folds into max_waiters
  for (const auto& [key, value] : part.options) {
    if (key == "pool") {
      cfg.options.pool_nodes = parse_uint(key, value) != 0;
    } else if (key == "pool_size") {
      parse_uint(key, value);  // removed knob: retention is a constant
    } else if (key == "max_waiters") {
      cfg.options.max_waiters = static_cast<std::size_t>(parse_uint(key, value));
    } else if (key == "max_levels") {
      max_levels = static_cast<std::size_t>(parse_uint(key, value));
    } else if (key == "overload") {
      if (value == "throw") {
        cfg.options.overload_policy = OverloadPolicy::kThrow;
      } else if (value == "block" || value == "spin") {
        cfg.options.overload_policy = OverloadPolicy::kBlockIncrementers;
      } else {
        spec_error("option 'overload' value '" + value +
                   "' is not throw|block");
      }
    } else if (key == "waitplane") {
      // waitplane=heap:S shards the level index.  Bare 'list' and
      // 'heap' mean the default one shard: state files recorded before
      // the list plane was removed still name them.  The list never
      // sharded, so 'list:S' stays a named error.
      if (value == "list" || value == "heap") {
        cfg.options.wait_shards = 0;
      } else if (value.rfind("heap:", 0) == 0) {
        const std::uint64_t n =
            parse_uint("waitplane=heap:S", value.substr(5));
        if (n < 1) {
          spec_error("'waitplane=" + value + "' needs at least one shard");
        }
        if (n > kMaxWaitShards) {
          spec_error("'waitplane=" + value + "' exceeds the shard cap (" +
                     std::to_string(kMaxWaitShards) +
                     ", like the striped plane's stripe clamp)");
        }
        cfg.options.wait_shards = static_cast<std::size_t>(n);
      } else if (value.rfind("list:", 0) == 0) {
        spec_error("'waitplane=" + value +
                   "' — the list plane does not shard; use waitplane=heap:" +
                   value.substr(5));
      } else {
        spec_error("option 'waitplane' value '" + value +
                   "' is not list|heap[:S]");
      }
    } else if (key == "executor") {
      // executor=inline | executor=pool[:N] — the completion plane.
      cfg.executor_explicit = true;
      if (value == "inline") {
        cfg.executor_pool_threads = 0;
        cfg.options.completion_executor = nullptr;
      } else if (value == "pool") {
        cfg.executor_pool_threads = 1;
      } else if (value.rfind("pool:", 0) == 0) {
        const std::uint64_t n = parse_uint("executor=pool:N", value.substr(5));
        if (n < 1) {
          spec_error("'executor=" + value + "' needs at least one worker");
        }
        cfg.executor_pool_threads = static_cast<std::size_t>(n);
      } else {
        spec_error("option 'executor' value '" + value +
                   "' is not inline|pool[:N]");
      }
    } else {
      spec_error("unknown option '" + key + "' for base '" + part.name + "'");
    }
  }
  // Live levels never outnumber parked waiters, so the waiter bound
  // keeps every promise a level bound made.
  if (max_levels != 0) {
    const std::size_t w = cfg.options.max_waiters;
    cfg.options.max_waiters = w == 0 ? max_levels : std::min(w, max_levels);
  }
  if (cfg.executor_pool_threads != 0) {
    cfg.options.completion_executor =
        std::make_shared<ThreadPoolExecutor>(cfg.executor_pool_threads);
  }
  // "list,pool=0" and "list-nopool" are the same configuration; fold to
  // the named kind so canonical specs are unique.
  if (cfg.kind == CounterKind::kList && !cfg.options.pool_nodes) {
    cfg.kind = CounterKind::kListNoPool;
  } else if (cfg.kind == CounterKind::kListNoPool && cfg.options.pool_nodes) {
    cfg.kind = CounterKind::kList;
  }
  // A preallocated pool on a pool-disabled list is a contradiction: the
  // ablation's point is that every acquire pays the allocator.
  if (pool.pooled && !cfg.options.pool_nodes) {
    spec_error("'pooled' requires node pooling; drop pool=0 / use 'list'");
  }
  return cfg;
}

std::string canonical_base(const BaseConfig& cfg) {
  std::string out;
  if (cfg.sharded) {
    out += "sharded";
    // Explicit stripe counts always print; the auto count never does,
    // so canonical specs are identical across machines.
    if (cfg.options.stripes != 0) {
      out += ':' + std::to_string(cfg.options.stripes);
    }
    out += '+';
  }
  if (cfg.options.preallocated_nodes != 0) {
    // The node count always prints (even the bare-"pooled" default 64):
    // a canonical spec should say how much memory it pins.
    out += "pooled:" + std::to_string(cfg.options.preallocated_nodes) + '+';
  }
  out += to_string(cfg.kind);
  const bool default_pool = cfg.kind != CounterKind::kListNoPool;
  if (cfg.options.pool_nodes != default_pool) {
    out += cfg.options.pool_nodes ? ",pool=1" : ",pool=0";
  }
  if (cfg.options.max_waiters != 0) {
    out += ",max_waiters=" + std::to_string(cfg.options.max_waiters);
  }
  if (cfg.options.overload_policy == OverloadPolicy::kBlockIncrementers) {
    out += ",overload=block";  // kThrow is the default: never printed
  }
  if (cfg.options.wait_shards != 0) {
    // Mirrors the stripe rule: an explicit shard count always prints,
    // the default (one shard) never does.
    out += ",waitplane=heap:" + std::to_string(cfg.options.wait_shards);
  }
  if (cfg.executor_pool_threads != 0) {
    // The worker count always prints (even the bare-"pool" default 1):
    // a canonical spec should say how many threads it spawns.  Inline
    // is the default and never prints.
    out += ",executor=pool:" + std::to_string(cfg.executor_pool_threads);
  }
  return out;
}

#if !defined(_WIN32)

/// AnyCounter adapter for SharedCounter.  Not a CounterModel<C>
/// instantiation: SharedCounter is neither movable nor directly
/// constructible (factory functions only), so the member initializes
/// straight from the OpenOrCreate prvalue (guaranteed elision).
/// OpenOrCreate is the right mode for specs: "shared:/name" must work
/// in every process without coordinating which one creates.
class SharedCounterModel final : public AnyCounter {
 public:
  SharedCounterModel(std::string spec, const std::string& name,
                     SharedCounterOptions options)
      : spec_(std::move(spec)),
        impl_(SharedCounter::OpenOrCreate(name, options)) {}

  void Increment(counter_value_t amount) override { impl_.Increment(amount); }
  void Check(counter_value_t level) override { impl_.Check(level); }
  bool CheckFor(counter_value_t level,
                std::chrono::nanoseconds timeout) override {
    return impl_.CheckFor(level, timeout);
  }
  bool Check(counter_value_t level, std::stop_token stop) override {
    return impl_.Check(level, std::move(stop));
  }
  // SharedCounter has no native Check(pred) (the predicate is process-
  // local code the other side cannot run); the reduction happens here
  // and the threshold wait crosses the process boundary as usual.
  void CheckWhen(std::function<bool(counter_value_t)> pred) override {
    impl_.Check(reduce_predicate(pred, kMaxValue));
  }
  bool CheckWhen(std::function<bool(counter_value_t)> pred,
                 std::stop_token stop) override {
    return impl_.Check(reduce_predicate(pred, kMaxValue),
                       std::move(stop));
  }
  /// The shm value word read is atomic and monotone, so the debug read
  /// doubles as the sanctioned lower bound here.
  counter_value_t value_lower_bound() const override {
    return impl_.debug_value();
  }
  counter_value_t max_value() const override { return kMaxValue; }
  void OnReach(counter_value_t level, std::function<void()> fn) override {
    impl_.OnReach(level, std::move(fn));
  }
  void OnReach(counter_value_t level, std::function<void()> fn,
               std::function<void(std::exception_ptr)> on_error) override {
    impl_.OnReach(level, std::move(fn), std::move(on_error));
  }
  void Poison(std::exception_ptr cause) override {
    impl_.Poison(std::move(cause));
  }
  bool poisoned() const override { return impl_.poisoned(); }
  void Reset() override { impl_.Reset(); }
  CounterDebugSnapshot debug_snapshot() const override {
    return impl_.debug_snapshot();
  }
  counter_value_t debug_value() const override { return impl_.debug_value(); }
  CounterStatsSnapshot stats() const override { return impl_.stats(); }
  void stats_reset() override { impl_.stats_reset(); }
  std::size_t stripe_count() const override { return 1; }
  CounterKind kind() const override { return CounterKind::kShared; }
  const std::string& spec() const override { return spec_; }

 private:
  // Conservative value cap, also the predicate-reduction cap
  // (SharedCounter advertises no kMaxValue); matches
  // detail::counter_max_value's fallback bound.
  static constexpr counter_value_t kMaxValue =
      std::numeric_limits<counter_value_t>::max() >> 1;

  std::string spec_;
  SharedCounter impl_;
};

/// Parses everything after the "shared:" prefix:
///   /name[,detect=MS][,stale=MS][+futex]
/// The whole spec is the base — shared counters take no decorators
/// (each layer would be per-process state the other side can't see),
/// and the only accepted '+' suffix is the redundant 'futex' (the
/// shared wait plane IS the futex word; canonical form drops it).
std::unique_ptr<AnyCounter> make_shared_counter(std::string_view spec) {
  std::string_view rest = spec.substr(std::string_view("shared:").size());
  const std::vector<std::string> chunks = split(rest, '+');
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    if (chunks[i] != "futex") {
      spec_error("'" + chunks[i] +
                 "' cannot follow a shared counter (decorators are "
                 "per-process; only the redundant '+futex' is accepted)");
    }
  }
  const std::vector<std::string> tokens = split(chunks.front(), ',');
  const std::string& name = tokens.front();
  validate_shared_name(name);  // names the bad token on failure
  SharedCounterOptions options;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size()) {
      spec_error("option '" + tok + "' must be key=value");
    }
    const std::string key = trim(tok.substr(0, eq));
    const std::string value = trim(tok.substr(eq + 1));
    if (key == "detect") {
      const std::uint64_t ms = parse_uint(key, value);
      if (ms < 1) spec_error("'detect' needs at least 1 (milliseconds)");
      options.detect_period = std::chrono::milliseconds(ms);
    } else if (key == "stale") {
      options.heartbeat_stale_after =
          std::chrono::milliseconds(parse_uint(key, value));
    } else {
      spec_error("unknown option '" + key + "' for 'shared:'");
    }
  }
  std::string canonical = "shared:" + name;
  if (options.detect_period != SharedCounterOptions{}.detect_period) {
    canonical += ",detect=" + std::to_string(options.detect_period.count());
  }
  if (options.heartbeat_stale_after.count() != 0) {
    canonical +=
        ",stale=" + std::to_string(options.heartbeat_stale_after.count());
  }
  return std::make_unique<SharedCounterModel>(std::move(canonical), name,
                                              options);
}

#endif  // !_WIN32

std::unique_ptr<AnyCounter> make_base(const BaseConfig& cfg,
                                      std::string spec) {
  using detail::CounterModel;
  if (cfg.sharded) {
    switch (cfg.kind) {
      case CounterKind::kList:
      case CounterKind::kListNoPool:
        return std::make_unique<CounterModel<ShardedCounter>>(
            cfg.kind, std::move(spec), cfg.options);
      case CounterKind::kSingleCv:
        return std::make_unique<CounterModel<ShardedSingleCvCounter>>(
            cfg.kind, std::move(spec), cfg.options);
      case CounterKind::kFutex:
        return std::make_unique<CounterModel<ShardedFutexCounter>>(
            cfg.kind, std::move(spec), cfg.options);
      case CounterKind::kSpin:
        return std::make_unique<CounterModel<ShardedSpinCounter>>(
            cfg.kind, std::move(spec), cfg.options);
      case CounterKind::kHybrid:
        return std::make_unique<CounterModel<ShardedHybridCounter>>(
            cfg.kind, std::move(spec), cfg.options);
      case CounterKind::kShared:
        break;  // spec-only; handled before the base builder
    }
  }
  switch (cfg.kind) {
    case CounterKind::kList:
    case CounterKind::kListNoPool:
      return std::make_unique<CounterModel<Counter>>(cfg.kind, std::move(spec),
                                                     cfg.options);
    case CounterKind::kSingleCv:
      return std::make_unique<CounterModel<SingleCvCounter>>(
          cfg.kind, std::move(spec), cfg.options);
    case CounterKind::kFutex:
      return std::make_unique<CounterModel<FutexCounter>>(
          cfg.kind, std::move(spec), cfg.options);
    case CounterKind::kSpin:
      return std::make_unique<CounterModel<SpinCounter>>(
          cfg.kind, std::move(spec), cfg.options);
    case CounterKind::kHybrid:
      return std::make_unique<CounterModel<HybridCounter>>(
          cfg.kind, std::move(spec), cfg.options);
    case CounterKind::kShared:
      break;  // spec-only; handled before the base builder
  }
  MC_REQUIRE(false, "unknown counter kind");
  return nullptr;  // unreachable
}

/// Builds the base plus the first `layers` decorators of the parsed
/// spec.  `canonical` is the canonical spec up to and including that
/// layer (what the returned counter reports from spec()).
std::unique_ptr<AnyCounter> build_layers(const std::vector<SpecPart>& parts,
                                         const BaseConfig& base,
                                         std::size_t layers);

std::string canonical_layers(const std::vector<SpecPart>& parts,
                             const BaseConfig& base, std::size_t layers) {
  std::string spec = canonical_base(base);
  for (std::size_t i = 1; i <= layers; ++i) {
    const SpecPart& part = parts[i];
    spec += '+';
    if (part.name == "traced") {
      spec += "traced";
    } else if (part.name == "batching") {
      counter_value_t batch = 64;
      for (const auto& [key, value] : part.options) {
        if (key != "batch") {
          spec_error("unknown option '" + key + "' for decorator 'batching'");
        }
        batch = parse_uint(key, value);
      }
      spec += batch == 64 ? std::string("batching")
                          : "batching,batch=" + std::to_string(batch);
    } else {
      spec_error("unknown decorator '" + part.name + "'");
    }
  }
  return spec;
}

std::unique_ptr<AnyCounter> build_layers(const std::vector<SpecPart>& parts,
                                         const BaseConfig& base,
                                         std::size_t layers) {
  std::string spec = canonical_layers(parts, base, layers);
  if (layers == 0) return make_base(base, std::move(spec));

  using detail::CounterModel;
  const SpecPart& part = parts[layers];
  if (part.name == "traced") {
    return std::make_unique<CounterModel<Traced<AnyHandle>>>(
        base.kind, std::move(spec), "counter", Tracer::global(), inner_args,
        AnyHandle(build_layers(parts, base, layers - 1)));
  }
  if (part.name == "batching") {
    counter_value_t batch = 64;
    for (const auto& [key, value] : part.options) {
      if (key != "batch") {
        spec_error("unknown option '" + key + "' for decorator 'batching'");
      }
      batch = parse_uint(key, value);
    }
    return std::make_unique<CounterModel<Batching<AnyHandle>>>(
        base.kind, std::move(spec), batch, inner_args,
        AnyHandle(build_layers(parts, base, layers - 1)));
  }
  spec_error("unknown decorator '" + part.name + "'");
}

}  // namespace

std::unique_ptr<AnyCounter> make_counter(CounterKind kind) {
  if (kind == CounterKind::kShared) {
    throw std::invalid_argument(
        "counter spec: shared counters need a name; use "
        "make_counter(\"shared:/name\")");
  }
  BaseConfig cfg;
  cfg.kind = kind;
  if (kind == CounterKind::kListNoPool) cfg.options.pool_nodes = false;
  return make_base(cfg, std::string(to_string(kind)));
}

std::unique_ptr<AnyCounter> make_counter(std::string_view spec) {
  return make_counter(spec, nullptr);
}

std::unique_ptr<AnyCounter> make_counter(
    std::string_view spec,
    std::shared_ptr<CompletionExecutor> default_executor) {
  // "shared:" routes to its own parser before the '+'-split grammar:
  // the name itself contains '/' and the component is indivisible.
  // Cross-process counters deliver completions from waiter slices, not
  // an in-process executor, so the injection does not apply.
  if (spec.rfind("shared:", 0) == 0) {
#if defined(_WIN32)
    throw std::invalid_argument(
        "counter spec: 'shared:' counters require POSIX shared memory");
#else
    return make_shared_counter(spec);
#endif
  }
  std::vector<SpecPart> parts = parse_spec(spec);
  const ShardPrefix shard = take_shard_prefix(parts);
  const PoolPrefix pool = take_pool_prefix(parts);
  validate_decorators(parts);
  // A broadcast layer (removed) is dropped: every shard held the full
  // value, so the layer beneath answers every call the same way.
  std::erase_if(parts, [&](const SpecPart& p) {
    return &p != &parts.front() && p.name == "broadcast";
  });
  BaseConfig base = parse_base(parts.front(), shard, pool);
  if (!base.executor_explicit && default_executor != nullptr) {
    base.options.completion_executor = std::move(default_executor);
  }
  return build_layers(parts, base, parts.size() - 1);
}

}  // namespace monotonic
