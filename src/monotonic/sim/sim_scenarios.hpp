// sim_scenarios.hpp — the scenario corpus the explorer drives.
//
// Each scenario is a small deterministic program over SimHarness: it
// builds counters, spawns virtual threads that race through the wait
// engine, and asserts invariants that must hold under EVERY schedule.
// The interesting interleavings are not written down — the seeded
// scheduler finds them by permuting the engine's schedule points.
//
// Two kinds of entries:
//
//   * expect_failure == false — invariant scenarios.  Any failing seed
//     is an engine bug; the seed goes into tests/sim_seeds/ once fixed
//     so it replays forever.
//
//   * expect_failure == true — self-validation MODELS.  Each one
//     deliberately reintroduces a known historical bug (a relaxed
//     watermark store, a dropped notify, a poison sweep that skips
//     timed waiters) in a local copy of the relevant component, and
//     the explorer must find a failing seed within its budget.  They
//     are the harness's own regression tests: if a refactor of the
//     simulator stops finding these, the harness — not the engine —
//     has lost its teeth.
//
// Scenario rules (determinism):
//   * no real clocks, no real randomness, no thread_local state;
//   * spawn order is fixed (stripe slots come from vthread ids);
//   * striped scenarios pin options.stripes explicitly — the
//     hardware default would vary by machine;
//   * both outcomes of a race must be accepted unless the scenario
//     synchronizes them away (e.g. a cancelled Check may legitimately
//     return true if the release wins).
#pragma once

#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "monotonic/core/basic_counter.hpp"
#include "monotonic/core/completion.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/core/multi.hpp"
#include "monotonic/core/striped_cells.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/sim/fault_env.hpp"
#include "monotonic/sim/sim_counters.hpp"
#include "monotonic/sim/sim_harness.hpp"

namespace monotonic::sim {

// ---------------------------------------------------------------------------
// Invariant scenarios
// ---------------------------------------------------------------------------

/// Check-vs-increment at the release boundary: a waiter parks for 3
/// while two incrementers deliver 2 + 1.  Under every schedule the
/// waiter must wake (the sum crosses its level exactly once) and the
/// engine must end structurally clean.
template <typename C>
void boundary_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  h.thread("waiter", [&] {
    c.Check(3);
    h.check(c.debug_value() >= 3, "woken below level");
  });
  h.thread("inc-a", [&] { c.Increment(2); });
  h.thread("inc-b", [&] { c.Increment(1); });
  h.join();
  h.check(c.debug_value() == 3, "final value != 3");
  h.check(c.stats().live_nodes == 0, "wait node leaked");
}

/// Timed check racing a too-late increment: the waiter asks for 3
/// within 10ms but the last unit arrives at t=20ms.  The wait must
/// time out, and — virtual time being exact — must not overshoot its
/// deadline (the satellite-2 clamp property, asserted end to end).
template <typename C>
void timed_check_boundary_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  h.thread("waiter", [&] {
    const std::int64_t start = h.now_ns();
    const bool ok = c.CheckFor(3, std::chrono::milliseconds(10));
    const std::int64_t waited_ms = (h.now_ns() - start) / 1000000;
    h.check(!ok, "CheckFor(3, 10ms) reported success before the value");
    h.check(waited_ms >= 10, "timed out before the deadline");
    h.check(waited_ms <= 11, "overshot the deadline");
    h.check(c.debug_value() < 3, "timed out with the level reached");
  });
  h.thread("inc", [&] {
    c.Increment(2);
    h.sleep_ms(20);
    c.Increment(1);
  });
  h.join();
  h.check(c.debug_value() == 3, "final value != 3");
}

/// Cancellation nudge racing the real release: whichever wins, the
/// waiter must return (true iff released), and the wait list must be
/// structurally empty afterwards.
template <typename C>
void cancel_vs_wake_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  auto& ss = h.make<std::stop_source>();
  h.thread("waiter", [&] {
    const bool ok = c.Check(2, ss.get_token());
    if (ok) h.check(c.debug_value() >= 2, "Check(2) true below level");
  });
  h.thread("inc", [&] { c.Increment(2); });
  h.thread("canceller", [&] { ss.request_stop(); });
  h.join();
  c.Check(2);  // value is 2: must return immediately, parked or not
  h.check(c.stats().live_nodes == 0, "cancelled node leaked");
}

/// Poison racing an untimed parked waiter: the Check must surface
/// CounterPoisonedError whether the poison lands before, during, or
/// after the park — never return normally, never hang.
template <typename C>
void poison_while_parked_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  h.thread("waiter", [&] {
    try {
      c.Check(5);
      h.fail("Check(5) returned normally on a poisoned counter");
    } catch (const CounterPoisonedError&) {
    }
  });
  h.thread("poisoner", [&] {
    h.sleep_ms(1);  // usually (not always) lets the waiter park first
    c.Poison("sim: producer died");
  });
  h.join();
  h.check(c.poisoned(), "poison did not stick");
  c.Increment(7);  // post-poison increment: a counted drop, not a throw
  h.check(c.stats().dropped_increments >= 1, "drop not counted");
}

/// Poison racing a TIMED waiter with a huge deadline: abort_all must
/// wake it promptly.  A poison sweep that skips timed waiters would
/// leave it sleeping out the full hour of virtual time — which is
/// exactly what the elapsed-time bound catches (and what the
/// model_dropped_timed_wake model reintroduces).
template <typename C>
void poison_timed_waiter_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  h.thread("waiter", [&] {
    const std::int64_t start = h.now_ns();
    try {
      (void)c.CheckFor(5, std::chrono::hours(1));
      h.fail("CheckFor(5) completed on a poisoned counter");
    } catch (const CounterPoisonedError&) {
    }
    const std::int64_t waited_ms = (h.now_ns() - start) / 1000000;
    h.check(waited_ms < 60000, "poisoned timed waiter overslept its wake");
  });
  h.thread("poisoner", [&] {
    h.sleep_ms(1);
    c.Poison("sim: producer died");
  });
  h.join();
}

/// Poison racing a lock-free increment: the frozen value is
/// authoritative.  Check(frozen) must pass instantly; Check(frozen+1)
/// must throw — even though a racing fetch_add may have inflated the
/// atomic word after the freeze.
template <typename C>
void poison_vs_increment_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  h.thread("inc", [&] { c.Increment(1); });
  h.thread("poisoner", [&] { c.Poison("sim: frozen mid-increment"); });
  h.join();
  const counter_value_t frozen = c.debug_value();
  try {
    c.Check(frozen);  // at-or-below the freeze: must succeed
  } catch (const CounterPoisonedError&) {
    h.fail("Check(frozen) threw");
  }
  try {
    c.Check(frozen + 1);
    h.fail("Check(frozen+1) returned on a poisoned counter");
  } catch (const CounterPoisonedError&) {
  }
}

/// The striped plane's watermark protocol: a waiter arming its level
/// races an incrementer's lock-free fast path.  The seq_cst
/// store-buffering argument (striped_cells.hpp) is what makes this
/// pass under the simulator's TSO buffer; model_weak_watermark is the
/// same scenario with that argument deliberately broken.
inline void striped_arm_vs_increment_scenario(SimHarness& h) {
  typename SimShardedCounter::Options opt;
  opt.stripes = 2;  // pinned: the hardware default varies by machine
  auto& c = h.make<SimShardedCounter>(opt);
  h.thread("waiter", [&] {
    c.Check(3);
    h.check(c.debug_value() >= 3, "woken below level");
  });
  h.thread("inc", [&] { c.Increment(3); });
  h.join();
  h.check(c.debug_value() == 3, "final value != 3");
  h.check(c.stats().live_nodes == 0, "wait node leaked");
}

/// Two waiters at different levels over a striped plane: releases must
/// come in level order regardless of which stripes the increments land
/// on, and the watermark must re-arm correctly between them.
inline void striped_two_waiters_scenario(SimHarness& h) {
  typename SimShardedCounter::Options opt;
  opt.stripes = 2;
  auto& c = h.make<SimShardedCounter>(opt);
  h.thread("waiter-2", [&] {
    c.Check(2);
    h.check(c.debug_value() >= 2, "woken below level 2");
  });
  h.thread("waiter-4", [&] {
    c.Check(4);
    h.check(c.debug_value() >= 4, "woken below level 4");
  });
  h.thread("inc-a", [&] { c.Increment(2); });
  h.thread("inc-b", [&] { c.Increment(2); });
  h.join();
  h.check(c.debug_value() == 4, "final value != 4");
  h.check(c.stats().live_nodes == 0, "wait node leaked");
}

/// Stall-watchdog cadence (the satellite-3 fix, end to end): with a
/// 10ms report interval, a sink that itself burns 3ms of virtual time,
/// and the release landing at t=35ms, reports must fire at exactly
/// 10/20/30ms.  The pre-fix code re-derived each deadline from "now
/// AFTER the sink returned", drifting to 10/23/36 — and 36 > 35 means
/// the third report would be lost entirely.
inline void watchdog_cadence_scenario(SimHarness& h) {
  auto& reports = h.make<std::vector<std::int64_t>>();
  typename SimCounter::Options opt;
  opt.stall_report_after = std::chrono::milliseconds(10);
  opt.on_stall = [&h, &reports](const CounterStallReport& r) {
    reports.push_back(h.now_ms());
    h.check(r.level == 1, "report for the wrong level");
    h.run().advance_time(3 * 1000000);  // a slow sink: 3ms of logging
  };
  auto& c = h.make<SimCounter>(opt);
  h.thread("waiter", [&] { c.Check(1); });
  h.thread("releaser", [&] {
    h.sleep_ms(35);
    c.Increment(1);
  });
  h.join();
  h.check(reports.size() == 3,
          "expected 3 stall reports, got " + std::to_string(reports.size()));
  if (reports.size() == 3) {
    h.check(reports[0] == 10 && reports[1] == 20 && reports[2] == 30,
            "stall cadence drifted: [" + std::to_string(reports[0]) + "," +
                std::to_string(reports[1]) + "," + std::to_string(reports[2]) +
                "]ms, want [10,20,30]ms");
  }
  h.check(c.stats().stall_reports == 3, "stat/report mismatch");
}

// ---------------------------------------------------------------------------
// Fault-injection scenarios (FaultEnvT over SimEngineEnv)
// ---------------------------------------------------------------------------
//
// The sim instantiation of the fault environment (fault_env.hpp): the
// deterministic scheduler supplies the schedule, FaultScope supplies
// the platform's rare events — allocation failure, spurious wakeups,
// futex interrupts, clock jumps — on demand.  Every one of these is an
// invariant scenario: the engine must absorb the fault under EVERY
// schedule, so any failing seed is an engine bug.
using SimFaultEnv = FaultEnvT<SimEngineEnv>;
using SimFaultCounter = BasicCounter<BlockingWaitT<SimFaultEnv>>;
using SimFaultFutexCounter = BasicCounter<FutexWaitT<SimFaultEnv>>;
using SimFaultHybridCounter = BasicCounter<HybridWaitT<SimFaultEnv>>;

/// bad_alloc at the first engine allocation of Check: the caller must
/// see CounterResourceError (not raw bad_alloc), the engine must hold
/// the strong guarantee — the very same counter parks, releases, and
/// ends clean immediately afterwards.
template <typename C>
void fault_alloc_check_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  h.thread("waiter", [&] {
    {
      FaultPlan plan;
      plan.fail_alloc_at = 1;  // the wait-node allocation
      FaultScope scope(plan);
      try {
        c.Check(3);
        h.fail("Check(3) completed with its allocation failing");
      } catch (const CounterResourceError&) {
      }
    }
    c.Check(3);  // strong guarantee: usable immediately after
    h.check(c.debug_value() >= 3, "woken below level");
  });
  h.thread("inc", [&] {
    h.sleep_ms(1);  // waiter is runnable, so this cannot pre-empt the
    c.Increment(3);  // faulted Check — it always sees value 0
  });
  h.join();
  h.check(c.debug_value() == 3, "final value != 3");
  h.check(c.stats().live_nodes == 0, "wait node leaked");
}

/// bad_alloc inside OnReach's callback-node insert: the registration
/// must be rejected whole (strong guarantee — the callback never runs,
/// the counter is unchanged) and a healthy retry must still fire.
inline void fault_alloc_onreach_scenario(SimHarness& h) {
  auto& c = h.make<SimFaultHybridCounter>();
  auto& fired = h.make<int>(0);
  {
    FaultPlan plan;
    plan.fail_alloc_at = 1;
    FaultScope scope(plan);
    try {
      c.OnReach(2, [&] { fired += 100; });
      h.fail("OnReach registered despite the failing allocation");
    } catch (const CounterResourceError&) {
    }
  }
  c.OnReach(2, [&] { fired += 1; });
  h.thread("inc", [&] { c.Increment(2); });
  h.join();
  h.check(fired == 1, "wrong callback set ran: " + std::to_string(fired));
  h.check(c.debug_value() == 2, "final value != 2");
}

/// THE satellite-2 pin: spurious wakes against a CheckFor that times
/// out.  Timed-out vs reached is decided once, in the engine, from the
/// policy's return — a second accounting site inside a policy would
/// double-count exactly this schedule.  timed_out_checks must be 1.
inline void fault_spurious_timed_stats_scenario(SimHarness& h) {
  auto& c = h.make<SimFaultCounter>();
  h.thread("waiter", [&] {
    FaultPlan plan;
    plan.spurious_every = 1;  // every cv wait returns without a notify
    plan.spurious_budget = 3;
    FaultScope scope(plan);
    const bool ok = c.CheckFor(3, std::chrono::milliseconds(5));
    h.check(!ok, "CheckFor(3) reported success before the value");
  });
  h.join();
  const auto s = c.stats();
  h.check(s.timed_out_checks == 1,
          "timed_out_checks double- or un-counted: " +
              std::to_string(s.timed_out_checks));
  h.check(s.spurious_wakeups >= 1, "no spurious wakeup reached the policy");
  h.check(s.cancelled_checks == 0, "timeout misfiled as cancellation");
  h.check(s.live_nodes == 0, "wait node leaked");
}

/// The success half of the same pin: spurious wakes plus a release
/// inside the deadline.  The wait must succeed and timed_out_checks
/// must stay 0 — a policy that reports timeout on the spurious path
/// would misfile this run.
inline void fault_spurious_timed_release_scenario(SimHarness& h) {
  auto& c = h.make<SimFaultCounter>();
  h.thread("waiter", [&] {
    FaultPlan plan;
    plan.spurious_every = 1;
    plan.spurious_budget = 2;
    FaultScope scope(plan);
    const bool ok = c.CheckFor(2, std::chrono::milliseconds(10));
    h.check(ok, "CheckFor(2) timed out despite an in-deadline release");
  });
  h.thread("inc", [&] {
    h.sleep_ms(1);
    c.Increment(2);
  });
  h.join();
  const auto s = c.stats();
  h.check(s.timed_out_checks == 0,
          "successful wait counted as timed out: " +
              std::to_string(s.timed_out_checks));
  h.check(c.debug_value() == 2, "final value != 2");
  h.check(s.live_nodes == 0, "wait node leaked");
}

/// Futex interrupts (the EINTR shape): every kernel wait returns
/// immediately for a bounded budget.  The waiter must re-check the
/// word, re-park, and still wake exactly on the release.
inline void fault_futex_eintr_scenario(SimHarness& h) {
  auto& c = h.make<SimFaultFutexCounter>();
  h.thread("waiter", [&] {
    FaultPlan plan;
    plan.futex_every = 1;
    plan.futex_budget = 3;
    FaultScope scope(plan);
    c.Check(2);
    h.check(c.debug_value() >= 2, "woken below level");
  });
  h.thread("inc", [&] {
    h.sleep_ms(1);
    c.Increment(2);
  });
  h.join();
  h.check(c.debug_value() == 2, "final value != 2");
  h.check(c.stats().live_nodes == 0, "wait node leaked");
}

/// Clock-jump hook for the sim instantiation: slam the virtual clock
/// one hour forward.  A plain function (FaultState stores a function
/// pointer) — fault_env.hpp itself stays sim-runtime-free.
inline void jump_virtual_clock_one_hour() {
  if (SimRun* run = active_run_ref()) {
    run->advance_time(3600ll * 1000000000ll);
  }
}

/// Clock jump between CheckFor's deadline capture and its first
/// schedule point: the deadline is already expired by the time the
/// engine looks.  Must take the pure-probe path — one timed_out_check,
/// no node churn, counter untouched and immediately usable.
inline void fault_clock_jump_probe_scenario(SimHarness& h) {
  auto& c = h.make<SimFaultCounter>();
  h.thread("waiter", [&] {
    FaultPlan plan;
    plan.jump_every = 1;  // the kCheck point, before the deadline test
    plan.jump_budget = 1;
    plan.jump_fn = &jump_virtual_clock_one_hour;
    FaultScope scope(plan);
    const bool ok = c.CheckFor(3, std::chrono::milliseconds(10));
    h.check(!ok, "CheckFor(3) succeeded across an expired deadline");
  });
  h.join();
  const auto s = c.stats();
  h.check(s.timed_out_checks == 1,
          "expired probe accounting wrong: " +
              std::to_string(s.timed_out_checks));
  h.check(s.nodes_allocated == 0, "expired probe acquired a wait node");
  h.check(s.live_nodes == 0, "wait node leaked");
  c.Increment(3);
  c.Check(3);  // still healthy after the jump
}

/// Clock jump racing a parked timed waiter against its releaser: the
/// jump lands inside the releaser's Increment, so the waiter's wake is
/// a genuine race between notify and (suddenly past) deadline.  Both
/// outcomes are legal; hangs, leaks, or a dead counter are not.
inline void fault_clock_jump_race_scenario(SimHarness& h) {
  auto& c = h.make<SimFaultCounter>();
  auto& scope = h.make<FaultScope>([] {
    FaultPlan plan;
    plan.jump_every = 2;  // point #1 is the waiter's kCheck; #2 is the
    plan.jump_budget = 1;  // releaser's kIncrementSlow
    plan.jump_fn = &jump_virtual_clock_one_hour;
    return plan;
  }());
  (void)scope;
  h.thread("waiter", [&] {
    const bool ok = c.CheckFor(3, std::chrono::milliseconds(10));
    if (ok) {
      h.check(c.debug_value() >= 3, "CheckFor true below level");
    } else {
      h.check(c.stats().timed_out_checks == 1, "timeout not counted once");
    }
  });
  h.thread("inc", [&] {
    h.sleep_ms(1);
    c.Increment(3);
  });
  h.join();
  h.check(c.debug_value() == 3, "final value != 3");
  h.check(c.stats().live_nodes == 0, "wait node leaked");
  h.check(c.CheckFor(3, std::chrono::nanoseconds(0)), "counter died");
}

/// Seed-derived fault plan (spurious wakes + futex interrupts, small
/// cadences and budgets) over the release-boundary scenario: random
/// fault timing composed with random scheduling, fully replayable from
/// the one seed.
template <typename C>
void fault_seeded_boundary_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  h.thread("waiter", [&] {
    FaultScope scope(FaultPlan::from_seed(h.run().seed()));
    c.Check(3);
    h.check(c.debug_value() >= 3, "woken below level");
  });
  h.thread("inc-a", [&] { c.Increment(2); });
  h.thread("inc-b", [&] { c.Increment(1); });
  h.join();
  h.check(c.debug_value() == 3, "final value != 3");
  h.check(c.stats().live_nodes == 0, "wait node leaked");
}

// ---------------------------------------------------------------------------
// Overload (admission-bound) scenarios
// ---------------------------------------------------------------------------

/// kThrow storm: six waiters against max_waiters=3.  Virtual time only
/// advances once every thread is blocked, so exactly three park and
/// exactly three get CounterOverloadedError — deterministically, under
/// every schedule.  Nobody may be left parked at the end.
inline void overload_storm_throw_scenario(SimHarness& h) {
  typename SimCounter::Options opt;
  opt.max_waiters = 3;
  opt.overload_policy = OverloadPolicy::kThrow;
  auto& c = h.make<SimCounter>(opt);
  auto& reached = h.make<int>(0);
  auto& rejected = h.make<int>(0);
  for (int i = 0; i < 6; ++i) {
    h.thread("w" + std::to_string(i), [&] {
      try {
        c.Check(10);
        reached += 1;  // vthreads run one at a time: plain ints are safe
      } catch (const CounterOverloadedError&) {
        rejected += 1;
      }
    });
  }
  h.thread("inc", [&] {
    h.sleep_ms(1);
    c.Increment(10);
  });
  h.join();
  h.check(reached == 3 && rejected == 3,
          "admission split wrong: reached=" + std::to_string(reached) +
              " rejected=" + std::to_string(rejected) + ", want 3/3");
  h.check(c.stats().overload_rejections == 3, "rejections miscounted");
  h.check(c.stats().live_nodes == 0, "waiter left parked after the storm");
}

/// kBlockIncrementers storm: over-cap waiters nap on the admission
/// gate until capacity frees (or the level lands).  All four waiters
/// must complete — the two gated ones via the gate's re-check — and
/// the gate must not strand anyone once the parked pair leaves.
inline void overload_storm_block_scenario(SimHarness& h) {
  typename SimCounter::Options opt;
  opt.max_waiters = 2;
  opt.overload_policy = OverloadPolicy::kBlockIncrementers;
  auto& c = h.make<SimCounter>(opt);
  auto& completed = h.make<int>(0);
  for (int i = 0; i < 4; ++i) {
    h.thread("w" + std::to_string(i), [&] {
      c.Check(5);
      h.check(c.debug_value() >= 5, "returned below level");
      completed += 1;
    });
  }
  h.thread("inc", [&] {
    h.sleep_ms(1);
    c.Increment(5);
  });
  h.join();
  h.check(completed == 4, "waiter stranded on the admission gate: " +
                              std::to_string(completed) + "/4 completed");
  h.check(c.stats().overload_rejections == 2, "gate entries miscounted");
  h.check(c.stats().live_nodes == 0, "waiter left parked after the storm");
  h.check(c.debug_value() == 5, "final value != 5");
}

/// kBlockIncrementers on the lock-free word plane, one slot, distinct
/// levels and a timed waiter.  A gated waiter is on no list, so when a
/// parked waiter leaves, the plane is rearmed without it; the gated
/// waiter must arm the plane again on its gate wake, or the
/// Increment(5) that reaches it takes the fast path and strands it
/// (the deadlock is the failure).  Whoever wins the slot, the timed
/// waiter at 10 times out and both untimed waiters return.
inline void overload_storm_block_hybrid_scenario(SimHarness& h) {
  typename SimHybridCounter::Options opt;
  opt.max_waiters = 1;
  opt.overload_policy = OverloadPolicy::kBlockIncrementers;
  auto& c = h.make<SimHybridCounter>(opt);
  auto& completed = h.make<int>(0);
  h.thread("timed", [&] {
    const bool ok = c.CheckFor(10, std::chrono::milliseconds(5));
    h.check(!ok, "CheckFor(10) reported success at value 5");
  });
  for (const counter_value_t level : {counter_value_t{5}, counter_value_t{3}}) {
    h.thread("w" + std::to_string(level), [&, level] {
      c.Check(level);
      h.check(c.debug_value() >= level, "returned below level");
      completed += 1;
    });
  }
  h.thread("inc", [&] {
    h.sleep_ms(10);
    c.Increment(5);
  });
  h.join();
  h.check(completed == 2, "waiter stranded after the gate: " +
                              std::to_string(completed) + "/2 completed");
  h.check(c.stats().live_nodes == 0, "waiter left parked after the storm");
  h.check(c.debug_value() == 5, "final value != 5");
}

// ---------------------------------------------------------------------------
// Level index (wait_index.hpp)
// ---------------------------------------------------------------------------

/// A late arm races a bulk wake: three waiters at distinct levels are
/// peeled ascending by one big Increment (kIndexPeel points) while a
/// fourth waiter arms a middle level (kIndexLink).  Every interleaving
/// must release all four — the late arm either joins the wake pass or
/// parks and is released by the value it re-reads under the lock.
inline void heap_arm_vs_bulk_wake_scenario(SimHarness& h) {
  typename SimCounter::Options opt;
  opt.wait_shards = 1;
  auto& c = h.make<SimCounter>(opt);
  auto& released = h.make<int>(0);
  for (int i = 1; i <= 3; ++i) {
    h.thread("w" + std::to_string(i), [&, i] {
      c.Check(static_cast<counter_value_t>(i));
      h.check(c.debug_value() >= static_cast<counter_value_t>(i),
              "released below level");
      released += 1;
    });
  }
  h.thread("late", [&] {
    c.Check(2);  // arms while the bulk pass may be mid-peel
    released += 1;
  });
  h.thread("inc", [&] {
    // Wait (in virtual time) until levels 1..3 are all armed, so the
    // Increment is guaranteed to peel a multi-level prefix — the
    // bulk_wakes assertion below must hold on EVERY seed.  The late
    // waiter shares level 2's node, so it may still be mid-arm: that
    // race is the point of the scenario.
    while (c.stats().live_nodes < 3) h.sleep_ms(1);
    c.Increment(3);
  });
  h.join();
  h.check(released == 4, "waiter stranded across the bulk wake: " +
                             std::to_string(released) + "/4 released");
  h.check(c.stats().live_nodes == 0, "bulk wake left the index dirty");
#if MONOTONIC_ENABLE_STATS
  h.check(c.stats().bulk_wakes >= 1, "multi-level release not counted");
#endif
  h.check(c.debug_value() == 3, "final value != 3");
}

/// Cross-shard wake over the striped value plane: levels 2 and 3 hash
/// to different shards of the heap index, so the armed-level watermark
/// comes from the O(S) root scan.  The seq_cst publication argument
/// (striped_cells.hpp) must hold no matter which shard owns the
/// global minimum when the lock-free increment probes it.
inline void heap_cross_shard_wake_scenario(SimHarness& h) {
  typename SimShardedCounter::Options opt;
  opt.wait_shards = 2;
  opt.stripes = 2;
  auto& c = h.make<SimShardedCounter>(opt);
  auto& released = h.make<int>(0);
  h.thread("w2", [&] {
    c.Check(2);
    released += 1;
  });
  h.thread("w3", [&] {
    c.Check(3);
    released += 1;
  });
  h.thread("inc_a", [&] { c.Increment(2); });
  h.thread("inc_b", [&] { c.Increment(1); });
  h.join();
  h.check(released == 2, "cross-shard waiter stranded: " +
                             std::to_string(released) + "/2 released");
  h.check(c.stats().live_nodes == 0, "wake left a node linked");
  h.check(c.debug_value() == 3, "final value != 3");
}

// ---------------------------------------------------------------------------
// Self-validation models (expect_failure = true)
// ---------------------------------------------------------------------------

/// StripedPlaneT with the watermark store DOWNGRADED to relaxed — the
/// exact bug the ISSUE's acceptance criterion names.  A local copy
/// rather than a knob on the real plane: the production header must
/// not grow a "please be wrong" switch.  Everything except the one
/// memory_order in arm() matches striped_cells.hpp.
class WeakStripedPlane {
 public:
  using EngineEnv = SimEngineEnv;
  static constexpr bool kLockFreeFastPath = true;
  static constexpr bool kStriped = true;
  static constexpr counter_value_t kMaxValue =
      std::numeric_limits<counter_value_t>::max() >> 1;

  WeakStripedPlane(const WaitListOptions& options, CounterStats& stats)
      : cells_(options.stripes), stats_(stats) {
    stats_.set_stripe_count(cells_.stripe_count());
  }

  std::size_t stripe_count() const noexcept { return cells_.stripe_count(); }

  bool add_fast(counter_value_t amount) {
    const std::size_t home = cells_.home_stripe();
    MC_REQUIRE(amount <= kMaxValue && cells_.load(home) <= kMaxValue - amount,
               "counter value overflow");
    cells_.add(home, amount);
    const counter_value_t armed =
        lowest_armed_level_.load(std::memory_order_seq_cst);
    if (armed == kNoArmedLevel) return false;
    return cells_.sum_seq_cst() >= armed;
  }

  counter_value_t read_fast() const noexcept { return cells_.sum(); }
  counter_value_t collapse() noexcept {
    stats_.on_collapse();
    return cells_.sum_seq_cst();
  }
  counter_value_t read_locked() const noexcept {
    stats_.on_collapse();
    return cells_.sum_seq_cst();
  }

  counter_value_t arm(counter_value_t level) {
    if (level < lowest_armed_level_.load(std::memory_order_relaxed)) {
      // THE BUG: relaxed lets the store sit in the waiter's buffer
      // while its collapse() below reads the cells — the incrementer's
      // add-then-probe can slot into that window, miss the watermark,
      // and skip the slow pass.  Store buffering, straight from the
      // striped_cells.hpp header comment.
      lowest_armed_level_.store(level, std::memory_order_relaxed);
    }
    return collapse();
  }

  void rearm(counter_value_t lowest) {
    lowest_armed_level_.store(lowest, std::memory_order_seq_cst);
  }
  void pin() { lowest_armed_level_.store(0, std::memory_order_seq_cst); }
  void reset() {
    cells_.reset();
    lowest_armed_level_.store(kNoArmedLevel, std::memory_order_seq_cst);
  }

 private:
  StripedCellsT<SimEngineEnv> cells_;
  CounterStats& stats_;
  SimEngineEnv::Atomic<counter_value_t> lowest_armed_level_{kNoArmedLevel};
};

inline void model_weak_watermark_scenario(SimHarness& h) {
  using WeakCounter = BasicCounter<SimBlockingWait, WeakStripedPlane>;
  typename WeakCounter::Options opt;
  opt.stripes = 2;
  auto& c = h.make<WeakCounter>(opt);
  h.thread("waiter", [&] { c.Check(3); });
  h.thread("inc", [&] { c.Increment(3); });
  h.join();
  h.check(c.debug_value() == 3, "final value != 3");
}

/// BlockingWait whose on_release forgets the notify — the canonical
/// lost wakeup.  Seeds where the release lands while the waiter is
/// inside cv.wait deadlock; seeds where the waiter's fast check wins
/// pass.  The explorer must find the former.
struct LostNotifyWait : SimBlockingWait {
  void on_release(SimBlockingWait::Node& /*node*/, CounterStats& stats) {
    stats.on_notify();
    // THE BUG: node.signal.cv.notify_all() omitted.
  }
};

inline void model_lost_notify_scenario(SimHarness& h) {
  auto& c = h.make<BasicCounter<LostNotifyWait>>();
  h.thread("waiter", [&] { c.Check(1); });
  h.thread("inc", [&] { c.Increment(1); });
  h.join();
}

/// BlockingWait whose poison sweep skips timed waiters (on_release
/// drops the wake for aborted nodes).  The poisoned CheckFor then
/// sleeps out its FULL one-hour virtual deadline before noticing —
/// caught by the same elapsed-time bound poison_timed_waiter asserts.
struct DroppedTimedWakeWait : SimBlockingWait {
  void on_release(SimBlockingWait::Node& node, CounterStats& stats) {
    // THE BUG: aborted (poison-released) nodes are not notified.
    if (!node.aborted) SimBlockingWait::on_release(node, stats);
  }
};

inline void model_dropped_timed_wake_scenario(SimHarness& h) {
  auto& c = h.make<BasicCounter<DroppedTimedWakeWait>>();
  h.thread("waiter", [&] {
    const std::int64_t start = h.now_ns();
    try {
      (void)c.CheckFor(5, std::chrono::hours(1));
      h.fail("CheckFor(5) completed on a poisoned counter");
    } catch (const CounterPoisonedError&) {
    }
    const std::int64_t waited_ms = (h.now_ns() - start) / 1000000;
    h.check(waited_ms < 60000, "poisoned timed waiter overslept its wake");
  });
  h.thread("poisoner", [&] {
    h.sleep_ms(1);
    c.Poison("sim: producer died");
  });
  h.join();
}

// ---------------------------------------------------------------------------
// Predicate-wait and completion-plane scenarios
// ---------------------------------------------------------------------------

/// Predicate wait racing its increments: Check(v >= 3) reduces to the
/// exact threshold (kPredicateEval schedule point) and parks through
/// the ordinary engine, so under every schedule the waiter wakes at or
/// above the threshold and the engine ends structurally clean.
template <typename C>
void predicate_threshold_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  h.thread("waiter", [&] {
    c.Check([](counter_value_t v) { return v >= 3; });
    h.check(c.debug_value() >= 3, "predicate wait woke below threshold");
  });
  h.thread("inc-a", [&] { c.Increment(2); });
  h.thread("inc-b", [&] { c.Increment(1); });
  h.join();
  h.check(c.stats().predicate_checks == 1, "predicate reduction not counted");
  h.check(c.stats().live_nodes == 0, "wait node leaked");
}

/// check_sum_at_least racing interleaved increments on two counters:
/// the pigeonhole triggers are recomputed from stale lower bounds on
/// every wake, and under no schedule may the waiter return early or
/// strand (the gate counter is a SimCounter, so its park is scheduled).
inline void predicate_sum_race_scenario(SimHarness& h) {
  auto& a = h.make<SimCounter>();
  auto& b = h.make<SimCounter>();
  h.thread("waiter", [&] {
    check_sum_at_least<SimCounter>({&a, &b}, 4);
    h.check(a.debug_value() + b.debug_value() >= 4,
            "sum wait returned below the threshold");
  });
  h.thread("inc-a", [&] {
    a.Increment(1);
    h.sleep_ms(1);
    a.Increment(1);
  });
  h.thread("inc-b", [&] {
    b.Increment(1);
    h.sleep_ms(1);
    b.Increment(1);
  });
  h.join();
  h.check(a.debug_value() + b.debug_value() == 4, "final sum != 4");
}

/// Predicate wait racing Poison: the increments stop at 3, below the
/// reduced threshold 5, so whichever order the schedule picks the wait
/// must surface CounterPoisonedError — never return, never hang.
template <typename C>
void predicate_poison_scenario(SimHarness& h) {
  auto& c = h.make<C>();
  h.thread("waiter", [&] {
    try {
      c.Check([](counter_value_t v) { return v >= 5; });
      h.fail("predicate wait completed below its threshold");
    } catch (const CounterPoisonedError&) {
    }
  });
  h.thread("inc", [&] { c.Increment(3); });
  h.thread("poisoner", [&] { c.Poison("sim: producer died"); });
  h.join();
}

/// check_any with both conditions racing to fire: either index is a
/// legal outcome (the disjunction is outside the deterministic core),
/// but the winner's own condition must hold at return, and the losing
/// OnReach residual must fire harmlessly before join.
inline void check_any_race_scenario(SimHarness& h) {
  auto& a = h.make<SimCounter>();
  auto& b = h.make<SimCounter>();
  h.thread("waiter", [&] {
    const std::size_t winner =
        check_any<SimCounter>({CounterCondition<SimCounter>{&a, 2},
                               CounterCondition<SimCounter>{&b, 2}});
    h.check(winner <= 1, "check_any returned a bogus index");
    SimCounter& won = winner == 0 ? a : b;
    h.check(won.debug_value() >= 2, "winner below its level");
  });
  h.thread("inc-a", [&] { a.Increment(2); });
  h.thread("inc-b", [&] { b.Increment(2); });
  h.join();
  h.check(a.debug_value() == 2 && b.debug_value() == 2, "final values != 2");
}

/// Completion-executor handoff: reached and poison-delivery chains are
/// enqueued (kCompletionEnqueue) to a ManualExecutor and run only when
/// a separate vthread drains — exactly once each, successes in level
/// order, the never-reached level delivered as an error, last.
inline void executor_handoff_scenario(SimHarness& h) {
  auto exec = std::make_shared<ManualExecutor>();
  WaitListOptions options;
  options.completion_executor = exec;
  auto& c = h.make<SimCounter>(options);
  // Only the drainer vthread executes callbacks, so the log needs no
  // lock; entry +L = level L reached, -L = poison delivered to L.
  auto& log = h.make<std::vector<int>>();
  h.thread("register", [&] {
    c.OnReach(1, [&] { log.push_back(1); },
              [&](std::exception_ptr) { log.push_back(-1); });
    c.OnReach(2, [&] { log.push_back(2); },
              [&](std::exception_ptr) { log.push_back(-2); });
    c.OnReach(9, [&] { log.push_back(9); },
              [&](std::exception_ptr) { log.push_back(-9); });
  });
  h.thread("inc", [&] {
    c.Increment(1);
    c.Increment(1);
  });
  h.thread("poisoner", [&] {
    h.sleep_ms(2);
    c.Poison("sim: producer died with callbacks pending");
  });
  h.thread("drainer", [&] {
    std::size_t ran = 0;
    for (int spins = 0; spins < 200 && ran < 3; ++spins) {
      ran += exec->drain();
      if (ran < 3) h.sleep_ms(1);
    }
    h.check(ran == 3, "completion queue did not deliver every callback");
  });
  h.join();
  h.check(log.size() == 3, "callback ran zero times or twice");
  // Level 9 is never reached: always an error, and always enqueued
  // after whatever happened to levels 1 and 2.
  h.check(log[2] == -9, "unreached level not delivered as trailing error");
  // FIFO queue + ascending-level detach: 1's entry precedes 2's, and
  // level 2 cannot succeed if level 1 was still unreached at poison.
  h.check(std::abs(log[0]) == 1 && std::abs(log[1]) == 2,
          "completion delivery out of level order");
  h.check(!(log[0] == -1 && log[1] == 2),
          "level 2 reached though level 1 was poisoned");
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

inline const std::vector<SimScenario>& sim_scenarios() {
  static const std::vector<SimScenario> scenarios = {
      {"boundary_blocking", "Check(3) vs Increment 2+1, BlockingWait", false,
       &boundary_scenario<SimCounter>},
      {"boundary_single_cv", "Check(3) vs Increment 2+1, SingleCvWait", false,
       &boundary_scenario<SimSingleCvCounter>},
      {"boundary_futex", "Check(3) vs Increment 2+1, FutexWait", false,
       &boundary_scenario<SimFutexCounter>},
      {"boundary_spin", "Check(3) vs Increment 2+1, SpinWait", false,
       &boundary_scenario<SimSpinCounter>},
      {"boundary_hybrid", "Check(3) vs Increment 2+1, HybridWait", false,
       &boundary_scenario<SimHybridCounter>},
      {"timed_check_boundary",
       "CheckFor deadline vs late increment: no overshoot, no false success",
       false, &timed_check_boundary_scenario<SimHybridCounter>},
      {"cancel_vs_wake_blocking",
       "stop_token nudge races the real release, BlockingWait", false,
       &cancel_vs_wake_scenario<SimCounter>},
      {"cancel_vs_wake_futex",
       "stop_token nudge races the real release, FutexWait (generation bits)",
       false, &cancel_vs_wake_scenario<SimFutexCounter>},
      {"cancel_vs_wake_spin",
       "stop_token nudge races the real release, SpinWait (token polling)",
       false, &cancel_vs_wake_scenario<SimSpinCounter>},
      {"poison_while_parked_blocking",
       "Poison vs parked untimed Check, BlockingWait", false,
       &poison_while_parked_scenario<SimCounter>},
      {"poison_while_parked_futex",
       "Poison vs parked untimed Check, FutexWait", false,
       &poison_while_parked_scenario<SimFutexCounter>},
      {"poison_while_parked_spin", "Poison vs parked untimed Check, SpinWait",
       false, &poison_while_parked_scenario<SimSpinCounter>},
      {"poison_timed_waiter_blocking",
       "Poison must promptly wake a CheckFor(1h) waiter, BlockingWait", false,
       &poison_timed_waiter_scenario<SimCounter>},
      {"poison_timed_waiter_futex",
       "Poison must promptly wake a CheckFor(1h) waiter, FutexWait", false,
       &poison_timed_waiter_scenario<SimFutexCounter>},
      {"poison_vs_increment",
       "frozen value is authoritative against racing lock-free increments",
       false, &poison_vs_increment_scenario<SimHybridCounter>},
      {"striped_arm_vs_increment",
       "watermark arm vs lock-free increment (the seq_cst SB protocol)",
       false, &striped_arm_vs_increment_scenario},
      {"striped_two_waiters",
       "two levels over two stripes: ordered release + correct rearm", false,
       &striped_two_waiters_scenario},
      {"watchdog_cadence",
       "stall reports hold a fixed cadence under a slow sink", false,
       &watchdog_cadence_scenario},
      {"fault_alloc_check_blocking",
       "bad_alloc at Check's node acquire -> CounterResourceError + strong "
       "guarantee, BlockingWait",
       false, &fault_alloc_check_scenario<SimFaultCounter>},
      {"fault_alloc_check_futex",
       "bad_alloc at Check's node acquire -> CounterResourceError + strong "
       "guarantee, FutexWait",
       false, &fault_alloc_check_scenario<SimFaultFutexCounter>},
      {"fault_alloc_check_hybrid",
       "bad_alloc at Check's node acquire: attention bit re-armed, counter "
       "usable, HybridWait",
       false, &fault_alloc_check_scenario<SimFaultHybridCounter>},
      {"fault_alloc_onreach",
       "bad_alloc inside OnReach's insert: registration rejected whole, "
       "retry fires",
       false, &fault_alloc_onreach_scenario},
      {"fault_spurious_timed_stats",
       "spurious wakes vs a timing-out CheckFor: timed_out_checks == 1, "
       "counted in the engine only",
       false, &fault_spurious_timed_stats_scenario},
      {"fault_spurious_timed_release",
       "spurious wakes vs an in-deadline release: success, timed_out_checks "
       "== 0",
       false, &fault_spurious_timed_release_scenario},
      {"fault_futex_eintr",
       "futex waits interrupted EINTR-style: waiter re-parks and still "
       "wakes on release",
       false, &fault_futex_eintr_scenario},
      {"fault_clock_jump_probe",
       "clock jumps past the deadline before the engine looks: pure probe, "
       "no node churn",
       false, &fault_clock_jump_probe_scenario},
      {"fault_clock_jump_race",
       "clock jumps mid-release: notify vs suddenly-past deadline, both "
       "outcomes legal",
       false, &fault_clock_jump_race_scenario},
      {"fault_seeded_blocking",
       "seed-derived spurious/futex fault plan over the release boundary, "
       "BlockingWait",
       false, &fault_seeded_boundary_scenario<SimFaultCounter>},
      {"fault_seeded_futex",
       "seed-derived spurious/futex fault plan over the release boundary, "
       "FutexWait",
       false, &fault_seeded_boundary_scenario<SimFaultFutexCounter>},
      {"overload_storm_throw",
       "6 waiters vs max_waiters=3 under kThrow: exactly 3 admitted, 3 "
       "rejected, none stranded",
       false, &overload_storm_throw_scenario},
      {"overload_storm_block",
       "4 waiters vs max_waiters=2 under kBlockIncrementers: gate re-check "
       "frees the over-cap pair",
       false, &overload_storm_block_scenario},
      {"overload_storm_block_hybrid",
       "timed waiter at 10 and untimed at 5 and 3 vs max_waiters=1 under "
       "kBlockIncrementers on the word plane: the gate wake re-arms the "
       "plane",
       false, &overload_storm_block_hybrid_scenario},
      {"heap_arm_vs_bulk_wake",
       "level index: a late arm races the ascending bulk-wake peel — "
       "no waiter stranded, bulk_wakes counted",
       false, &heap_arm_vs_bulk_wake_scenario},
      {"heap_cross_shard_wake",
       "sharded level index over striped cells: watermark from the O(S) root "
       "scan still satisfies the seq_cst publication protocol",
       false, &heap_cross_shard_wake_scenario},
      {"predicate_threshold_blocking",
       "Check(v>=3) vs Increment 2+1: threshold reduction + engine park, "
       "BlockingWait",
       false, &predicate_threshold_scenario<SimCounter>},
      {"predicate_threshold_hybrid",
       "Check(v>=3) vs Increment 2+1: reduction vs the lock-free fast "
       "path, HybridWait",
       false, &predicate_threshold_scenario<SimHybridCounter>},
      {"predicate_sum_race",
       "check_sum_at_least(a+b>=4) vs interleaved increments: pigeonhole "
       "triggers recomputed on wake, no early return, no strand",
       false, &predicate_sum_race_scenario},
      {"predicate_poison",
       "Check(v>=5) vs Poison at value 3: CounterPoisonedError under "
       "every order",
       false, &predicate_poison_scenario<SimHybridCounter>},
      {"check_any_race",
       "check_any over two racing counters: either index legal, winner's "
       "condition holds, loser residual harmless",
       false, &check_any_race_scenario},
      {"executor_handoff",
       "reached + poison chains through a drained ManualExecutor: "
       "exactly-once, level order, trailing error",
       false, &executor_handoff_scenario},
      {"model_weak_watermark",
       "MODEL: watermark store downgraded to relaxed — explorer must find "
       "the lost wakeup",
       true, &model_weak_watermark_scenario},
      {"model_lost_notify",
       "MODEL: on_release without notify — explorer must find the deadlock",
       true, &model_lost_notify_scenario},
      {"model_dropped_timed_wake",
       "MODEL: poison skips timed waiters — explorer must catch the "
       "oversleep",
       true, &model_dropped_timed_wake_scenario},
  };
  return scenarios;
}

inline const SimScenario* find_scenario(const std::string& name) {
  for (const auto& s : sim_scenarios()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace monotonic::sim
