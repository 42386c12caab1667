// Contract tests for the calendar-queue EventEngine, including the
// randomized differential suite against the reference binary-heap
// EventQueue.  The two implementations must be observably identical:
// dispatch order, now(), pending counts, run/run_until return values.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/event_engine.hpp"
#include "sim/event_queue.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::sim {
namespace {

TEST(EventEngine, RunsInTimestampOrder) {
  EventEngine q;
  std::vector<int> order;
  q.schedule_at(TimePoint::at_seconds(2.0), [&] { order.push_back(2); });
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { order.push_back(1); });
  q.schedule_at(TimePoint::at_seconds(3.0), [&] { order.push_back(3); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now().to_seconds(), 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventEngine, FifoTieBreakAtEqualTime) {
  EventEngine q;
  std::vector<int> order;
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { order.push_back(1); });
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { order.push_back(2); });
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// FIFO tie-break must survive bucket-array resizes: schedule enough events
// to force several grows, with ties both clustered and straddling whatever
// bucket boundaries the adaptive width lands on.
TEST(EventEngine, FifoTieBreakAcrossBucketBoundaries) {
  EventEngine q;
  std::vector<int> order;
  constexpr int kGroups = 200;
  constexpr int kPerGroup = 4;
  // Interleave: for each group time t_g = g * 0.001, schedule one event per
  // round so equal-time events are scheduled far apart in seq space.
  for (int round = 0; round < kPerGroup; ++round) {
    for (int g = 0; g < kGroups; ++g) {
      q.schedule_at(TimePoint::at_seconds(g * 1e-3),
                    [&order, g, round] { order.push_back(g * kPerGroup + round); });
    }
  }
  EXPECT_GT(q.bucket_count(), 16u) << "test should actually exercise a resize";
  EXPECT_EQ(q.run(), static_cast<std::size_t>(kGroups * kPerGroup));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kGroups * kPerGroup));
  for (int g = 0; g < kGroups; ++g) {
    for (int round = 0; round < kPerGroup; ++round) {
      EXPECT_EQ(order[static_cast<std::size_t>(g * kPerGroup + round)],
                g * kPerGroup + round);
    }
  }
}

TEST(EventEngine, CallbacksCanSchedule) {
  EventEngine q;
  int fired = 0;
  q.schedule_at(TimePoint::at_seconds(1.0), [&] {
    ++fired;
    q.schedule_in(Duration::seconds(1.0), [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now().to_seconds(), 2.0);
}

// Scheduling at exactly now() from inside a callback: the new event runs in
// the same run(), after every event already pending at that timestamp.
TEST(EventEngine, ScheduleAtExactlyNowFromCallback) {
  EventEngine q;
  std::vector<int> order;
  q.schedule_at(TimePoint::at_seconds(1.0), [&] {
    order.push_back(1);
    q.schedule_at(q.now(), [&] { order.push_back(3); });
  });
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now().to_seconds(), 1.0);
}

TEST(EventEngine, SchedulingInThePastRunsNext) {
  EventEngine q;
  std::vector<int> order;
  q.schedule_at(TimePoint::at_seconds(5.0), [&] {
    order.push_back(1);
    // Past event: becomes the queue minimum, dispatched next (matching the
    // reference heap, which orders purely by (when, seq)).
    q.schedule_at(TimePoint::at_seconds(1.0), [&] { order.push_back(2); });
  });
  q.schedule_at(TimePoint::at_seconds(6.0), [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventEngine, RunUntilStopsAtDeadline) {
  EventEngine q;
  int fired = 0;
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { ++fired; });
  q.schedule_at(TimePoint::at_seconds(5.0), [&] { ++fired; });
  EXPECT_EQ(q.run_until(TimePoint::at_seconds(2.0)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

// An event timestamped exactly at the deadline runs — including one
// scheduled *at* the deadline by another deadline event.
TEST(EventEngine, RunUntilEqualityAtDeadline) {
  EventEngine q;
  std::vector<int> order;
  q.schedule_at(TimePoint::at_seconds(2.0), [&] {
    order.push_back(1);
    q.schedule_at(TimePoint::at_seconds(2.0), [&] { order.push_back(2); });
  });
  q.schedule_at(TimePoint::at_seconds(2.0 + 1e-9), [&] { order.push_back(9); });
  EXPECT_EQ(q.run_until(TimePoint::at_seconds(2.0)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_DOUBLE_EQ(q.now().to_seconds(), 2.0);
}

TEST(EventEngine, RunMaxEventsStopsEarly) {
  EventEngine q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(TimePoint::at_seconds(i), [&] { ++fired; });
  }
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(q.pending(), 6u);
  EXPECT_EQ(q.run(), 6u);
}

TEST(EventEngine, LargeDrainIsSorted) {
  EventEngine q;
  Rng rng{42};
  std::vector<double> times;
  constexpr std::size_t kN = 20000;
  std::vector<double> dispatched;
  dispatched.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    // Mixed scales: microsecond clusters plus sparse far-future outliers,
    // the shape that stresses the adaptive bucket width.
    double t = rng.uniform() < 0.95 ? rng.uniform(0.0, 1e-2) : rng.uniform(10.0, 1e3);
    q.schedule_at(TimePoint::at_seconds(t),
                  [&dispatched, &q] { dispatched.push_back(q.now().to_seconds()); });
    times.push_back(t);
  }
  EXPECT_EQ(q.run(), kN);
  ASSERT_EQ(dispatched.size(), kN);
  for (std::size_t i = 1; i < kN; ++i) {
    ASSERT_LE(dispatched[i - 1], dispatched[i]) << "out of order at " << i;
  }
}

TEST(EventEngine, OversizedHandlerFallsBackToHeap) {
  EventEngine q;
  // A capture larger than InlineHandler::kInlineBytes must still work.
  struct Big {
    double pad[12];
  };
  Big big{};
  big.pad[0] = 7.0;
  double seen = 0.0;
  q.schedule_at(TimePoint::at_seconds(1.0), [big, &seen] { seen = big.pad[0]; });
  q.run();
  EXPECT_DOUBLE_EQ(seen, 7.0);
}

TEST(EventEngine, DestructorReleasesPendingHandlers) {
  // Pending events with owning captures must be destroyed with the engine
  // (ASan would flag the leak).
  auto shared = std::make_shared<int>(5);
  {
    EventEngine q;
    q.schedule_at(TimePoint::at_seconds(1.0), [shared] { (void)*shared; });
    EXPECT_EQ(shared.use_count(), 2);
  }
  EXPECT_EQ(shared.use_count(), 1);
}

// --- Randomized differential suite: engine vs reference heap ---------------
//
// Each case drives both implementations through an identical randomized
// script — schedules at clustered/duplicated/far-out times, reentrant
// schedules (including at exactly now()), partial runs, run_until at an
// existing timestamp — and requires identical dispatch traces.

struct DiffCase {
  std::vector<int> order;
  std::vector<double> when;
  double final_now{0.0};
  std::size_t processed{0};
  std::size_t leftover{0};

  bool operator==(const DiffCase&) const = default;
};

template <typename Queue>
DiffCase run_case(std::uint64_t seed) {
  Rng rng{seed};
  Queue q;
  DiffCase out;
  int next_id = 0;

  // Timestamps drawn from a small discrete grid so duplicates are common.
  const double scale = rng.uniform() < 0.5 ? 1e-6 : 1.0;
  auto draw_time = [&rng, scale] {
    return static_cast<double>(rng.uniform_index(64)) * scale;
  };

  // Reentrant children: each event may schedule up to two children at
  // now(), now() + grid step, or a far-future point, decided by a fork of
  // the case RNG keyed on the event id (identical across implementations).
  std::function<void(int, int)> body = [&](int id, int depth) {
    out.order.push_back(id);
    out.when.push_back(q.now().to_seconds());
    if (depth >= 3) return;
    Rng child{seed ^ (std::uint64_t{0x9e3779b97f4a7c15} *
                      static_cast<std::uint64_t>(id + 1))};
    const std::uint64_t kids = child.uniform_index(3);
    for (std::uint64_t k = 0; k < kids; ++k) {
      const int kid = next_id++;
      const double r = child.uniform();
      TimePoint t;
      if (r < 0.4) {
        t = q.now();  // exactly now: must run later this pass, FIFO order
      } else if (r < 0.8) {
        t = q.now() + Duration::seconds(static_cast<double>(child.uniform_index(8)) * scale);
      } else {
        t = TimePoint::at_seconds(q.now().to_seconds() + 100.0 * scale);
      }
      q.schedule_at(t, [&body, kid, depth] { body(kid, depth + 1); });
    }
  };

  const std::size_t roots = 8 + rng.uniform_index(48);
  for (std::size_t i = 0; i < roots; ++i) {
    const int id = next_id++;
    q.schedule_at(TimePoint::at_seconds(draw_time()),
                  [&body, id] { body(id, 0); });
  }

  // Phase 1: partial run.
  out.processed += q.run(rng.uniform_index(roots + 1));
  // Phase 2: run_until a timestamp that exists in the grid (deadline
  // equality exercised with high probability).
  out.processed += q.run_until(TimePoint::at_seconds(draw_time()));
  // Phase 3: a second wave of schedules, some in the "past".
  const std::size_t wave = rng.uniform_index(16);
  for (std::size_t i = 0; i < wave; ++i) {
    const int id = next_id++;
    q.schedule_at(TimePoint::at_seconds(draw_time()),
                  [&body, id] { body(id, 0); });
  }
  // Phase 4: drain.
  out.processed += q.run();
  out.final_now = q.now().to_seconds();
  out.leftover = q.pending();
  return out;
}

TEST(EventEngineDifferential, MatchesReferenceHeapOver200Cases) {
  for (std::uint64_t c = 0; c < 220; ++c) {
    const std::uint64_t seed = util::task_seed(0xd1ffe2e4, c);
    const DiffCase heap = run_case<EventQueue>(seed);
    const DiffCase engine = run_case<EventEngine>(seed);
    ASSERT_EQ(heap.order, engine.order) << "case " << c;
    ASSERT_EQ(heap.when, engine.when) << "case " << c;
    ASSERT_EQ(heap.processed, engine.processed) << "case " << c;
    ASSERT_EQ(heap.final_now, engine.final_now) << "case " << c;
    ASSERT_EQ(heap.leftover, engine.leftover) << "case " << c;
  }
}

// --- schedule_poisson: the shared self-rescheduling fault/flap clock -------

/// Arrival times of the documented process, hand-rolled: t += Exp(rate)
/// from zero while t < until.
std::vector<double> hand_rolled_arrivals(std::uint64_t seed, double rate, double until) {
  Rng rng{seed};
  std::vector<double> out;
  for (double t = rng.exponential(rate); t < until; t += rng.exponential(rate)) {
    out.push_back(t);
  }
  return out;
}

TEST(SchedulePoisson, ArrivalsMatchAHandRolledLoopBitForBit) {
  EventEngine engine;
  Rng rng{42};
  std::vector<double> fired;
  schedule_poisson(engine, rng, 2.0, TimePoint::at_seconds(50.0),
                   [&] { fired.push_back(engine.now().to_seconds()); });
  engine.run();
  const std::vector<double> expected = hand_rolled_arrivals(42, 2.0, 50.0);
  ASSERT_GT(expected.size(), 50u);
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fired[i]), std::bit_cast<std::uint64_t>(expected[i]))
        << "arrival " << i;
  }
  Rng ref{42};
  for (std::size_t i = 0; i <= expected.size(); ++i) (void)ref.exponential(2.0);
  EXPECT_EQ(rng.next(), ref.next()) << "exactly one gap drawn past the horizon";
}

TEST(SchedulePoisson, NothingFiresAtOrAfterUntil) {
  const std::vector<double> arrivals = hand_rolled_arrivals(7, 3.0, 10.0);
  ASSERT_GT(arrivals.size(), 6u);
  // `until` equal to the sixth arrival's exact time: that arrival is
  // excluded, the five before it fire.
  EventEngine engine;
  Rng rng{7};
  std::vector<double> fired;
  schedule_poisson(engine, rng, 3.0, TimePoint::at_seconds(arrivals[5]),
                   [&] { fired.push_back(engine.now().to_seconds()); });
  engine.run();
  EXPECT_EQ(fired, std::vector<double>(arrivals.begin(), arrivals.begin() + 5));

  // A non-positive rate schedules nothing and draws nothing.
  Rng idle{7};
  bool any = false;
  schedule_poisson(engine, idle, 0.0, TimePoint::at_seconds(10.0), [&] { any = true; });
  schedule_poisson(engine, idle, -1.0, TimePoint::at_seconds(10.0), [&] { any = true; });
  EXPECT_TRUE(engine.empty());
  engine.run();
  EXPECT_FALSE(any);
  EXPECT_EQ(idle.next(), Rng{7}.next());
}

TEST(SchedulePoisson, FireDrawingFromTheClockStreamInterleaves) {
  EventEngine engine;
  Rng rng{0x5eed};
  std::vector<double> times;
  std::vector<double> draws;
  schedule_poisson(engine, rng, 5.0, TimePoint::at_seconds(20.0), [&] {
    times.push_back(engine.now().to_seconds());
    draws.push_back(rng.uniform());
  });
  engine.run();
  // Documented order: gap, fire's draws, gap, fire's draws, ...
  Rng ref{0x5eed};
  std::vector<double> want_times;
  std::vector<double> want_draws;
  for (double t = ref.exponential(5.0); t < 20.0; t += ref.exponential(5.0)) {
    want_times.push_back(t);
    want_draws.push_back(ref.uniform());
  }
  ASSERT_GT(want_times.size(), 20u);
  EXPECT_EQ(times, want_times);
  EXPECT_EQ(draws, want_draws);
}

}  // namespace
}  // namespace lp::sim
