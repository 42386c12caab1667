// Differential oracle for cluster::AdmissionQueue.
//
// ReferenceAdmission below is the scheduler's old admission loop: a scan
// over the whole FIFO queue on every pass, skipping a shape once it failed
// contiguous placement and skipping morphs once a no-larger volume failed to
// morph.  AdmissionQueue replaces it with per-shape classes merged by push
// sequence.  The property pinned here: for ANY callback outcomes, both make
// the same place/stage calls in the same order, stage the same ids and leave
// the same queue, and the class queue never looks at more than
// placed + staged + (waiting shapes) entries in a pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/admission.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::cluster {
namespace {

using topo::Shape;
using Callback = AdmissionQueue::Callback;

class ReferenceAdmission {
 public:
  void push(std::uint64_t id, Shape shape) { queue_.push_back(Item{id, shape}); }

  std::size_t pass(bool can_morph, const Callback& place, const Callback& stage) {
    std::set<Shape> failed_contiguous;
    std::int32_t failed_morph_volume = std::numeric_limits<std::int32_t>::max();
    std::vector<Item> kept;
    for (const Item& item : queue_) {
      if (failed_contiguous.count(item.shape) == 0 && place(item.id)) continue;
      failed_contiguous.insert(item.shape);
      const std::int32_t volume = item.shape.size();
      if (can_morph && volume < failed_morph_volume) {
        if (stage(item.id)) {
          staged_.push_back(item.id);
          kept.push_back(item);  // keeps its place until settle()
          continue;
        }
        failed_morph_volume = std::min(failed_morph_volume, volume);
      }
      kept.push_back(item);
    }
    const std::size_t visited = queue_.size();
    queue_ = std::move(kept);
    return visited;
  }

  void settle(const std::vector<bool>& started) {
    std::set<std::uint64_t> gone;
    for (std::size_t i = 0; i < staged_.size(); ++i) {
      if (started[i]) gone.insert(staged_[i]);
    }
    std::erase_if(queue_, [&](const Item& item) { return gone.count(item.id) > 0; });
    staged_.clear();
  }

  [[nodiscard]] std::vector<std::uint64_t> ids() const {
    std::vector<std::uint64_t> out;
    for (const Item& item : queue_) out.push_back(item.id);
    return out;
  }

 private:
  struct Item {
    std::uint64_t id;
    Shape shape;
  };
  std::vector<Item> queue_;
  std::vector<std::uint64_t> staged_;
};

/// One callback invocation as a queue made it.
struct Call {
  bool stage{false};  ///< false = place
  std::uint64_t id{0};
  bool result{false};
  friend bool operator==(const Call&, const Call&) = default;
};

/// What one pass did, seen through its callbacks.
struct PassTrace {
  std::vector<Call> calls;
  std::vector<std::uint64_t> placed;
  std::vector<std::uint64_t> staged;
  std::size_t visited{0};
};

/// Runs one pass on `q`, answering the i-th callback with draw i of
/// Rng{outcome_seed}: two queues that make the same calls see the same
/// outcomes.
template <class Queue>
PassTrace run_pass(Queue& q, bool can_morph, std::uint64_t outcome_seed, double p_place,
                   double p_stage) {
  PassTrace t;
  Rng outcomes{outcome_seed};
  const Callback place = [&](std::uint64_t id) {
    const bool ok = outcomes.uniform() < p_place;
    t.calls.push_back(Call{false, id, ok});
    if (ok) t.placed.push_back(id);
    return ok;
  };
  const Callback stage = [&](std::uint64_t id) {
    const bool ok = outcomes.uniform() < p_stage;
    t.calls.push_back(Call{true, id, ok});
    if (ok) t.staged.push_back(id);
    return ok;
  };
  t.visited = q.pass(can_morph, place, stage);
  return t;
}

std::string describe(const std::vector<Call>& calls) {
  std::string s;
  for (const Call& c : calls) {
    s += (c.stage ? "s" : "p") + std::to_string(c.id) + (c.result ? "+ " : "- ");
  }
  return s;
}

// Shapes of the scripted mix: 4x2x1 and 2x4x1 share volume 8, so a failed
// morph of either rules out both.
const std::vector<Shape>& shape_pool() {
  static const std::vector<Shape> pool{
      Shape{{2, 2, 1}}, Shape{{4, 2, 1}}, Shape{{2, 4, 1}}, Shape{{4, 4, 1}},
      Shape{{4, 4, 2}}, Shape{{1, 1, 1}}, Shape{{4, 4, 4}},
  };
  return pool;
}

/// Work done by one or more scripts: passes run, entries the full scan
/// looked at, and entries the class queue looked at.
struct Totals {
  std::size_t passes{0};
  std::size_t scanned{0};
  std::size_t visited{0};
};

/// One seeded script: pushes, requeues of previously started ids, passes
/// with morphing on and off, and random commit/rollback of staged jobs,
/// applied to both implementations in lockstep.
void check_seed(std::uint64_t seed, Totals& totals) {
  Rng rng{util::task_seed(0xad31, seed)};
  const auto& pool = shape_pool();
  // Per-seed outcome biases, so some scripts fill the queue and others
  // drain it.
  const double p_place = rng.uniform(0.05, 0.7);
  const double p_stage = rng.uniform(0.05, 0.8);
  const double p_commit = rng.uniform(0.2, 1.0);
  // The first 3..7 shapes of the pool: 4x2x1 and 2x4x1 are always in play.
  const auto shapes = 3 + rng.uniform_index(pool.size() - 2);

  AdmissionQueue fast;
  ReferenceAdmission ref;
  std::map<std::uint64_t, Shape> shape_of;
  std::vector<std::uint64_t> started;  // ids a requeue may re-push
  std::uint64_t next_id = 0;

  for (int op = 0; op < 300; ++op) {
    const double r = rng.uniform();
    if (r < 0.45) {
      const std::uint64_t id = next_id++;
      const Shape shape = pool[rng.uniform_index(shapes)];
      shape_of[id] = shape;
      fast.push(id, shape);
      ref.push(id, shape);
    } else if (r < 0.6) {
      if (started.empty()) continue;
      const auto k = rng.uniform_index(started.size());
      const std::uint64_t id = started[k];
      started.erase(started.begin() + static_cast<std::ptrdiff_t>(k));
      fast.push(id, shape_of[id]);
      ref.push(id, shape_of[id]);
    } else {
      const bool can_morph = rng.uniform() < 0.7;
      const std::uint64_t outcome_seed = rng.next();
      const std::vector<std::uint64_t> before = ref.ids();
      std::set<Shape> waiting;
      for (const std::uint64_t id : before) waiting.insert(shape_of[id]);

      const PassTrace a = run_pass(ref, can_morph, outcome_seed, p_place, p_stage);
      const PassTrace b = run_pass(fast, can_morph, outcome_seed, p_place, p_stage);
      EXPECT_EQ(a.calls, b.calls) << "seed " << seed << " op " << op << "\n  reference "
                                  << describe(a.calls) << "\n  classes   "
                                  << describe(b.calls);
      EXPECT_EQ(a.staged, b.staged) << "seed " << seed << " op " << op;
      EXPECT_LE(b.visited, b.placed.size() + b.staged.size() + waiting.size())
          << "seed " << seed << " op " << op << ": pass looked at " << b.visited
          << " of " << before.size() << " entries";
      if (::testing::Test::HasFailure()) return;
      ++totals.passes;
      totals.scanned += a.visited;
      totals.visited += b.visited;

      std::vector<bool> commit(b.staged.size());
      for (std::size_t i = 0; i < commit.size(); ++i) commit[i] = rng.uniform() < p_commit;
      ref.settle(commit);
      fast.settle(commit);
      for (const std::uint64_t id : b.placed) started.push_back(id);
      for (std::size_t i = 0; i < commit.size(); ++i) {
        if (commit[i]) started.push_back(b.staged[i]);
      }
    }
    EXPECT_EQ(ref.ids(), fast.ids()) << "seed " << seed << " op " << op;
    EXPECT_EQ(ref.ids().size(), fast.size()) << "seed " << seed << " op " << op;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(AdmissionQueue, MatchesTheFullScanForAnyCallbackOutcomes) {
  Totals totals;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    check_seed(seed, totals);
    if (HasFailure()) return;
  }
  EXPECT_GT(totals.passes, 300u * 50u);
  // The scripts queue enough that the skips matter: the full scan looks at
  // ~2.5x the entries the class queue does.
  EXPECT_LT(totals.visited * 2, totals.scanned);
}

// A requeued job keeps its id but goes to the back: merging classes by id
// instead of push sequence would put it first again.
TEST(AdmissionQueue, RequeueGoesToTheBack) {
  AdmissionQueue q;
  q.push(0, Shape{{2, 2, 1}});
  q.push(1, Shape{{4, 2, 1}});
  q.push(2, Shape{{2, 2, 1}});
  const Callback place_0 = [](std::uint64_t id) { return id == 0; };
  const Callback never = [](std::uint64_t) { return false; };
  EXPECT_EQ(q.pass(false, place_0, never), 3u);
  q.settle({});
  EXPECT_EQ(q.ids(), (std::vector<std::uint64_t>{1, 2}));
  q.push(0, Shape{{2, 2, 1}});
  EXPECT_EQ(q.ids(), (std::vector<std::uint64_t>{1, 2, 0}));

  std::vector<std::uint64_t> order;
  const Callback record = [&](std::uint64_t id) {
    order.push_back(id);
    return true;
  };
  EXPECT_EQ(q.pass(false, record, never), 3u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 0}));
  EXPECT_EQ(q.size(), 0u);
}

// The skip rules, call by call: a shape that failed contiguous placement is
// not retried, a failed morph of volume v rules out every volume >= v
// (4x2x1 and 2x4x1 alike), and staged jobs keep their place until settle().
TEST(AdmissionQueue, SkipRulesAndStagedJobsKeepTheirPlace) {
  AdmissionQueue q;
  q.push(0, Shape{{4, 2, 1}});  // fails place, stages
  q.push(1, Shape{{2, 2, 1}});  // places
  q.push(2, Shape{{4, 2, 1}});  // skips place, fails stage: volume 8 out
  q.push(3, Shape{{2, 4, 1}});  // fails place; volume 8 already failed
  q.push(4, Shape{{2, 2, 1}});  // fails place, stages (volume 4 < 8)
  q.push(5, Shape{{2, 4, 1}});  // ruled out: never looked at
  q.push(6, Shape{{4, 4, 1}});  // fails place; volume 16 ruled out
  q.push(7, Shape{{2, 2, 1}});  // skips place, stages

  std::vector<std::string> calls;
  const Callback place = [&](std::uint64_t id) {
    calls.push_back("p" + std::to_string(id));
    return id == 1;
  };
  const Callback stage = [&](std::uint64_t id) {
    calls.push_back("s" + std::to_string(id));
    return id != 2;
  };
  const std::size_t visited = q.pass(true, place, stage);
  EXPECT_EQ(calls, (std::vector<std::string>{"p0", "s0", "p1", "s2", "p3", "p4", "s4",
                                             "p6", "s7"}));
  EXPECT_EQ(visited, 7u) << "id 5 is never looked at";
  EXPECT_EQ(q.size(), 7u) << "staged jobs stay queued until settled";

  q.settle({false, true, false});  // 0 rolls back, 4 starts, 7 rolls back
  EXPECT_EQ(q.ids(), (std::vector<std::uint64_t>{0, 2, 3, 5, 6, 7}));
}

}  // namespace
}  // namespace lp::cluster
