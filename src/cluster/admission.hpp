// The cluster scheduler's admission queue: one FIFO class per slice shape.
//
// Admission is a FIFO scan with two skip rules.  A pass offers the queued
// jobs, oldest first, to two callbacks:
//
//   place(id)  contiguous placement; true means the job started and leaves
//              the queue;
//   stage(id)  morph harvest; true means the job is staged for the pass's
//              batch plan and keeps its place until settle().
//
// Once a shape fails contiguous placement, later jobs of that shape skip
// place() for the rest of the pass.  Once a morph fails for volume v, jobs
// of volume >= v skip stage().  A job skipped by both rules has no side
// effect at all, and both rules only tighten during a pass.
//
// So the queue keeps one FIFO per shape, each entry tagged with a sequence
// number that every push bumps, and a pass repeatedly takes the class head
// with the smallest sequence number.  A class drops out of the pass once its
// shape has failed contiguous placement and morphing is off or has failed
// for a volume no larger than the shape's.  The callbacks see exactly the
// calls, in exactly the order, that a scan over the whole queue in push
// order makes, whatever they return.  A job that stays queued knocks its
// class out, so a pass looks at no more than placed + staged + (waiting
// shapes) entries instead of the whole queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "topo/torus.hpp"

namespace lp::cluster {

class AdmissionQueue {
 public:
  /// place/stage callback: true when the job started (place) or was staged
  /// for a morph (stage).
  using Callback = std::function<bool(std::uint64_t id)>;

  /// Queues a job behind every queued job: an arrival, or a requeue (which
  /// goes to the back under a fresh sequence number).
  void push(std::uint64_t id, topo::Shape shape);

  /// One admission pass; see the file comment.  The callbacks must not
  /// push, and settle() must follow before the next pass.  Returns the
  /// number of entries looked at.
  std::size_t pass(bool can_morph, const Callback& place, const Callback& stage);

  /// Settles the last pass's staged jobs: started[i] is whether the i-th
  /// staged job (in stage order) started.  Started jobs leave the queue; the
  /// others keep their place.
  void settle(const std::vector<bool>& started);

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Queued ids in sequence order: the order a full scan would visit.
  [[nodiscard]] std::vector<std::uint64_t> ids() const;

 private:
  struct Entry {
    std::uint64_t seq{0};
    std::uint64_t id{0};
  };
  struct Class {
    topo::Shape shape{};
    std::int32_t volume{0};
    std::deque<Entry> fifo;
    // Pass state.  Contiguous placements leave from the front, and only
    // while nothing of the class failed, so the entries a pass looked at
    // and kept are exactly fifo[0, cursor).
    bool failed{false};  ///< contiguous placement failed this pass
    std::size_t cursor{0};
  };
  /// Where a staged job sits: classes_[cls].fifo[pos].
  struct Staged {
    std::size_t cls{0};
    std::size_t pos{0};
  };

  std::vector<Class> classes_;  ///< in first-push order; never shrinks
  std::vector<Staged> staged_;  ///< stage order
  std::uint64_t next_seq_{0};
  std::size_t size_{0};
};

}  // namespace lp::cluster
