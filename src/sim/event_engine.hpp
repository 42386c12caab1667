// High-throughput discrete-event engine: a hierarchical calendar (bucket)
// queue over slab-allocated event records with a small-buffer handler type.
//
// The original lp::sim::EventQueue (kept in event_queue.hpp as the reference
// implementation) is a std::priority_queue of std::function closures: every
// schedule heap-allocates a closure, every dispatch pays O(log n) sift-down
// plus a std::function move, and at millions of pending events the heap's
// pointer-chasing comparisons dominate.  The serving simulator needs to
// process tens of millions of events per wall-clock second, so this engine
// replaces the heap with the classic calendar-queue design (R. Brown, CACM
// 1988) tuned for that regime:
//
//   * Event records live in a chunked slab (indices, not pointers; records
//     never move until freed) and are recycled through a free list — zero
//     per-event heap traffic in steady state.
//   * Handlers are InlineHandler: a move-only callable with 32 bytes of
//     inline storage.  Every lambda the simulator schedules fits inline;
//     oversized callables fall back to one heap allocation.
//   * The bucket array adapts: it doubles when occupancy exceeds two events
//     per bucket, halves when it drops below one half, and re-derives the
//     bucket width from the observed inter-event gaps on every resize, so
//     enqueue/dequeue stay O(1) amortized for the stationary arrival
//     processes simulations produce.
//
// Observable contract (identical to EventQueue, verified by a randomized
// differential test in tests/event_engine_test.cpp):
//
//   * Events run in ascending timestamp order; equal timestamps run in
//     schedule (FIFO) order, across bucket boundaries and resizes.
//   * Callbacks may schedule freely, including at exactly now() (the new
//     event runs later in the same run(), after every event already due at
//     that instant) and in the past (the event is simply the next minimum).
//   * run_until(t) runs every event with timestamp <= t, including events
//     scheduled exactly at the deadline by other deadline events.
//   * now() is the timestamp of the event being processed (or the last one
//     processed); run_until never advances it past the last dispatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace lp::sim {

/// Move-only type-erased `void()` callable with inline storage.  Callables
/// up to kInlineBytes that are nothrow-move-constructible are stored in
/// place; anything larger lives behind a single heap allocation.  Trivially
/// copyable callables (the common case: a few captured pointers) relocate
/// by memcpy and destroy as a no-op — no indirect call on either path.
class InlineHandler {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  InlineHandler() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineHandler> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineHandler(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
    }
  }

  InlineHandler(InlineHandler&& o) noexcept { move_from(o); }
  InlineHandler& operator=(InlineHandler&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  InlineHandler(const InlineHandler&) = delete;
  InlineHandler& operator=(const InlineHandler&) = delete;
  ~InlineHandler() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  static constexpr std::size_t kInlineAlign = 8;

  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the stored callable into dst and destroy it in src.
    /// nullptr means the callable is trivially copyable: memcpy the buffer.
    void (*relocate)(void* dst, void* src);
    /// nullptr means trivially destructible: nothing to do.
    void (*destroy)(void*);
  };

  template <typename D>
  [[nodiscard]] static const Ops* inline_ops() {
    if constexpr (std::is_trivially_copyable_v<D>) {
      static constexpr Ops ops{
          [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
          nullptr,
          nullptr,
      };
      return &ops;
    } else {
      static constexpr Ops ops{
          [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
          [](void* dst, void* src) {
            D* s = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
          },
          [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); },
      };
      return &ops;
    }
  }

  template <typename D>
  [[nodiscard]] static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
        [](void* dst, void* src) {
          ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
        },
        [](void* p) { delete *std::launder(reinterpret_cast<D**>(p)); },
    };
    return &ops;
  }

  void move_from(InlineHandler& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, o.buf_);
      } else {
        std::memcpy(buf_, o.buf_, kInlineBytes);
      }
      o.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes]{};
  const Ops* ops_{nullptr};
};

/// Calendar-queue event engine.  Drop-in API match for EventQueue.
class EventEngine {
 public:
  using Callback = InlineHandler;

  EventEngine();
  ~EventEngine();

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Schedule `fn` to run at absolute time `when`.
  void schedule_at(TimePoint when, Callback fn);

  /// Schedule `fn` to run `delay` after the current time.
  void schedule_in(Duration delay, Callback fn);

  /// Current simulation time (the timestamp of the event being processed,
  /// or of the last processed event).
  [[nodiscard]] TimePoint now() const { return TimePoint::at_seconds(now_s_); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t pending() const { return size_; }

  /// Process events in timestamp order until the queue drains or
  /// `max_events` have run.  Returns the number of events processed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Process events with timestamp <= `until`.
  std::size_t run_until(TimePoint until);

  /// Introspection for tests and the microbench: current bucket-array size
  /// and bucket width (seconds).
  [[nodiscard]] std::size_t bucket_count() const { return nbuckets_; }
  [[nodiscard]] double bucket_width() const { return width_; }

 private:
  /// One pending event: a 64-byte (one cache line) slab-resident record
  /// with the handler inline and an intrusive `next` link, so a bucket is
  /// just a head index and insert/resize never allocate (the classic
  /// calendar-queue layout).  The virtual bucket is re-derived from `when`
  /// wherever it is needed — always through the same virtual_bucket()
  /// expression, so the enqueue-time and scan-time mappings agree exactly.
  struct Node {
    double when;
    std::uint64_t seq;
    std::uint32_t next;
    InlineHandler fn;
  };
  static_assert(sizeof(Node) == 64);

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kChunkShift = 15;  ///< 32768 events = 2 MiB per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

  struct Slot {
    alignas(Node) unsigned char raw[sizeof(Node)];
  };

  [[nodiscard]] Node* at(std::uint32_t idx) {
    return std::launder(reinterpret_cast<Node*>(
        chunks_[idx >> kChunkShift][idx & kChunkMask].raw));
  }

  [[nodiscard]] std::uint32_t alloc_slot();
  [[nodiscard]] std::uint64_t virtual_bucket(double when) const;
  void insert(double when, InlineHandler fn);
  /// Locates the next event in (when, seq) order.  Advances the day cursor
  /// over empty days; never removes.  On success fills the winner's slab
  /// index and its list predecessor (kNil if it is the bucket head).
  /// Returns false only when empty().
  [[nodiscard]] bool find_min(std::uint32_t* idx, std::uint32_t* prev);
  /// Full scan for the global minimum; repositions the day cursor on its
  /// day.  Called when a whole calendar year of days turned up empty (the
  /// pending events are all far in the future).
  void locate_min_day();
  /// Rebuild the bucket array with `nbuckets` buckets and a width re-derived
  /// from the pending events' inter-event gaps.
  void resize(std::size_t nbuckets);
  void maybe_grow();
  void maybe_shrink();
  /// Dispatch event `idx` (list predecessor `prev`): unlink, invoke the
  /// handler in place, then free its slot.
  void dispatch(std::uint32_t idx, std::uint32_t prev);

  /// Slab chunks and the bucket head array are 2 MiB-aligned allocations
  /// hinted MADV_HUGEPAGE on Linux: at millions of pending events the slab
  /// spans hundreds of megabytes of randomly-accessed memory, and 4 KiB
  /// pages turn every node visit into a TLB walk.
  std::vector<Slot*> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t slab_used_{0};

  std::uint32_t* heads_{nullptr};  ///< bucket list heads into the slab
  std::size_t nbuckets_{0};
  std::vector<std::uint32_t> scratch_;  ///< resize work list, reused
  double width_{1e-6};
  double inv_width_{1e6};  ///< 1/width_: map with a multiply, not a divide
  std::uint64_t cur_vb_{0};  ///< day cursor: the virtual bucket being drained
  std::size_t size_{0};
  std::uint64_t next_seq_{0};
  double now_s_{0.0};
};

/// A self-rescheduling Poisson clock: arrivals at now() + Exp(rate) gaps,
/// each one calling `fire()`, until the next arrival would land at or after
/// `until`.  After `fire` returns the next gap is drawn from the same `rng`,
/// so a `fire` that also draws from `rng` interleaves as
/// gap, fire's draws, gap, fire's draws, ...  A non-positive rate schedules
/// nothing.  The clock state lives in one heap block that moves from each
/// arrival's handler to the next.
template <typename Fire>
void schedule_poisson(EventEngine& engine, Rng& rng, double rate, TimePoint until,
                      Fire fire) {
  struct Clock {
    EventEngine& engine;
    Rng& rng;
    double rate;
    TimePoint until;
    Fire fire;
  };
  struct Arrival {
    std::unique_ptr<Clock> clock;
    static void arm(std::unique_ptr<Clock> c) {
      const TimePoint at = c->engine.now() + Duration::seconds(c->rng.exponential(c->rate));
      if (at < c->until) {
        EventEngine& e = c->engine;
        e.schedule_at(at, Arrival{std::move(c)});
      }
    }
    void operator()() {
      clock->fire();
      arm(std::move(clock));
    }
  };
  if (rate <= 0.0) return;
  Arrival::arm(std::make_unique<Clock>(Clock{engine, rng, rate, until, std::move(fire)}));
}

}  // namespace lp::sim
