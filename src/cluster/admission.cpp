#include "cluster/admission.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

namespace lp::cluster {

void AdmissionQueue::push(std::uint64_t id, topo::Shape shape) {
  auto it = std::find_if(classes_.begin(), classes_.end(),
                         [&](const Class& c) { return c.shape == shape; });
  if (it == classes_.end()) {
    classes_.push_back(Class{shape, shape.size(), {}});
    it = std::prev(classes_.end());
  }
  it->fifo.push_back(Entry{next_seq_++, id});
  ++size_;
}

std::size_t AdmissionQueue::pass(bool can_morph, const Callback& place,
                                 const Callback& stage) {
  assert(staged_.empty() && "settle() the previous pass first");
  for (Class& c : classes_) {
    c.failed = false;
    c.cursor = 0;
  }
  std::int32_t failed_morph_volume = std::numeric_limits<std::int32_t>::max();
  const auto ruled_out = [&](const Class& c) {
    return c.failed && (!can_morph || c.volume >= failed_morph_volume);
  };

  // Every step pops an entry or moves a cursor past one, so the pass ends.
  std::size_t visited = 0;
  for (;;) {
    // The live class whose next entry was pushed first.
    Class* next = nullptr;
    for (Class& c : classes_) {
      if (c.cursor == c.fifo.size() || ruled_out(c)) continue;
      if (next == nullptr || c.fifo[c.cursor].seq < next->fifo[next->cursor].seq) {
        next = &c;
      }
    }
    if (next == nullptr) return visited;
    ++visited;
    Class& c = *next;
    const std::uint64_t id = c.fifo[c.cursor].id;
    if (!c.failed) {
      assert(c.cursor == 0);
      if (place(id)) {
        c.fifo.pop_front();
        --size_;
        continue;
      }
      c.failed = true;
    }
    if (can_morph && c.volume < failed_morph_volume) {
      if (stage(id)) {
        staged_.push_back(Staged{static_cast<std::size_t>(&c - classes_.data()), c.cursor});
        ++c.cursor;
        continue;
      }
      failed_morph_volume = c.volume;
    }
    // The entry stays queued, and ruled_out(c) now holds.
    ++c.cursor;
  }
}

void AdmissionQueue::settle(const std::vector<bool>& started) {
  assert(started.size() == staged_.size());
  // Mark the started jobs, then compact each class's looked-at prefix in
  // order: the jobs that did not start keep their place.
  constexpr std::uint64_t kStarted = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    if (started[i]) classes_[staged_[i].cls].fifo[staged_[i].pos].seq = kStarted;
  }
  for (Class& c : classes_) {
    const auto end = c.fifo.begin() + static_cast<std::ptrdiff_t>(c.cursor);
    const auto kept = std::remove_if(c.fifo.begin(), end,
                                     [](const Entry& e) { return e.seq == kStarted; });
    size_ -= static_cast<std::size_t>(end - kept);
    c.fifo.erase(kept, end);
    c.cursor = 0;
  }
  staged_.clear();
}

std::vector<std::uint64_t> AdmissionQueue::ids() const {
  std::vector<Entry> all;
  all.reserve(size_);
  for (const Class& c : classes_) all.insert(all.end(), c.fifo.begin(), c.fifo.end());
  std::sort(all.begin(), all.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  std::vector<std::uint64_t> out;
  out.reserve(all.size());
  for (const Entry& e : all) out.push_back(e.id);
  return out;
}

}  // namespace lp::cluster
