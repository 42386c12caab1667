// util::SlotTable against a std::unordered_map reference: the same live ids,
// values and size after every insert and erase, live values that never
// move, and recycled slots that hand back the value an erase left.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/slot_table.hpp"

namespace lp::util {
namespace {

struct Value {
  std::uint64_t tag{0};
  std::vector<int> payload;
};

TEST(SlotTable, EmptyTableFindsNothing) {
  SlotTable<Value> table;
  const SlotTable<Value>& ctable = table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(ctable.find(7), nullptr);
  EXPECT_FALSE(table.erase(7));
  std::size_t visited = 0;
  table.for_each([&](std::uint64_t, const Value&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(SlotTable, MatchesUnorderedMapUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    SlotTable<Value> table;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;  // id -> tag
    std::unordered_map<std::uint64_t, const Value*> address;     // id -> value
    std::map<const Value*, std::size_t> freed;  // recycled value -> payload capacity
    std::vector<std::uint64_t> long_lived;
    std::size_t peak = 0;
    std::uint64_t next_id = 1 + 1000 * seed;  // sequential, never reused
    const std::uint64_t first_id = next_id;

    // Phases: grow past several index doublings, then churn at a steady
    // size, then drain; a few ids live through all of it.
    const std::size_t ops = 1500;
    for (std::size_t op = 0; op < ops; ++op) {
      const double grow = op < 600 ? 0.75 : op < 1100 ? 0.5 : 0.2;
      if (reference.empty() || rng.bernoulli(grow)) {
        const std::uint64_t id = next_id++;
        Value& v = table.insert(id);
        if (const auto it = freed.find(&v); it != freed.end()) {
          EXPECT_EQ(v.payload.capacity(), it->second) << "recycled slot lost its capacity";
          freed.erase(it);
        } else {
          EXPECT_TRUE(freed.empty()) << "a new slot while dead slots were free";
          EXPECT_EQ(v.payload.capacity(), 0u);
        }
        v.tag = rng.next();
        v.payload.assign(1 + rng.uniform_index(40), static_cast<int>(id));
        reference[id] = v.tag;
        address[id] = &v;
        peak = std::max(peak, reference.size());
        if (rng.bernoulli(0.05)) long_lived.push_back(id);
      } else {
        // Erase a random live id that is not long-lived (or, rarely, one
        // that is), so short- and long-lived entries interleave.
        const bool take_long = rng.bernoulli(0.01);
        std::vector<std::uint64_t> live;
        for (const auto& [id, tag] : reference) {
          if (take_long ||
              std::find(long_lived.begin(), long_lived.end(), id) == long_lived.end()) {
            live.push_back(id);
          }
        }
        if (live.empty()) continue;
        std::sort(live.begin(), live.end());
        const std::uint64_t id = live[rng.uniform_index(live.size())];
        const Value* v = table.find(id);
        ASSERT_NE(v, nullptr);
        freed[v] = v->payload.capacity();
        EXPECT_TRUE(table.erase(id));
        EXPECT_FALSE(table.erase(id));
        reference.erase(id);
        address.erase(id);
      }

      // Every id ever handed out, plus the next one, never handed out.
      for (std::uint64_t id = first_id; id <= next_id; ++id) {
        const Value* found = std::as_const(table).find(id);
        const auto it = reference.find(id);
        if (it == reference.end()) {
          ASSERT_EQ(found, nullptr) << "id " << id << " after op " << op;
          continue;
        }
        ASSERT_NE(found, nullptr) << "id " << id << " after op " << op;
        EXPECT_EQ(found, address.at(id)) << "live value moved";
        EXPECT_EQ(found->tag, it->second);
        EXPECT_EQ(table.find(id), found);
      }
      ASSERT_EQ(table.size(), reference.size());
      std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
      table.for_each([&](std::uint64_t id, const Value& v) { seen.emplace_back(id, v.tag); });
      std::sort(seen.begin(), seen.end());
      std::vector<std::pair<std::uint64_t, std::uint64_t>> want(reference.begin(),
                                                                reference.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(seen, want) << "after op " << op;
    }
    EXPECT_GT(peak, 128u) << "the index doubled at least four times";
    EXPECT_LT(table.size(), peak) << "the table drained";
  }
}

}  // namespace
}  // namespace lp::util
