// Basic identifiers and geometry for the LIGHTPATH fabric model.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>

namespace lp::fabric {

/// Index of a tile within one wafer (row-major).
using TileId = std::uint32_t;

/// Index of a wafer within a multi-wafer fabric.
using WaferId = std::uint32_t;

/// Opaque handle to an established optical circuit.
using CircuitId = std::uint64_t;

/// Grid position of a tile on a wafer.
struct TileCoord {
  std::int32_t row{0};
  std::int32_t col{0};
  friend constexpr auto operator<=>(const TileCoord&, const TileCoord&) = default;
};

/// The four mesh directions; each maps to one of a tile's 1x3 MZI switches.
enum class Direction : std::uint8_t { kNorth = 0, kEast = 1, kSouth = 2, kWest = 3 };

inline constexpr std::array<Direction, 4> kAllDirections{
    Direction::kNorth, Direction::kEast, Direction::kSouth, Direction::kWest};

[[nodiscard]] constexpr Direction opposite(Direction d) {
  switch (d) {
    case Direction::kNorth: return Direction::kSouth;
    case Direction::kEast: return Direction::kWest;
    case Direction::kSouth: return Direction::kNorth;
    case Direction::kWest: return Direction::kEast;
  }
  return Direction::kNorth;
}

[[nodiscard]] constexpr const char* to_string(Direction d) {
  switch (d) {
    case Direction::kNorth: return "N";
    case Direction::kEast: return "E";
    case Direction::kSouth: return "S";
    case Direction::kWest: return "W";
  }
  return "?";
}

/// A tile on a specific wafer of a multi-wafer fabric.
struct GlobalTile {
  WaferId wafer{0};
  TileId tile{0};
  friend constexpr auto operator<=>(const GlobalTile&, const GlobalTile&) = default;
};

/// One step of a running 64-bit hash (boost-style combine with a splitmix
/// constant).  Backs the resource-ledger digests that reports fold in;
/// order-sensitive, not cryptographic.
[[nodiscard]] constexpr std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// splitmix64: a bijective, full-avalanche mix of one 64-bit value.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One ledger slot's share of an order-free ledger key (Wafer::ledger_key):
/// value × w(slot), wrapping mod 2^64, where the slot's weight w(slot) =
/// splitmix64(slot) | 1 is odd.  An empty slot contributes 0, so an unused
/// ledger keys to 0, and the term is linear in the value: a write from
/// `before` to `after` moves the key by ledger_term(slot, after − before),
/// the difference taken mod 2^64, at the cost of one hash.
[[nodiscard]] constexpr std::uint64_t ledger_term(std::uint64_t slot, std::uint64_t value) {
  return value * (splitmix64(slot) | 1);
}

}  // namespace lp::fabric
