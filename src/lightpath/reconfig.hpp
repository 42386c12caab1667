// Reconfiguration controller: programs batches of MZI switches and accounts
// for the latency the paper measures in Figure 3a.
//
// Model: switch states are shifted in serially over a JTAG-class interface
// (a small per-MZI programming cost), after which all programmed MZIs
// settle in parallel with the thermo-optic transient.  With default
// parameters a batch costs ~(n x 20 ns) + 3.7 us, so the settle dominates
// and "programming optical switches on LIGHTPATH can take up to 3.7 us".
#pragma once

#include <cstdint>

#include "phys/mzi.hpp"
#include "util/units.hpp"

namespace lp::fabric {

struct ReconfigParams {
  /// Serial shift-in time per MZI state (JTAG-class interface).
  Duration per_mzi_program{Duration::nanos(20.0)};
  /// Fixed controller overhead per batch.
  Duration batch_overhead{Duration::nanos(0.0)};
  /// MZI transient parameters; settling dominates the latency.
  phys::MziParams mzi{};
};

class ReconfigController {
 public:
  explicit ReconfigController(ReconfigParams params = {});

  [[nodiscard]] const ReconfigParams& params() const { return params_; }

  /// Latency to program a batch of `mzi_count` switches (pure query).
  [[nodiscard]] Duration batch_latency(unsigned mzi_count) const;

  /// The parallel-settle component alone (~3.7 us by default).
  [[nodiscard]] Duration settle_latency() const { return settle_; }

  /// Program a batch, accumulating statistics, and return its latency.
  Duration reconfigure(unsigned mzi_count);

  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  [[nodiscard]] std::uint64_t mzis_programmed() const { return mzis_; }
  [[nodiscard]] Duration total_time() const { return total_; }

  void reset_stats();

 private:
  ReconfigParams params_;
  /// Computed once: batch_latency runs on every connect and disconnect.
  Duration settle_;
  std::uint64_t batches_{0};
  std::uint64_t mzis_{0};
  Duration total_{Duration::zero()};
};

}  // namespace lp::fabric
