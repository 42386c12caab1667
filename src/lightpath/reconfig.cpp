#include "lightpath/reconfig.hpp"

namespace lp::fabric {

ReconfigController::ReconfigController(ReconfigParams params)
    : params_{params}, settle_{phys::Mzi{params_.mzi}.settling_time()} {}

Duration ReconfigController::batch_latency(unsigned mzi_count) const {
  if (mzi_count == 0) return Duration::zero();
  return params_.batch_overhead +
         params_.per_mzi_program * static_cast<double>(mzi_count) + settle_latency();
}

Duration ReconfigController::reconfigure(unsigned mzi_count) {
  const Duration latency = batch_latency(mzi_count);
  if (mzi_count > 0) {
    ++batches_;
    mzis_ += mzi_count;
    total_ += latency;
  }
  return latency;
}

void ReconfigController::reset_stats() {
  batches_ = 0;
  mzis_ = 0;
  total_ = Duration::zero();
}

}  // namespace lp::fabric
