#include "phys/photodetector.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

namespace lp::phys {

namespace {
constexpr double kElectronCharge = 1.602176634e-19;  // coulombs

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Everything the sensitivity bisection reads.
struct SensitivityKey {
  PhotodetectorParams params;
  double target_ber{0.0};
  LineCode code{LineCode::kPam4};
  double baud_rate{0.0};

  [[nodiscard]] bool operator==(const SensitivityKey& o) const {
    return same_bits(params.responsivity_a_per_w, o.params.responsivity_a_per_w) &&
           same_bits(params.thermal_noise_a_rthz, o.params.thermal_noise_a_rthz) &&
           same_bits(params.dark_current_a, o.params.dark_current_a) &&
           same_bits(target_ber, o.target_ber) && code == o.code &&
           same_bits(baud_rate, o.baud_rate);
  }
};
}  // namespace

Photodetector::Photodetector(PhotodetectorParams params) : params_{params} {}

double Photodetector::photocurrent_a(Power received) const {
  return params_.responsivity_a_per_w * received.to_milliwatts() * 1e-3;
}

double Photodetector::q_factor(Power received, LineCode code, double baud_rate) const {
  const double signal_a = photocurrent_a(received);
  const double rx_bandwidth_hz = baud_rate / 2.0;  // matched-filter approximation
  const double thermal_var =
      params_.thermal_noise_a_rthz * params_.thermal_noise_a_rthz * rx_bandwidth_hz;
  const double shot_var =
      2.0 * kElectronCharge * (signal_a + params_.dark_current_a) * rx_bandwidth_hz;
  const double sigma = std::sqrt(thermal_var + shot_var);
  if (sigma <= 0.0) return 0.0;
  // PAM4 stacks 4 levels into the same swing: each decision sees 1/3 of the
  // full eye, i.e. the per-level amplitude is signal/(levels-1).
  const double levels = code == LineCode::kPam4 ? 4.0 : 2.0;
  const double per_level = signal_a / (levels - 1.0);
  return per_level / sigma;
}

double ber_from_q(double q) { return 0.5 * std::erfc(q / std::sqrt(2.0)); }

double Photodetector::bit_error_rate(Power received, LineCode code, double baud_rate) const {
  const double q = q_factor(received, code, baud_rate);
  if (code == LineCode::kPam4) {
    // Gray-coded PAM4: 3 decision thresholds over 2 bits/symbol -> the
    // standard (3/4)*erfc(...)/log2(levels)-style scaling, folded here as
    // 0.75 * per-decision error probability.
    return 0.75 * std::erfc(q / std::sqrt(2.0));
  }
  return ber_from_q(q);
}

Power Photodetector::sensitivity(double target_ber, LineCode code, double baud_rate) const {
  // The bisection is a pure function of its key and costs 80 erfc calls;
  // every link-budget evaluation asks again with the same key, so each
  // thread keeps its last answer.  Keys compare bit for bit.
  struct Memo {
    bool valid{false};
    SensitivityKey key;
    Power result;
  };
  thread_local Memo memo;
  const SensitivityKey key{params_, target_ber, code, baud_rate};
  if (memo.valid && memo.key == key) return memo.result;

  // BER decreases monotonically with power; bisect on dBm.
  double lo_dbm = -60.0;
  double hi_dbm = 20.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = (lo_dbm + hi_dbm) / 2.0;
    const double ber = bit_error_rate(Power::dbm(mid), code, baud_rate);
    if (ber > target_ber) {
      lo_dbm = mid;
    } else {
      hi_dbm = mid;
    }
  }
  memo = Memo{true, key, Power::dbm(hi_dbm)};
  return memo.result;
}

}  // namespace lp::phys
