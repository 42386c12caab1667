// Photodetector noise model and receiver sensitivity.
//
// The receive side of a LIGHTPATH tile demultiplexes wavelengths and
// converts them to electrical signals with photodetectors (§3).  For the
// link budget we need: received power -> electrical SNR -> bit error rate,
// and its inverse, the sensitivity (minimum power for a target BER).
//
// Noise model: thermal (input-referred current density) + shot noise on the
// photocurrent, both integrated over a receiver bandwidth of half the baud
// rate.  Signal is the mean photocurrent R*P.  For PAM4 the eye opening per
// level is 1/3 of the full swing, costing ~9.5 dB of SNR versus NRZ, which
// is folded into the Q calculation.
#pragma once

#include "phys/modulator.hpp"
#include "util/units.hpp"

namespace lp::phys {

struct PhotodetectorParams {
  /// Responsivity in amperes per watt.
  double responsivity_a_per_w{0.9};
  /// Input-referred thermal noise current density, A/sqrt(Hz).
  double thermal_noise_a_rthz{12e-12};
  /// Dark current (A); contributes shot noise even at zero signal.
  double dark_current_a{50e-9};
};

class Photodetector {
 public:
  explicit Photodetector(PhotodetectorParams params = {});

  [[nodiscard]] const PhotodetectorParams& params() const { return params_; }

  /// Mean photocurrent for the given received optical power.
  [[nodiscard]] double photocurrent_a(Power received) const;

  /// Q-factor of the detected eye for the given received power, line code
  /// and baud rate.  Q relates to BER as BER = 0.5*erfc(Q/sqrt(2)) per
  /// binary decision.
  [[nodiscard]] double q_factor(Power received, LineCode code, double baud_rate) const;

  /// Bit error rate at the given operating point.
  [[nodiscard]] double bit_error_rate(Power received, LineCode code, double baud_rate) const;

  /// Minimum received power achieving `target_ber` (bisection search).  Each
  /// thread remembers its last (params, target, code, baud) and answers a
  /// repeat from that memo: the result is exactly what the bisection returns.
  [[nodiscard]] Power sensitivity(double target_ber, LineCode code, double baud_rate) const;

 private:
  PhotodetectorParams params_;
};

/// Standard Q-function-based BER for a binary decision: 0.5*erfc(q/sqrt 2).
[[nodiscard]] double ber_from_q(double q);

}  // namespace lp::phys
