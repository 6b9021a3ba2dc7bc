// The one exponential the scoring and SIMD softmax kernels share.
//
// Branchless e^x: Cephes-style range reduction (x = n ln2 + r,
// |r| <= ln2/2), a degree-5 polynomial for e^r, and 2^n built by
// exponent-field bit assembly. Every step is float arithmetic plus one
// int convert, so a loop over it vectorizes where a libm call chain
// cannot, and a lane of the vector form returns the same bits as the
// scalar call (no reduction, no contraction: the build has no FMA and
// ISO mode keeps -ffp-contract=off). Max relative error ~2 ulp
// (~2.4e-7) against libm. Inputs are clamped to the finite-result
// range, which also keeps the exponent assembly in bounds: anything
// below -87.33654 returns 2^-126 rather than a denormal or zero.
//
// Always inlined: a call left in an IMSR_HOT_BEGIN loop (a different
// optimize() context) would block that loop's vectorization.
#ifndef IMSR_NN_EXP_APPROX_H_
#define IMSR_NN_EXP_APPROX_H_

#include <cstdint>
#include <cstring>

#include "util/hot.h"

namespace imsr::nn {

IMSR_ALWAYS_INLINE float ExpApprox(float x) {
  x = x < -87.33654f ? -87.33654f : x;
  x = x > 88.72283f ? 88.72283f : x;
  // Round x/ln2 to the nearest integer with the 1.5*2^23 magic-number
  // trick (exact for |z| < 2^22; safe because nothing reassociates).
  const float z = x * 1.44269504088896341f;
  const float nf = (z + 12582912.0f) - 12582912.0f;
  // Two-part ln2 keeps r = x - n*ln2 accurate to float precision.
  const float r = (x - nf * 0.693359375f) - nf * -2.12194440e-4f;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * r * r + r + 1.0f;
  const auto biased = static_cast<uint32_t>(static_cast<int32_t>(nf) + 127);
  float scale;
  const uint32_t bits = biased << 23;
  std::memcpy(&scale, &bits, sizeof(scale));
  return p * scale;
}

}  // namespace imsr::nn

#endif  // IMSR_NN_EXP_APPROX_H_
