#include "ecc/gf256.h"

#include "util/require.h"

namespace noisybeeps::gf256 {
namespace {

struct Tables {
  std::array<std::uint8_t, 512> exp{};  // doubled to avoid a mod in Mul
  std::array<int, 256> log{};

  Tables() {
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = i;
      x = static_cast<std::uint16_t>(x << 1);
      if (x & 0x100) x ^= 0x11d;
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = -1;
  }
};

const Tables& T() {
  static const Tables tables;
  return tables;
}

}  // namespace

std::uint8_t Mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return T().exp[T().log[a] + T().log[b]];
}

std::uint8_t Inv(std::uint8_t a) {
  NB_REQUIRE(a != 0, "zero has no inverse in GF(256)");
  return T().exp[255 - T().log[a]];
}

std::uint8_t Div(std::uint8_t a, std::uint8_t b) {
  NB_REQUIRE(b != 0, "division by zero in GF(256)");
  if (a == 0) return 0;
  return T().exp[(T().log[a] - T().log[b] + 255) % 255];
}

std::uint8_t Exp(int power) {
  const int p = ((power % 255) + 255) % 255;
  return T().exp[p];
}

int Log(std::uint8_t a) {
  NB_REQUIRE(a != 0, "log of zero in GF(256)");
  return T().log[a];
}

std::uint8_t EvalPoly(const std::uint8_t* coeffs, std::size_t degree_plus_one,
                      std::uint8_t x) {
  // Horner's rule from the highest coefficient down.
  std::uint8_t acc = 0;
  for (std::size_t i = degree_plus_one; i-- > 0;) {
    acc = Add(Mul(acc, x), coeffs[i]);
  }
  return acc;
}

}  // namespace noisybeeps::gf256
