// Shared pieces of the HemC differential fuzzers (expr_fuzz_test, stmt_fuzz_test).
#ifndef TESTS_HEMC_FUZZ_H_
#define TESTS_HEMC_FUZZ_H_

#include <cstdint>
#include <string>
#include <utility>

#include "src/base/strings.h"

namespace hemlock {

// Deterministic LCG; every failure reproduces from its seed.
struct FuzzRng {
  uint64_t state;
  uint32_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  }
};

inline int32_t Wrap(int64_t x) { return static_cast<int32_t>(static_cast<uint32_t>(x)); }

// HemC spelling of |value|: decimal, or hex for negatives (the lexer has no signed
// literals, and a unary minus would hide the constant from immediate folding).
inline std::string Spell(int32_t value) {
  return value >= 0 ? std::to_string(value) : StrFormat("0x%X", static_cast<uint32_t>(value));
}

// Draws an int32 literal: the edges of the 16-bit immediate fields (sign- and
// zero-extended), small numbers, and the whole range.
inline std::pair<std::string, int32_t> FuzzLiteral(FuzzRng& rng) {
  static constexpr int32_t kEdges[] = {0,      1,      -1,     255,         4095,
                                       32767,  32768,  -32768, -32769,      65535,
                                       65536,  -65535, -65536, INT32_MAX,   INT32_MIN};
  int32_t value = 0;
  switch (rng.Next() % 3) {
    case 0:
      value = kEdges[rng.Next() % (sizeof kEdges / sizeof kEdges[0])];
      break;
    case 1:
      value = static_cast<int32_t>(rng.Next() % 1000);
      break;
    default: {
      uint32_t high = rng.Next() << 16;  // Next() yields 31 bits
      value = static_cast<int32_t>(high ^ rng.Next());
      break;
    }
  }
  return {Spell(value), value};
}

}  // namespace hemlock

#endif  // TESTS_HEMC_FUZZ_H_
