// Differential testing of HemC code generation: randomized expression trees are
// compiled and executed on the simulated machine, and the result is compared against
// a host-side evaluation of the same tree with C semantics (int32 wraparound,
// arithmetic shift, short-circuit logicals) and HemC's evaluation order (left operand
// first, call arguments last-first, an assignment's right side before its store).
//
// Operands cover every way the code generator holds a left value: leaves (literals
// across the int32 range, int and char globals and locals), call-free subtrees, and
// subtrees that make a call. Compound assignments to scalars and array elements, and
// plain and compound assignments to chars (whose value is the truncated byte), run
// inside the expressions, so side effects are checked too.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/strings.h"
#include "src/runtime/world.h"
#include "tests/hemc_fuzz.h"

namespace hemlock {
namespace {

// A variable or array element; chars hold their sign-extended byte.
struct Var {
  std::string name;  // how the program names it: "g0", "c0", "ga[2]", ...
  int32_t value;
};

struct ExprGen {
  FuzzRng rng;
  std::vector<Var> vars;

  explicit ExprGen(uint32_t seed) : rng{seed * 0x9E3779B97F4A7C15ull + 7} {
    for (const char* name : {"g0", "g1", "l0", "l1"}) {
      vars.push_back({name, FuzzLiteral(rng).second});
    }
    for (const char* name : {"c0", "d0"}) {
      vars.push_back({name, static_cast<int8_t>(rng.Next())});
    }
    for (int k = 0; k < 4; ++k) {
      vars.push_back({StrFormat("ga[%d]", k), FuzzLiteral(rng).second});
    }
    for (int k = 0; k < 2; ++k) {
      vars.push_back({StrFormat("la[%d]", k), FuzzLiteral(rng).second});
    }
  }

  uint32_t Next() { return rng.Next(); }

  // An int scalar (not char, not an element), usable as an index source.
  Var& IntScalar() { return vars[Next() % 4]; }

  // An element of the global ga[4] or the local la[2], named by a literal index or by
  // a masked int scalar.
  std::pair<std::string, Var*> Element() {
    bool global = Next() % 2 == 0;
    size_t first = global ? 6 : 10;
    int mask = global ? 3 : 1;
    if (Next() % 2 == 0) {
      Var& v = vars[first + Next() % (mask + 1)];
      return {v.name, &v};
    }
    Var& index = IntScalar();
    return {StrFormat("%s[(%s & %d)]", global ? "ga" : "la", index.name.c_str(), mask),
            &vars[first + (index.value & mask)]};
  }

  std::pair<std::string, int32_t> Leaf() {
    switch (Next() % 4) {
      case 0:
      case 1:
        return FuzzLiteral(rng);
      case 2: {
        Var& v = vars[Next() % 6];
        return {v.name, v.value};
      }
      default: {
        auto [name, v] = Element();
        return {name, v->value};
      }
    }
  }

  // Generates an expression of depth <= |depth|; returns (source, host value).
  std::pair<std::string, int32_t> Gen(int depth) {
    if (depth == 0 || Next() % 4 == 0) {
      return Leaf();
    }
    uint32_t form = Next() % 20;
    if (form < 6) {  // a constant right operand: the immediate forms and their edges
      auto [lhs, lv] = Gen(depth - 1);
      auto [lit, k] = FuzzLiteral(rng);
      return Binary(form, lhs, lv, lit, k);
    }
    if (form < 14) {
      auto [lhs, lv] = Gen(depth - 1);
      auto [rhs, rv] = Gen(depth - 1);
      return Binary(form - 6, lhs, lv, rhs, rv);
    }
    switch (form) {
      case 14:
      case 15: {  // short-circuit: the right side's effects happen only if it runs
        bool is_and = form == 14;
        auto [lhs, lv] = Gen(depth - 1);
        bool runs = is_and ? lv != 0 : lv == 0;
        std::vector<Var> saved = vars;
        auto [rhs, rv] = Gen(depth - 1);
        if (!runs) {
          vars = saved;
        }
        int32_t value = is_and ? (lv != 0 && rv != 0) : (lv != 0 || rv != 0);
        return {"(" + lhs + (is_and ? " && " : " || ") + rhs + ")", value};
      }
      case 16: {  // a call in an operand keeps the left value on the memory stack
        auto [lhs, lv] = Gen(depth - 1);
        auto [arg, av] = Gen(depth - 1);
        return {"(" + lhs + " - id(" + arg + "))", Wrap(static_cast<int64_t>(lv) - av)};
      }
      case 17: {  // arguments are evaluated last-first
        auto [b, bv] = Gen(depth - 1);
        auto [a, av] = Gen(depth - 1);
        return {"sub2(" + a + ", " + b + ")", Wrap(static_cast<int64_t>(av) - bv)};
      }
      default: {  // compound assignment to an int scalar or an array element, or
                  // any assignment to a char, whose value is the truncated byte
        bool plus = form == 18;
        std::string target;
        Var* v = nullptr;
        switch (Next() % 3) {
          case 0:
            v = &IntScalar();
            target = v->name;
            break;
          case 1: {
            auto [name, element] = Element();  // the address is taken before the right side
            target = name;
            v = element;
            break;
          }
          default:
            v = &vars[4 + Next() % 2];  // c0 or d0
            target = v->name;
            break;
        }
        bool is_char = v->name[0] == 'c' || v->name[0] == 'd';
        bool plain = is_char && Next() % 3 == 0;
        size_t slot = static_cast<size_t>(v - vars.data());
        auto [rhs, rv] = Gen(depth - 1);
        Var& t = vars[slot];
        int32_t value = plain ? rv
                        : Wrap(plus ? static_cast<int64_t>(t.value) + rv
                                    : static_cast<int64_t>(t.value) - rv);
        t.value = is_char ? static_cast<int8_t>(value) : value;
        const char* op = plain ? " = " : plus ? " += " : " -= ";
        return {"(" + target + op + rhs + ")", t.value};
      }
    }
  }

  static std::pair<std::string, int32_t> Binary(uint32_t op, const std::string& lhs, int32_t lv,
                                                const std::string& rhs, int32_t rv) {
    auto form = [&](const char* sym, int32_t value) {
      return std::pair<std::string, int32_t>{"(" + lhs + " " + sym + " " + rhs + ")", value};
    };
    switch (op) {
      case 0:
        return form("+", Wrap(static_cast<int64_t>(lv) + rv));
      case 1:
        return form("-", Wrap(static_cast<int64_t>(lv) - rv));
      case 2:
        return form("&", lv & rv);
      case 3:
        return form("|", lv | rv);
      case 4:
        return form("^", lv ^ rv);
      case 5:
        return form("<", lv < rv ? 1 : 0);
      case 6:
        return form("*", Wrap(static_cast<int64_t>(lv) * rv));
      case 7:
        return form("==", lv == rv ? 1 : 0);
      case 8:
        return form("!=", lv != rv ? 1 : 0);
      case 9:
        return form(">", lv > rv ? 1 : 0);
      case 10:
        return form("<=", lv <= rv ? 1 : 0);
      case 11:
        return form(">=", lv >= rv ? 1 : 0);
      case 12:
        return {"(" + lhs + " << 3)", Wrap(static_cast<int64_t>(static_cast<uint32_t>(lv)) << 3)};
      default:
        return {"(" + lhs + " >> 2)", lv >> 2};
    }
  }
};

class ExprFuzzTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ExprFuzzTest, CompiledMatchesHostSemantics) {
  ExprGen gen(GetParam());
  const std::vector<Var>& v = gen.vars;
  std::string program = StrFormat(
      "int g0 = %s;\nint g1 = %s;\nchar c0 = %s;\nint ga[4] = {%s, %s, %s, %s};\n"
      // The callees hold values in $t3/$t4 themselves, so a caller that wrongly kept
      // a left value there across a call would read theirs.
      "int id(int x) { return x + (x - x); }\n"
      "int sub2(int a, int b) { return a - (b + (a - a)); }\n"
      "int main(void) {\n  int l0;\n  int l1;\n  char d0;\n  int la[2];\n"
      "  l0 = %s;\n  l1 = %s;\n  d0 = %s;\n  la[0] = %s;\n  la[1] = %s;\n",
      Spell(v[0].value).c_str(), Spell(v[1].value).c_str(), Spell(v[4].value).c_str(),
      Spell(v[6].value).c_str(), Spell(v[7].value).c_str(), Spell(v[8].value).c_str(),
      Spell(v[9].value).c_str(), Spell(v[2].value).c_str(), Spell(v[3].value).c_str(),
      Spell(v[5].value).c_str(), Spell(v[10].value).c_str(), Spell(v[11].value).c_str());
  std::string expected;
  for (int e = 0; e < 8; ++e) {
    auto [src, value] = gen.Gen(4);
    program += StrFormat("  putint(%s);\n  puts(\"\\n\");\n", src.c_str());
    expected += std::to_string(value) + "\n";
  }
  for (const Var& var : gen.vars) {  // every side effect landed where it should
    program += StrFormat("  putint(%s);\n  puts(\"\\n\");\n", var.name.c_str());
    expected += std::to_string(var.value) + "\n";
  }
  program += "  return 0;\n}\n";

  HemlockWorld world;
  Result<RunOutcome> out = world.RunProgram(program);
  ASSERT_TRUE(out.ok()) << "seed " << GetParam() << ": " << out.status().ToString()
                        << "\nprogram:\n"
                        << program;
  EXPECT_EQ(out->stdout_text, expected) << "seed " << GetParam() << "\nprogram:\n" << program;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprFuzzTest,
                         ::testing::Range(1u, 51u));  // 50 seeds x 8 expressions

}  // namespace
}  // namespace hemlock
