// Differential testing of HemC *statement* code generation: random straight-line and
// structured programs over a small variable set, executed on the simulated machine
// and compared against a host-side interpreter with C semantics. The variables are
// int and char locals and globals and array elements (named by constant or computed
// index); literals span the int32 range, so constants both fold into 16-bit
// immediates and fall back to full loads; some operands make calls.
#include <gtest/gtest.h>

#include <array>

#include "src/base/strings.h"
#include "src/runtime/world.h"
#include "tests/hemc_fuzz.h"

namespace hemlock {
namespace {

// The program's variables, in model order: int locals, int globals, a char local and
// a char global, then the elements of a global and a local int array.
constexpr const char* kVarNames[] = {"v0",     "v1",     "v2",     "v3",    "g0",
                                     "g1",     "c0",     "cg",     "arr[0]", "arr[1]",
                                     "arr[2]", "arr[3]", "loc[0]", "loc[1]"};
constexpr int kVars = sizeof kVarNames / sizeof kVarNames[0];
constexpr int kIntScalars = 6;  // v0..v3, g0, g1
constexpr int kFirstElement = 8;

using Vars = std::array<int32_t, kVars>;

bool IsChar(int var) { return var == 6 || var == 7; }

// A tiny program model the generator and the host interpreter share.
struct StmtGen {
  FuzzRng rng;
  explicit StmtGen(uint32_t seed) : rng{seed * 0x9E3779B97F4A7C15ull + 3} {}

  uint32_t Next() { return rng.Next(); }

  // Names a variable to read or write. Array elements are named by a literal index
  // or, half the time, by a masked int scalar.
  std::string Name(int var, const Vars& vars) {
    if (var < kFirstElement || Next() % 2 == 0) {
      return kVarNames[var];
    }
    bool global = var < kFirstElement + 4;
    int mask = global ? 3 : 1;
    int slot = var - (global ? kFirstElement : kFirstElement + 4);
    // Pick a scalar whose masked value is |slot|, if there is one.
    for (int s = 0; s < kIntScalars; ++s) {
      if ((vars[s] & mask) == slot) {
        return StrFormat("%s[(%s & %d)]", global ? "arr" : "loc", kVarNames[s], mask);
      }
    }
    return kVarNames[var];
  }

  // Generates one expression over the variables; evaluates it against |vars|. Calls
  // go to `int id(int x)`, which returns its argument.
  std::pair<std::string, int32_t> Expr(const Vars& vars) {
    int a = static_cast<int>(Next() % kVars);
    int b = static_cast<int>(Next() % kVars);
    std::string an = Name(a, vars);
    std::string bn = Name(b, vars);
    auto [lit, k] = FuzzLiteral(rng);
    const int64_t va = vars[a];
    const int64_t vb = vars[b];
    switch (Next() % 12) {
      case 0:
        return {"(" + an + " + " + bn + ")", Wrap(va + vb)};
      case 1:
        return {"(" + an + " - " + lit + ")", Wrap(va - k)};
      case 2:
        return {"(" + an + " * " + lit + ")", Wrap(va * k)};
      case 3:
        return {"(" + an + " ^ " + bn + ")", static_cast<int32_t>(va ^ vb)};
      case 4:
        return {"(" + an + " < " + bn + ")", va < vb ? 1 : 0};
      case 5:
        return {"(" + an + " + " + lit + ")", Wrap(va + k)};
      case 6:
        return {"(" + an + " & " + lit + ")", static_cast<int32_t>(va & k)};
      case 7:
        return {"(" + an + " | " + lit + ")", static_cast<int32_t>(va | k)};
      case 8:
        return {"(" + an + " < " + lit + ")", va < k ? 1 : 0};
      case 9:  // a call-free right operand that is not a leaf
        return {"(" + an + " - (" + bn + " ^ " + lit + "))", Wrap(va - (vb ^ k))};
      case 10:  // a right operand with a call
        return {"(" + an + " + id(" + bn + "))", Wrap(va + vb)};
      default:
        return {lit, k};
    }
  }

  // Stores |value| into |var| the way the machine does (chars keep their low byte).
  static void Store(Vars* vars, int var, int64_t value) {
    (*vars)[var] = IsChar(var) ? static_cast<int8_t>(value) : Wrap(value);
  }

  // Generates one statement, mutating |vars| the way the program will.
  std::string Stmt(Vars* vars, int depth) {
    switch (Next() % (depth > 0 ? 5 : 3)) {
      case 0: {  // assignment
        int target = static_cast<int>(Next() % kVars);
        std::string name = Name(target, *vars);
        auto [src, value] = Expr(*vars);
        Store(vars, target, value);
        return StrFormat("%s = %s;\n", name.c_str(), src.c_str());
      }
      case 1: {  // compound assignment
        int target = static_cast<int>(Next() % kVars);
        std::string name = Name(target, *vars);
        auto [src, value] = Expr(*vars);
        bool plus = Next() % 2 == 0;
        int64_t old = (*vars)[target];
        Store(vars, target, plus ? old + value : old - value);
        return StrFormat("%s %s %s;\n", name.c_str(), plus ? "+=" : "-=", src.c_str());
      }
      case 2: {  // increment
        int target = static_cast<int>(Next() % kVars);
        std::string name = Name(target, *vars);
        Store(vars, target, static_cast<int64_t>((*vars)[target]) + 1);
        return StrFormat("%s++;\n", name.c_str());
      }
      case 3: {  // if/else — generator decides the branch from current state
        auto [cond_src, cond_value] = Expr(*vars);
        // Both arms are generated deterministically; only the taken arm mutates the
        // model.
        Vars then_vars = *vars;
        std::string then_body = Stmt(&then_vars, depth - 1);
        Vars else_vars = *vars;
        std::string else_body = Stmt(&else_vars, depth - 1);
        *vars = cond_value != 0 ? then_vars : else_vars;
        return StrFormat("if (%s) {\n%s} else {\n%s}\n", cond_src.c_str(), then_body.c_str(),
                         else_body.c_str());
      }
      default: {  // bounded while loop
        int target = static_cast<int>(Next() % kIntScalars);
        int32_t trips = static_cast<int32_t>(Next() % 5) + 1;
        int delta = static_cast<int>(Next() % 9) + 1;
        // Model: v_target += trips * delta via a counter loop.
        Store(vars, target, static_cast<int64_t>((*vars)[target]) + trips * delta);
        return StrFormat("it = 0;\nwhile (it < %d) {\n  %s += %d;\n  it++;\n}\n", trips,
                         kVarNames[target], delta);
      }
    }
  }
};

class StmtFuzzTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StmtFuzzTest, CompiledMatchesInterpreter) {
  StmtGen gen(GetParam());
  Vars vars{};
  std::string body = "  int v0;\n  int v1;\n  int v2;\n  int v3;\n  char c0;\n  int loc[2];\n"
                     "  int it;\n";
  for (int i = 0; i < kVars; ++i) {
    StmtGen::Store(&vars, i, FuzzLiteral(gen.rng).second);
    body += StrFormat("  %s = %s;\n", kVarNames[i], Spell(vars[i]).c_str());
  }
  for (int s = 0; s < 20; ++s) {
    body += gen.Stmt(&vars, 2);
  }
  std::string expected;
  for (int i = 0; i < kVars; ++i) {
    body += StrFormat("  putint(%s);\n  puts(\"\\n\");\n", kVarNames[i]);
    expected += std::to_string(vars[i]) + "\n";
  }
  std::string program = "int g0;\nint g1;\nchar cg;\nint arr[4];\n"
                        "int id(int x) { return x + (x - x); }\n"  // clobbers $t3
                        "int main(void) {\n" + body + "  return 0;\n}\n";

  HemlockWorld world;
  Result<RunOutcome> out = world.RunProgram(program);
  ASSERT_TRUE(out.ok()) << "seed " << GetParam() << ": " << out.status().ToString()
                        << "\nprogram:\n"
                        << program;
  EXPECT_EQ(out->stdout_text, expected) << "seed " << GetParam() << "\nprogram:\n" << program;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StmtFuzzTest, ::testing::Range(100u, 150u));

}  // namespace
}  // namespace hemlock
