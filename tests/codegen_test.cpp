// Count gates for HemC code generation on the benchmark's hot loop. The worker below
// is hembench's shared_compute program (hembench/workloads.cc). Both checks read
// deterministic counts, never the wall clock: the inner loop's emitted .text must
// not touch the $sp stack, and a fixed run must retire at most kMaxPerIteration
// instructions per inner iteration.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "src/base/strings.h"
#include "src/isa/isa.h"
#include "src/lang/compiler.h"
#include "src/runtime/sync.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

constexpr uint64_t kMaxPerIteration = 45;

std::string WorkerSource(int outer, int inner) {
  return HemSyncDecls() + StrFormat(R"(
extern int table[4096];
extern int counter_lock;
extern int counter_value;
int main(void) {
  int idx;
  int i;
  int j;
  idx = (sys_getpid() * 977) & 4095;
  for (i = 0; i < %d; i += 1) {
    for (j = 0; j < %d; j += 1) {
      idx = table[idx] & 4095;
      table[idx] = table[idx] + 4096;
    }
    hem_mutex_lock(&counter_lock);
    counter_value = counter_value + 1;
    hem_mutex_unlock(&counter_lock);
  }
  return idx;
}
)",
                                    outer, inner);
}

// The first backward unconditional branch in |text| closes the innermost loop; returns
// the loop's instructions, from the branch target through the branch.
std::vector<Instr> InnerLoop(const std::vector<uint8_t>& text) {
  for (size_t off = 0; off + 4 <= text.size(); off += 4) {
    uint32_t word = 0;
    std::memcpy(&word, text.data() + off, 4);
    std::optional<Instr> in = Decode(word);
    if (!in || in->op != Op::kBeq || in->rs != kRegZero || in->rt != kRegZero || in->imm >= 0) {
      continue;
    }
    size_t top = off + 4 + static_cast<int64_t>(in->imm) * 4;
    std::vector<Instr> loop;
    for (size_t at = top; at <= off; at += 4) {
      std::memcpy(&word, text.data() + at, 4);
      loop.push_back(*Decode(word));
    }
    return loop;
  }
  return {};
}

TEST(CodegenCountTest, SharedComputeInnerLoopKeepsTemporariesOffTheStack) {
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  Result<ObjectFile> obj = CompileHemC(WorkerSource(200, 64), "worker", no_prelude);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  std::vector<Instr> loop = InnerLoop(obj->text());
  ASSERT_FALSE(loop.empty());
  EXPECT_LE(loop.size(), kMaxPerIteration);
  for (size_t k = 0; k < loop.size(); ++k) {
    const Instr& in = loop[k];
    bool mem = in.op == Op::kLw || in.op == Op::kLb || in.op == Op::kLbu ||
               in.op == Op::kSw || in.op == Op::kSb;
    EXPECT_FALSE(mem && in.rs == kRegSp) << "instruction " << k << " is $sp-relative";
    EXPECT_FALSE(in.op == Op::kAddi && in.rt == kRegSp) << "instruction " << k << " moves $sp";
  }
}

// Instructions one process retires running the worker with |inner| steps per round.
uint64_t RetiredInstructions(int inner) {
  HemlockWorld world;
  EXPECT_TRUE(InstallHemSync(world).ok());
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  std::string table = "int table[4096];\nint counter_lock = 0;\nint counter_value = 0;\n";
  EXPECT_TRUE(world.CompileTo(table, "/shm/sc/table.o", no_prelude).ok());
  uint64_t before = world.machine().ticks();
  Result<RunOutcome> out = world.RunProgram(
      WorkerSource(1, inner), {{"/shm/sc/table.o", ShareClass::kDynamicPublic},
                               {"/shm/lib/hemsync.o", ShareClass::kDynamicPublic}});
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return world.machine().ticks() - before;
}

TEST(CodegenCountTest, SharedComputeInnerLoopRetiresAtMost45PerIteration) {
  uint64_t short_run = RetiredInstructions(64);
  uint64_t long_run = RetiredInstructions(128);
  ASSERT_GT(long_run, short_run);
  uint64_t per_iteration = (long_run - short_run) / 64;
  EXPECT_EQ((long_run - short_run) % 64, 0u) << "the loop body is straight-line";
  EXPECT_LE(per_iteration, kMaxPerIteration);
  // The same figure from the run and from the emitted loop body.
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  Result<ObjectFile> obj = CompileHemC(WorkerSource(1, 64), "worker", no_prelude);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(per_iteration, InnerLoop(obj->text()).size());
}

}  // namespace
}  // namespace hemlock
