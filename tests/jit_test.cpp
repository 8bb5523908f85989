// Tests for the template-JIT tier above the decoded-block cache: hot blocks
// compile to host code and chain to each other, but every architectural edge —
// quantum cuts, faults, division traps, self-modifying stores, arena exhaustion
// — must land exactly where the reference decode-every-step loop lands. The
// world-level tests pin the production configuration (JIT on by default) against
// the reference interpreter byte-for-byte, including under 4-core SMP SMC.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/isa/isa.h"
#include "src/kernel/scheduler.h"
#include "src/runtime/world.h"
#include "src/vm/cpu.h"
#include "src/vm/exec_cache.h"
#include "src/vm/jit.h"
#include "src/vm/machine.h"

namespace hemlock {
namespace {

uint64_t MetricValue(const MetricsSnapshot& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

// --- Cpu-level: the JIT wired next to the block cache, threshold 1 ---

class JitCpuTest : public ::testing::Test {
 protected:
  SharedFs sfs_;
  AddressSpace space_{&sfs_};
  ExecCache cache_;
  Jit jit_;
  const Jit::Counts& counts_ = jit_.counts();

  void SetUp() override {
    if (!Jit::HostSupported()) {
      GTEST_SKIP() << "no template backend for this host architecture";
    }
    jit_.set_threshold(1);  // compile on first dispatch: every test exercises it
  }

  // Writes |words| at vaddr 0 in a fresh kAll private page (code and data
  // legally share it, so stores can rewrite instructions).
  void InstallCode(const std::vector<uint32_t>& words) {
    auto backing = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
    ASSERT_TRUE(space_.MapPrivate(0, kPageSize, Prot::kAll, backing, 0).ok());
    for (size_t i = 0; i < words.size(); ++i) {
      Fault fault;
      ASSERT_TRUE(space_.Store32(static_cast<uint32_t>(4 * i), words[i], &fault));
    }
  }

  // Runs |words| on the reference decode-every-step loop in a throwaway space
  // and returns the final state, for differential assertions.
  struct RefRun {
    CpuState st;
    StopReason stop;
    uint64_t steps = 0;
    Fault fault;
  };
  RefRun RunReference(const std::vector<uint32_t>& words, uint64_t budget = 100000) {
    RefRun out;
    SharedFs sfs;
    AddressSpace space(&sfs);
    auto backing = std::make_shared<std::vector<uint8_t>>(kPageSize, 0);
    EXPECT_TRUE(space.MapPrivate(0, kPageSize, Prot::kAll, backing, 0).ok());
    for (size_t i = 0; i < words.size(); ++i) {
      Fault fault;
      EXPECT_TRUE(space.Store32(static_cast<uint32_t>(4 * i), words[i], &fault));
    }
    Cpu cpu(&space);  // no exec cache, no jit: the reference loop
    out.stop = cpu.Run(&out.st, budget, &out.steps, &out.fault);
    return out;
  }
};

TEST_F(JitCpuTest, CompilesChainsAndMatchesReferenceOnAHotLoop) {
  //   0x00 addi t0, zero, 0
  //   0x04 addi t1, zero, 1000
  //   0x08 addi t0, t0, 1        <- loop head (branch target: its own block)
  //   0x0C bne  t0, t1, -> 0x08
  //   0x10 break
  std::vector<uint32_t> words = {
      EncodeI(Op::kAddi, kRegT0, kRegZero, 0),
      EncodeI(Op::kAddi, kRegT1, kRegZero, 1000),
      EncodeI(Op::kAddi, kRegT0, kRegT0, 1),
      EncodeI(Op::kBne, kRegT1, kRegT0, static_cast<uint16_t>(-2)),
      EncodeBreak(),
  };
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 100000, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegT0], 1000u);

  RefRun ref = RunReference(words);
  EXPECT_EQ(ref.stop, StopReason::kBreak);
  EXPECT_EQ(st.regs, ref.st.regs);
  EXPECT_EQ(st.pc, ref.st.pc);
  EXPECT_EQ(steps, ref.steps) << "retired-instruction accounting diverged";

  // The loop head compiled and chained back to itself (and onward to break).
  EXPECT_GE(counts_.compiled, 2u);
  EXPECT_GE(counts_.chained, 1u);
  EXPECT_GT(counts_.arena_bytes, 0u);
  EXPECT_EQ(counts_.deopts, 0u);
}

TEST_F(JitCpuTest, QuantumEdgeStillCutsAtTheExactInstruction) {
  InstallCode({
      EncodeI(Op::kAddi, kRegT0, kRegZero, 1),
      EncodeI(Op::kAddi, kRegT1, kRegZero, 2),
      EncodeI(Op::kAddi, kRegT2, kRegZero, 3),
      EncodeBreak(),
  });
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  // Budget 2 is shorter than the block: the JIT must decline (not round the
  // quantum up to a block boundary) and the interpreter cuts after exactly 2.
  EXPECT_EQ(cpu.Run(&st, 2, &steps, &fault), StopReason::kSteps);
  EXPECT_EQ(steps, 2u);
  EXPECT_EQ(st.pc, 8u);
  EXPECT_EQ(st.regs[kRegT2], 0u);
  EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegT2], 3u);
}

TEST_F(JitCpuTest, FaultingLoadLeavesPcAtTheInstruction) {
  std::vector<uint32_t> words = {
      EncodeI(Op::kAddi, kRegT0, kRegZero, 1),
      EncodeI(Op::kLw, kRegT1, kRegZero, 0x7FF0),  // unmapped: faults
      EncodeBreak(),
  };
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kFault);
  EXPECT_EQ(steps, 1u);  // the faulting lw is not counted (fuel refunded)
  EXPECT_EQ(st.pc, 4u);  // pc at the faulting lw, ready for retry
  EXPECT_EQ(fault.addr, 0x7FF0u);
  EXPECT_GE(counts_.compiled, 1u) << "the block never reached native code";

  RefRun ref = RunReference(words);
  EXPECT_EQ(ref.stop, StopReason::kFault);
  EXPECT_EQ(st.pc, ref.st.pc);
  EXPECT_EQ(steps, ref.steps);
  EXPECT_EQ(fault.addr, ref.fault.addr);
}

TEST_F(JitCpuTest, DivByZeroTrapsLikeTheReferenceLoop) {
  std::vector<uint32_t> words = {
      EncodeI(Op::kAddi, kRegT0, kRegZero, 7),
      EncodeI(Op::kAddi, kRegT1, kRegZero, 0),
      EncodeR(Funct::kDiv, kRegT2, kRegT0, kRegT1),
      EncodeBreak(),
  };
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  StopReason stop = cpu.Run(&st, 100, &steps, &fault);

  RefRun ref = RunReference(words);
  EXPECT_EQ(stop, ref.stop);
  EXPECT_EQ(st.pc, ref.st.pc);
  EXPECT_EQ(steps, ref.steps);
  EXPECT_EQ(st.regs, ref.st.regs);
  EXPECT_EQ(stop, StopReason::kDivZero);
  EXPECT_GE(counts_.compiled, 1u);
}

TEST_F(JitCpuTest, InBlockSelfModificationDeoptsAndMatchesReference) {
  // The store at 0x04 rewrites the instruction at 0x0C in its *own* compiled
  // block. The store helper sees the code epoch move and exits native code
  // after the store; the next dispatch retires the arena and recompiles.
  std::vector<uint32_t> words = {
      EncodeI(Op::kAddi, kRegT1, kRegZero, 0),
      EncodeI(Op::kSw, kRegT2, kRegZero, 0x0C),
      EncodeI(Op::kAddi, kRegT3, kRegZero, 11),
      EncodeI(Op::kAddi, kRegT4, kRegZero, 11),
      EncodeBreak(),
  };
  uint32_t patched = EncodeI(Op::kAddi, kRegT4, kRegZero, 22);
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&jit_);
  CpuState st;
  st.regs[kRegT2] = patched;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 100, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(steps, 5u);
  EXPECT_EQ(st.regs[kRegT4], 22u) << "stale compiled block executed after the store";
  EXPECT_EQ(st.regs[kRegT3], 11u);
  EXPECT_GE(counts_.compiled, 1u);
  EXPECT_GE(counts_.deopts, 1u) << "the SMC exit never retired the compiled block";
}

TEST_F(JitCpuTest, ArenaExhaustionFallsBackToTheBlockCache) {
  // A minimum-size (one page) arena and a straight-line block whose expansion
  // cannot fit it: the first Compile overflows, latches arena-full, and every
  // later dispatch stays on the interpreter tier.
  Jit tiny(/*arena_bytes=*/kPageSize);
  tiny.set_threshold(1);
  std::vector<uint32_t> words;
  for (int i = 0; i < 256; ++i) {  // 256 TLB-probing loads ≫ one page of host code
    words.push_back(EncodeI(Op::kLw, kRegT0, kRegZero, 0x800));
  }
  words.push_back(EncodeI(Op::kAddi, kRegT1, kRegZero, 7));
  words.push_back(EncodeBreak());
  InstallCode(words);
  Cpu cpu(&space_);
  cpu.set_exec_cache(&cache_);
  cpu.set_jit(&tiny);
  CpuState st;
  uint64_t steps = 0;
  Fault fault;
  EXPECT_EQ(cpu.Run(&st, 1000, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st.regs[kRegT1], 7u);
  EXPECT_EQ(tiny.compiled_blocks(), 0u);
  EXPECT_TRUE(tiny.arena_full());
  EXPECT_GE(tiny.counts().bailouts, 1u);
  // And the run still re-dispatches safely: a second pass is pure bailouts.
  CpuState st2;
  EXPECT_EQ(cpu.Run(&st2, 1000, &steps, &fault), StopReason::kBreak);
  EXPECT_EQ(st2.regs[kRegT1], 7u);
}

// --- End-to-end: the JIT is the default engine and must be invisible ---

constexpr char kHotLoopProg[] = R"(
  int main(void) {
    int i;
    int acc;
    acc = 1;
    for (i = 1; i < 5000; i += 1) {
      acc = acc * 3 + i;
      acc = acc - acc / 7;
      acc = acc & 16777215;
    }
    putint(acc);
    puts("\n");
    return acc & 63;
  }
)";

TEST(JitEndToEnd, ByteIdenticalToTheReferenceInterpreter) {
  HemlockWorld jit_world;
  jit_world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
  jit_world.machine().set_jit_enabled(true);   // pin: CI sets HEMLOCK_JIT=0
  jit_world.machine().set_jit_threshold(1);
  Result<RunOutcome> jit = jit_world.RunProgram(kHotLoopProg);
  ASSERT_TRUE(jit.ok()) << jit.status().ToString();

  HemlockWorld slow_world;
  slow_world.machine().set_slow_interp(true);
  Result<RunOutcome> slow = slow_world.RunProgram(kHotLoopProg);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();

  EXPECT_EQ(jit->stdout_text, slow->stdout_text);
  EXPECT_EQ(jit->exit_code, slow->exit_code);
  if (Jit::HostSupported()) {
    EXPECT_GT(MetricValue(jit->metrics, "vm.jit.compiled_blocks"), 0u);
    EXPECT_GT(MetricValue(jit->metrics, "vm.jit.arena_bytes"), 0u);
  }
  EXPECT_EQ(MetricValue(slow->metrics, "vm.jit.compiled_blocks"), 0u);
}

// The inline probe's TLB hits are added to the AddressSpace's own count, which
// the Machine folds into vm.tlb.hits: a run whose loop loads stay in compiled code
// reports the same hits as the block-cache engine.
TEST(JitEndToEnd, InlineProbeHitsReachTheMachineRegistry) {
  if (!Jit::HostSupported()) {
    GTEST_SKIP() << "no template backend for this host architecture";
  }
  constexpr char kLoadLoopProg[] = R"(
    int table[16];
    int main(void) {
      int i;
      int acc;
      acc = 0;
      for (i = 0; i < 3000; i += 1) { acc = acc + table[i & 15] + i; }
      return acc & 63;
    })";
  auto run = [&](bool jit) -> MetricsSnapshot {
    HemlockWorld world;
    world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
    world.machine().set_jit_enabled(jit);    // pin: CI sets HEMLOCK_JIT=0
    world.machine().set_jit_threshold(1);
    Result<RunOutcome> out = world.RunProgram(kLoadLoopProg);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out->metrics : MetricsSnapshot{};
  };
  MetricsSnapshot jit = run(true);
  MetricsSnapshot cache = run(false);
  EXPECT_GT(MetricValue(jit, "vm.jit.compiled_blocks"), 0u);
  EXPECT_GT(MetricValue(jit, "vm.tlb.hits"), 3000u);
  EXPECT_EQ(MetricValue(jit, "vm.tlb.hits"), MetricValue(cache, "vm.tlb.hits"));
}

TEST(JitEndToEnd, RaceDetectorKeepsTheJitOff) {
  // The race detector needs the observed per-access interpreter loop; a quantum
  // that ran native code would silently drop accesses from the happens-before
  // graph. The engine must self-disable, not merely under-report.
  HemlockWorld world;
  world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
  world.machine().set_jit_enabled(true);   // pin: CI sets HEMLOCK_JIT=0
  world.machine().set_jit_threshold(1);
  world.machine().EnableRaceDetector();
  Result<RunOutcome> out = world.RunProgram(kHotLoopProg);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(MetricValue(out->metrics, "vm.jit.compiled_blocks"), 0u)
      << "native code ran under the race detector";

  HemlockWorld slow_world;
  slow_world.machine().set_slow_interp(true);
  Result<RunOutcome> slow = slow_world.RunProgram(kHotLoopProg);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(out->stdout_text, slow->stdout_text);
  EXPECT_EQ(out->exit_code, slow->exit_code);
}

// --- SMP: cross-core SMC with compiled blocks on every core ---

// The writer patches a shared function's code while readers on other cores sit
// in compiled blocks that called it. The code-epoch bump must unlink/retire the
// compiled code on every core exactly like it retires decoded blocks: 4 real
// cores must be byte-for-byte the single-core reference.
TEST(JitSmp, CrossCoreSmcByteIdenticalAcrossCoreCounts) {
  auto run_once = [](int cores) -> std::vector<std::string> {
    HemlockWorld world;
    world.machine().set_slow_interp(false);  // pin: CI sets HEMLOCK_SLOW_INTERP
    world.machine().set_jit_enabled(true);   // pin: CI sets HEMLOCK_JIT=0
    world.machine().set_jit_threshold(1);
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    (void)world.vfs().MkdirAll("/shm/lib");
    EXPECT_TRUE(world
                    .CompileTo("int phase = 0;\nint f(void) { return 12345; }\n",
                               "/shm/lib/smc_db.o", no_prelude)
                    .ok());
    EXPECT_TRUE(world
                    .CompileTo(
                        "extern int phase;\n"
                        "extern int f[8];\n"
                        "int main(void) {\n"
                        "  int i;\n"
                        "  while (sys_cas(&phase, 2, 2) != 2) {\n"
                        "    sys_yield();\n"
                        "  }\n"
                        "  for (i = 0; i < 8; i += 1) {\n"
                        "    if (f[i] % 65536 == 12345) {\n"
                        "      f[i] = f[i] + 2;\n"
                        "    }\n"
                        "  }\n"
                        "  sys_cas(&phase, 2, 3);\n"
                        "  return 0;\n"
                        "}\n",
                        "/home/user/smc_writer.o")
                    .ok());
    EXPECT_TRUE(world
                    .CompileTo(
                        "extern int phase;\n"
                        "extern int f(void);\n"
                        "int main(void) {\n"
                        "  int before;\n"
                        "  int after;\n"
                        "  before = f();\n"
                        "  sys_cas(&phase, 0, 1);\n"
                        "  sys_cas(&phase, 1, 2);\n"
                        "  while (sys_cas(&phase, 3, 3) != 3) {\n"
                        "    sys_yield();\n"
                        "  }\n"
                        "  after = f();\n"
                        "  putint(before);\n"
                        "  puts(\"->\");\n"
                        "  putint(after);\n"
                        "  puts(\"\\n\");\n"
                        "  return 0;\n"
                        "}\n",
                        "/home/user/smc_reader.o")
                    .ok());
    auto link_one = [&](const char* obj) {
      LdsOptions lds;
      lds.inputs.push_back({obj, ShareClass::kStaticPrivate});
      lds.inputs.push_back({"/shm/lib/smc_db.o", ShareClass::kDynamicPublic});
      return world.Link(lds);
    };
    Result<LoadImage> writer = link_one("/home/user/smc_writer.o");
    Result<LoadImage> reader = link_one("/home/user/smc_reader.o");
    EXPECT_TRUE(writer.ok() && reader.ok());
    std::vector<int> pids;
    Result<ExecResult> r = world.Exec(*reader);
    EXPECT_TRUE(r.ok());
    pids.push_back(r->pid);
    Result<ExecResult> w = world.Exec(*writer);
    EXPECT_TRUE(w.ok());
    pids.push_back(w->pid);
    SchedParams params;
    params.quantum = 128;
    params.num_cores = cores;
    EXPECT_EQ(world.machine().RunScheduled(params, 100'000'000), SchedStatus::kExited)
        << "cores " << cores;
    std::vector<std::string> outs;
    for (int pid : pids) {
      Process* proc = world.machine().FindProcess(pid);
      EXPECT_NE(proc, nullptr);
      outs.push_back(proc != nullptr ? proc->stdout_text() : "<gone>");
    }
    if (Jit::HostSupported()) {
      EXPECT_GT(world.machine().metrics().Get("vm.jit.compiled_blocks"), 0u)
          << "cores " << cores << ": the run never reached native code";
    }
    return outs;
  };
  std::vector<std::string> reference = run_once(1);
  std::vector<std::string> smp = run_once(4);
  EXPECT_EQ(reference, smp) << "SMC visibility diverged between 1 and 4 cores";
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[0], "12345->12347\n");
}

}  // namespace
}  // namespace hemlock
