// Doc-drift check: every counter a run registers is named in docs/OBSERVABILITY.md.
//
// A small program links a public module and runs as two processes on two cores
// with the race detector and the JIT tier on, so the machine registry holds the
// vm.*, vm.sched.core.<n>.*, vm.race.*, vm.jit.* and sfs.* families and the
// linker's registry holds ldl.*. Each name in the merged snapshot must appear in
// the document in backticks, with per-core indices written as `<n>`.
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/world.h"

namespace hemlock {
namespace {

std::string ReadDoc() {
  std::ifstream in(std::string(HEMLOCK_DOCS_DIR) + "/OBSERVABILITY.md");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ObservabilityDocs, EveryRegisteredCounterIsDocumented) {
  HemlockWorld world;
  world.machine().set_jit_enabled(true);
  world.machine().EnableRaceDetector();
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  ASSERT_TRUE(world.vfs().MkdirAll("/shm/lib").ok());
  ASSERT_TRUE(world
                  .CompileTo("int count;\nint bump(void) { count = count + 1; return count; }\n",
                             "/shm/lib/counter.o", no_prelude)
                  .ok());
  ASSERT_TRUE(world
                  .CompileTo("extern int bump(void);\n"
                             "int main(void) { putint(bump()); puts(\"\\n\"); return 0; }\n",
                             "/home/user/prog.o")
                  .ok());
  LdsOptions lds;
  lds.inputs = {{"prog.o", ShareClass::kStaticPrivate}, {"counter.o", ShareClass::kDynamicPublic}};
  Result<LoadImage> image = world.Link(lds);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  std::vector<Result<ExecResult>> runs;
  for (int p = 0; p < 2; ++p) {
    runs.push_back(world.Exec(*image));
    ASSERT_TRUE(runs.back().ok()) << runs.back().status().ToString();
  }
  SchedParams params;
  params.num_cores = 2;
  ASSERT_EQ(world.machine().RunScheduled(params, 10'000'000), SchedStatus::kExited);

  MetricsSnapshot names = world.machine().metrics().Snapshot();
  for (const Result<ExecResult>& run : runs) {
    MetricsRegistry::Merge(&names, run->ldl->metrics().Snapshot());
  }
  ASSERT_GT(names.count("vm.sched.core.1.ticks"), 0u);
  ASSERT_GT(names.count("vm.race.accesses_checked"), 0u);
  ASSERT_GT(names.count("ldl.link_faults"), 0u);

  const std::string doc = ReadDoc();
  ASSERT_FALSE(doc.empty()) << "cannot read OBSERVABILITY.md under " << HEMLOCK_DOCS_DIR;
  const std::regex core_index(R"(\.core\.\d+\.)");
  std::vector<std::string> missing;
  for (const auto& [name, value] : names) {
    std::string documented = std::regex_replace(name, core_index, ".core.<n>.");
    if (doc.find("`" + documented + "`") == std::string::npos) {
      missing.push_back(documented);
    }
  }
  EXPECT_TRUE(missing.empty()) << "counters missing from docs/OBSERVABILITY.md: "
                               << ::testing::PrintToString(missing);
}

}  // namespace
}  // namespace hemlock
