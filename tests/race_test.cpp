// Tests for the vector-clock race detector: the happens-before algebra on the
// RaceDetector directly (no machine), then end-to-end — a planted racy HemC program
// must be flagged with the right segment path and PC pair, and the hem_mutex'd
// version of the same program must stay silent across 16 chaos schedules.
#include "src/kernel/race.h"

#include <gtest/gtest.h>

#include <string>

#include "src/apps/rwho_hemc.h"
#include "src/kernel/scheduler.h"
#include "src/runtime/sync.h"
#include "src/base/layout.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

constexpr uint32_t kWord = 0x30000040;
constexpr uint32_t kLockWord = 0x30000080;

// --- RaceDetector unit tests ---

TEST(RaceDetector, UnorderedWritesAreReported) {
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  race.OnAccess(1, kWord, 4, /*is_write=*/true, /*pc=*/0x100);
  race.OnAccess(2, kWord, 4, /*is_write=*/true, /*pc=*/0x200);
  ASSERT_TRUE(race.HasRaces());
  const RaceReport& report = race.reports()[0];
  EXPECT_EQ(report.addr, kWord);
  EXPECT_EQ(report.first_pid, 1);
  EXPECT_EQ(report.first_pc, 0x100u);
  EXPECT_TRUE(report.first_is_write);
  EXPECT_EQ(report.second_pid, 2);
  EXPECT_EQ(report.second_pc, 0x200u);
  EXPECT_TRUE(report.second_is_write);
}

TEST(RaceDetector, WriteThenUnorderedReadIsReported) {
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  race.OnAccess(1, kWord, 4, true, 0x100);
  race.OnAccess(2, kWord, 4, false, 0x200);
  ASSERT_TRUE(race.HasRaces());
  EXPECT_TRUE(race.reports()[0].first_is_write);
  EXPECT_FALSE(race.reports()[0].second_is_write);
}

TEST(RaceDetector, ConcurrentReadsAreNotRaces) {
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  race.OnAccess(1, kWord, 4, false, 0x100);
  race.OnAccess(2, kWord, 4, false, 0x200);
  EXPECT_FALSE(race.HasRaces());
}

TEST(RaceDetector, ReleaseAcquireOrdersTheAccesses) {
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  race.OnAccess(1, kWord, 4, true, 0x100);
  race.OnRelease(1, kLockWord);   // e.g. futex wake after unlocking
  race.OnAcquire(2, kLockWord);   // e.g. woken from futex wait
  race.OnAccess(2, kWord, 4, true, 0x200);
  EXPECT_FALSE(race.HasRaces());
}

TEST(RaceDetector, SuccessfulCasIsAFullBarrier) {
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  race.OnAccess(1, kWord, 4, true, 0x100);
  race.OnAcqRel(1, kLockWord);
  race.OnAcqRel(2, kLockWord);
  race.OnAccess(2, kWord, 4, true, 0x200);
  EXPECT_FALSE(race.HasRaces());
}

TEST(RaceDetector, SpawnEdgeOrdersParentWritesBeforeChild) {
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.OnProcessStart(1, -1);
  race.OnAccess(1, kWord, 4, true, 0x100);
  race.OnProcessStart(2, -1);  // registered as a root (sys_spawn backend)...
  race.OnSpawn(1, 2);          // ...then given the spawn edge
  race.OnAccess(2, kWord, 4, true, 0x200);
  EXPECT_FALSE(race.HasRaces());
}

TEST(RaceDetector, ReapEdgeOrdersChildWritesBeforeWaiter) {
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  race.OnSpawn(1, 2);
  race.OnAccess(2, kWord, 4, true, 0x200);
  race.OnProcessExit(2);
  race.OnReap(1, 2);
  race.OnAccess(1, kWord, 4, true, 0x100);
  EXPECT_FALSE(race.HasRaces());
}

TEST(RaceDetector, SequentialRootProcessesAreOrdered) {
  // A root that starts after another process exited happens-after it — back-to-back
  // single-process runs over the same segment are not races.
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.OnProcessStart(1, -1);
  race.OnAccess(1, kWord, 4, true, 0x100);
  race.OnProcessExit(1);
  race.OnProcessStart(2, -1);
  race.OnAccess(2, kWord, 4, true, 0x200);
  EXPECT_FALSE(race.HasRaces());
}

TEST(RaceDetector, DedupsByPcPair) {
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  // The same racy loop body hits many words — one report, not one per word.
  for (uint32_t i = 0; i < 8; ++i) {
    race.OnAccess(1, kWord + 4 * i, 4, true, 0x100);
    race.OnAccess(2, kWord + 4 * i, 4, true, 0x200);
  }
  EXPECT_EQ(race.reports().size(), 1u);
}

TEST(RaceDetector, MaxReportsCapsDistinctPairs) {
  RaceOptions options;
  options.max_reports = 3;
  MetricsRegistry metrics;
  RaceDetector race(metrics, options);
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  for (uint32_t i = 0; i < 8; ++i) {
    race.OnAccess(1, kWord + 4 * i, 4, true, 0x100 + 4 * i);  // distinct PC pairs
    race.OnAccess(2, kWord + 4 * i, 4, true, 0x200 + 4 * i);
  }
  EXPECT_EQ(race.reports().size(), 3u);
}

TEST(RaceDetector, SamplingSkipsAccessesButStaysEnabled) {
  RaceOptions options;
  options.sample_period = 1000;
  MetricsRegistry metrics;
  RaceDetector race(metrics, options);
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  for (uint32_t i = 0; i < 50; ++i) {
    race.OnAccess(1, kWord, 4, true, 0x100);
    race.OnAccess(2, kWord, 4, true, 0x200);
  }
  EXPECT_GT(metrics.Get("vm.race.accesses_sampled_out"), 0u);
}

TEST(RaceDetector, ReportNamesTheSegment) {
  MetricsRegistry metrics;
  RaceDetector race(metrics);
  race.SetAddrResolver([](uint32_t addr) -> std::string {
    return addr == kWord ? "/shm/rwho/db" : "?";
  });
  race.OnProcessStart(1, -1);
  race.OnProcessStart(2, -1);
  race.OnAccess(1, kWord, 4, true, 0x100);
  race.OnAccess(2, kWord, 4, true, 0x200);
  ASSERT_TRUE(race.HasRaces());
  EXPECT_EQ(race.reports()[0].path, "/shm/rwho/db");
  std::string text = race.reports()[0].ToString();
  EXPECT_NE(text.find("/shm/rwho/db"), std::string::npos) << text;
  EXPECT_NE(text.find("write"), std::string::npos) << text;
}

// --- end-to-end on the simulated machine ---

const char kRacyCounterDb[] = "int counter = 0;\n";

const char kRacyWorker[] =
    "extern int counter;\n"
    "int main() {\n"
    "  int i;\n"
    "  int t;\n"
    "  for (i = 0; i < 50; i += 1) {\n"
    "    t = counter;\n"
    "    sys_yield();\n"
    "    counter = t + 1;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

TEST(RaceEndToEnd, PlantedRacyProgramIsFlaggedWithPathAndPcs) {
  HemlockWorld world;
  world.machine().EnableRaceDetector();
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  ASSERT_TRUE(world.CompileTo(kRacyCounterDb, "/shm/lib/racy_db.o", no_prelude).ok());
  ASSERT_TRUE(world.CompileTo(kRacyWorker, "/home/user/racy.o").ok());
  LdsOptions lds;
  lds.inputs.push_back({"/home/user/racy.o", ShareClass::kStaticPrivate});
  lds.inputs.push_back({"/shm/lib/racy_db.o", ShareClass::kDynamicPublic});
  Result<LoadImage> image = world.Link(lds);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  ASSERT_TRUE(world.Exec(*image).ok());
  ASSERT_TRUE(world.Exec(*image).ok());

  SchedParams params;
  params.quantum = 64;  // interleave inside the read-yield-write window
  ASSERT_EQ(world.machine().RunScheduled(params, 100'000'000), SchedStatus::kExited);

  RaceDetector* race = world.machine().race();
  ASSERT_NE(race, nullptr);
  ASSERT_TRUE(race->HasRaces());
  const RaceReport& report = race->reports()[0];
  EXPECT_EQ(report.path, "/shm/lib/racy_db");
  EXPECT_TRUE(InSfsRegion(report.addr)) << report.ToString();
  EXPECT_NE(report.first_pc, 0u);
  EXPECT_NE(report.second_pc, 0u);
  EXPECT_TRUE(report.first_is_write || report.second_is_write);
  EXPECT_GE(world.machine().metrics().Get("vm.race.races_found"), 1u);
}

TEST(RaceEndToEnd, MutexedProgramIsCleanAcross16ChaosSeeds) {
  std::string locked_worker = HemSyncDecls() +
                              "extern int lock;\n"
                              "extern int counter;\n"
                              "int main() {\n"
                              "  int i;\n"
                              "  int final;\n"
                              "  for (i = 0; i < 50; i += 1) {\n"
                              "    hem_mutex_lock(&lock);\n"
                              "    counter = counter + 1;\n"
                              "    hem_mutex_unlock(&lock);\n"
                              "    sys_yield();\n"
                              "  }\n"
                              "  hem_mutex_lock(&lock);\n"
                              "  final = counter;\n"
                              "  hem_mutex_unlock(&lock);\n"
                              "  return final % 101;\n"
                              "}\n";
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    HemlockWorld world;
    world.machine().EnableRaceDetector();
    ASSERT_TRUE(InstallHemSync(world).ok());
    CompileOptions no_prelude;
    no_prelude.include_prelude = false;
    ASSERT_TRUE(world
                    .CompileTo("int lock = 0;\nint counter = 0;\n",
                               "/shm/lib/clean_db.o", no_prelude)
                    .ok());
    ASSERT_TRUE(world.CompileTo(locked_worker, "/home/user/clean.o").ok());
    LdsOptions lds;
    lds.inputs.push_back({"/home/user/clean.o", ShareClass::kStaticPrivate});
    lds.inputs.push_back({"/shm/lib/clean_db.o", ShareClass::kDynamicPublic});
    lds.inputs.push_back({"/shm/lib/hemsync.o", ShareClass::kDynamicPublic});
    Result<LoadImage> image = world.Link(lds);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    ASSERT_TRUE(world.Exec(*image).ok());
    ASSERT_TRUE(world.Exec(*image).ok());

    SchedParams params;
    params.policy = SchedPolicy::kRandom;
    params.seed = seed;
    params.quantum = 64;
    ASSERT_EQ(world.machine().RunScheduled(params, 200'000'000), SchedStatus::kExited)
        << "seed " << seed;
    RaceDetector* race = world.machine().race();
    ASSERT_NE(race, nullptr);
    EXPECT_FALSE(race->HasRaces())
        << "seed " << seed << ": " << race->reports()[0].ToString();
  }
}

TEST(RaceEndToEnd, RacyRwhoDeploymentIsFlagged) {
  // The paper's own application with the lock dropped: the daemon's updates and the
  // clients' scans must collide somewhere in the database segment.
  HemlockWorld world;
  world.machine().EnableRaceDetector();
  RwhoHemcConfig config;
  config.clients = 2;
  config.packets = 32;
  config.locked = false;
  config.sched.quantum = 64;
  Result<RwhoHemcOutcome> out = RunRwhoHemc(world, config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->run_status, SchedStatus::kExited);
  RaceDetector* race = world.machine().race();
  ASSERT_NE(race, nullptr);
  ASSERT_TRUE(race->HasRaces());
  EXPECT_EQ(race->reports()[0].path, "/shm/lib/rwho_db");
}

}  // namespace
}  // namespace hemlock
