// Vector-clock happens-before race detector for the shared partition.
//
// The paper's model lets any process map a public segment and touch its variables
// directly, so the only thing standing between a correct rwho deployment and a torn
// counter is discipline. This detector makes the discipline checkable: the Machine
// feeds it every load/store that lands in the SFS region plus every synchronization
// event (futex wait/wake, kernel CAS, creation-lock unlock, spawn/fork/waitpid),
// and it reports each pair of accesses that are unordered by happens-before where
// at least one is a write.
//
// Design (FastTrack-flavored, sized for a simulator):
//   * one vector clock per process, advanced at release points;
//   * one vector clock per sync object, keyed by its SFS address — futex words,
//     CAS words, and creation locks all share this table;
//   * per-word shadow state: the last write (pid, clock, pc) plus the set of reads
//     since that write. A same-pid access replaces its previous entry, so shadow
//     cost is O(live processes) per word, not O(accesses);
//   * sampling: with --race-sample N only every Nth access per process is checked
//     (writes always update the shadow so ordering stays sound; sampled-out reads
//     are simply not recorded). N=1 (default) is exact;
//   * process exit joins the exiting clock into |exited_join_|, and every later
//     spawn inherits it — a program that runs writers strictly one-after-another
//     is correctly race-free even without explicit sync.
//
// Reports carry the conflicting PC pair and the segment path (via an address→path
// callback into the SFS), deduplicated by PC pair so one hot loop does not flood
// the trace buffer.
#ifndef SRC_KERNEL_RACE_H_
#define SRC_KERNEL_RACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/metrics.h"

namespace hemlock {

struct RaceOptions {
  // Check every Nth shared-region access per process (1 = exact).
  uint32_t sample_period = 1;
  // Stop recording new reports after this many distinct PC pairs.
  uint32_t max_reports = 64;
};

struct RaceReport {
  uint32_t addr = 0;        // first racy word observed for this PC pair
  std::string path;         // owning segment's SFS path ("?" if unattributable)
  int first_pid = 0;        // earlier access (the one in the shadow state)
  uint32_t first_pc = 0;
  bool first_is_write = false;
  int second_pid = 0;       // later access (the one that exposed the race)
  uint32_t second_pc = 0;
  bool second_is_write = false;

  // "race on 0x30000040 (/shm/rwho/db): pid 1 write@0x0040 vs pid 2 write@0x0040"
  std::string ToString() const;
};

class RaceDetector {
 public:
  // Registers the "vm.race.*" counters in |metrics|, which must outlive this.
  explicit RaceDetector(MetricsRegistry& metrics, RaceOptions options = {});

  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  // Resolves a shared address to its segment path for reports.
  void SetAddrResolver(std::function<std::string(uint32_t)> resolver) {
    addr_resolver_ = std::move(resolver);
  }

  // --- Process lifecycle ---

  // |parent| < 0 for a root process. A child starts happens-after its parent's
  // current point; a root starts happens-after every already-exited process.
  void OnProcessStart(int pid, int parent);
  // sys_spawn edge for a child that was already registered (as a root) by process
  // creation: the child additionally happens-after the spawner's current point.
  void OnSpawn(int parent, int child);
  void OnProcessExit(int pid);
  // waitpid observed |child|'s exit: the waiter inherits the child's final clock.
  void OnReap(int waiter, int child);

  // --- Synchronization edges (sync object = shared word at |key|) ---

  void OnAcquire(int pid, uint32_t key);   // futex wake-up, failed CAS (read side)
  void OnRelease(int pid, uint32_t key);   // futex wake issue, lock release
  void OnAcqRel(int pid, uint32_t key);    // successful CAS: full barrier on the word

  // --- Data accesses (already filtered to the SFS region by the caller) ---

  void OnAccess(int pid, uint32_t addr, uint32_t len, bool is_write, uint32_t pc);

  // Only meaningful once the run has quiesced (RunScheduled has returned); the
  // internal lock is not taken here.
  const std::vector<RaceReport>& reports() const { return reports_; }
  bool HasRaces() const { return !reports_.empty(); }

 private:
  // Vector clock: pid -> logical time. Sparse, since sims run O(10) processes.
  using VClock = std::map<int, uint64_t>;

  struct Access {
    uint64_t clock = 0;  // accessor's own component at access time
    uint32_t pc = 0;
  };
  struct ShadowWord {
    std::map<int, Access> writes;  // at most one per pid; cleared on ordered write
    std::map<int, Access> reads;   // reads since the last write
  };

  static void JoinInto(VClock* dst, const VClock& src);
  // True iff an access by |pid| at |clock| happens-before |observer|'s present.
  static bool OrderedBefore(int pid, uint64_t clock, const VClock& observer);

  // Bodies of OnAcquire/OnRelease, callable with |mu_| already held (OnAcqRel).
  void AcquireLocked(int pid, uint32_t key);
  void ReleaseLocked(int pid, uint32_t key);
  void CheckWord(int pid, uint32_t word_addr, bool is_write, uint32_t pc);
  void Report(uint32_t addr, int first_pid, const Access& first, bool first_write,
              int second_pid, uint32_t second_pc, bool second_write);

  RaceOptions options_;
  // Guards every mutable structure below. SMP cores feed OnAccess straight from
  // their guest loops (outside the kernel lock), so the detector synchronizes
  // itself. Leaf lock: nothing is called out while holding it.
  std::mutex mu_;
  std::map<int, VClock> clocks_;           // live processes
  std::map<int, uint64_t> sample_tick_;    // per-process access counter for sampling
  std::map<uint32_t, VClock> sync_clocks_; // sync objects by shared address
  VClock exited_join_;                     // join of every exited process's clock
  std::map<uint32_t, ShadowWord> shadow_;  // word address (4-aligned) -> history
  std::vector<RaceReport> reports_;
  std::map<uint64_t, bool> seen_pc_pairs_; // dedup key: first_pc<<32 | second_pc

  std::function<std::string(uint32_t)> addr_resolver_;

  uint64_t* c_accesses_;
  uint64_t* c_sampled_out_;
  uint64_t* c_sync_edges_;
  uint64_t* c_races_;
};

}  // namespace hemlock

#endif  // SRC_KERNEL_RACE_H_
