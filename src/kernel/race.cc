#include "src/kernel/race.h"

#include <cstdio>

namespace hemlock {

std::string RaceReport::ToString() const {
  char buf[256];
  snprintf(buf, sizeof buf,
           "race on 0x%08X (%s): pid %d %s@0x%08X vs pid %d %s@0x%08X", addr,
           path.empty() ? "?" : path.c_str(), first_pid,
           first_is_write ? "write" : "read", first_pc, second_pid,
           second_is_write ? "write" : "read", second_pc);
  return buf;
}

RaceDetector::RaceDetector(MetricsRegistry& metrics, RaceOptions options)
    : options_(options),
      c_accesses_(metrics.Counter("vm.race.accesses_checked")),
      c_sampled_out_(metrics.Counter("vm.race.accesses_sampled_out")),
      c_sync_edges_(metrics.Counter("vm.race.sync_edges")),
      c_races_(metrics.Counter("vm.race.races_found")) {
  if (options_.sample_period == 0) options_.sample_period = 1;
}

void RaceDetector::JoinInto(VClock* dst, const VClock& src) {
  for (const auto& [pid, t] : src) {
    uint64_t& slot = (*dst)[pid];
    if (t > slot) slot = t;
  }
}

bool RaceDetector::OrderedBefore(int pid, uint64_t clock, const VClock& observer) {
  auto it = observer.find(pid);
  return it != observer.end() && it->second >= clock;
}

void RaceDetector::OnProcessStart(int pid, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  VClock& vc = clocks_[pid];
  if (parent >= 0) {
    auto it = clocks_.find(parent);
    if (it != clocks_.end()) {
      vc = it->second;
      // Advance the parent so its post-spawn accesses are concurrent with the
      // child rather than ordered before everything the child does.
      ++it->second[parent];
    }
  } else {
    // Root processes happen-after everything that already finished; running a
    // writer to completion and then starting a reader is not a race.
    vc = exited_join_;
  }
  ++vc[pid];
}

void RaceDetector::OnSpawn(int parent, int child) {
  std::lock_guard<std::mutex> lock(mu_);
  auto pit = clocks_.find(parent);
  if (pit == clocks_.end()) return;
  ++*c_sync_edges_;
  VClock& cvc = clocks_[child];
  JoinInto(&cvc, pit->second);
  ++cvc[child];
  ++pit->second[parent];
}

void RaceDetector::OnProcessExit(int pid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clocks_.find(pid);
  if (it == clocks_.end()) return;
  JoinInto(&exited_join_, it->second);
}

void RaceDetector::OnReap(int waiter, int child) {
  std::lock_guard<std::mutex> lock(mu_);
  auto cit = clocks_.find(child);
  auto wit = clocks_.find(waiter);
  if (cit == clocks_.end() || wit == clocks_.end()) return;
  ++*c_sync_edges_;
  JoinInto(&wit->second, cit->second);
  clocks_.erase(cit);
}

void RaceDetector::AcquireLocked(int pid, uint32_t key) {
  auto it = sync_clocks_.find(key);
  if (it == sync_clocks_.end()) return;
  ++*c_sync_edges_;
  JoinInto(&clocks_[pid], it->second);
}

void RaceDetector::ReleaseLocked(int pid, uint32_t key) {
  ++*c_sync_edges_;
  VClock& vc = clocks_[pid];
  JoinInto(&sync_clocks_[key], vc);
  // Bump after publishing so later same-pid work is not ordered by this release.
  ++vc[pid];
}

void RaceDetector::OnAcquire(int pid, uint32_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  AcquireLocked(pid, key);
}

void RaceDetector::OnRelease(int pid, uint32_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  ReleaseLocked(pid, key);
}

void RaceDetector::OnAcqRel(int pid, uint32_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  AcquireLocked(pid, key);
  ReleaseLocked(pid, key);
}

void RaceDetector::OnAccess(int pid, uint32_t addr, uint32_t len, bool is_write,
                            uint32_t pc) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.sample_period > 1) {
    uint64_t tick = sample_tick_[pid]++;
    if (tick % options_.sample_period != 0) {
      ++*c_sampled_out_;
      return;
    }
  }
  ++*c_accesses_;
  // Word-granular shadow: a byte access checks (and records in) its whole word.
  // That can pair a race with a neighbor-byte access, but the PC pair it reports
  // still points at two unsynchronized instructions touching the same word.
  uint32_t first_word = addr & ~3u;
  uint32_t last_word = (addr + (len ? len - 1 : 0)) & ~3u;
  for (uint32_t w = first_word; w <= last_word; w += 4) {
    CheckWord(pid, w, is_write, pc);
    if (w == last_word) break;  // overflow guard at the top of the region
  }
}

void RaceDetector::CheckWord(int pid, uint32_t word_addr, bool is_write,
                             uint32_t pc) {
  VClock& vc = clocks_[pid];
  uint64_t& own = vc[pid];
  if (own == 0) own = 1;  // access before OnProcessStart (defensive)
  ShadowWord& sw = shadow_[word_addr];

  // A race needs a write on at least one side; check against unordered writes
  // always, and against unordered reads only when this access is a write.
  for (const auto& [wpid, acc] : sw.writes) {
    if (wpid == pid) continue;
    if (!OrderedBefore(wpid, acc.clock, vc)) {
      Report(word_addr, wpid, acc, /*first_write=*/true, pid, pc, is_write);
    }
  }
  if (is_write) {
    for (const auto& [rpid, acc] : sw.reads) {
      if (rpid == pid) continue;
      if (!OrderedBefore(rpid, acc.clock, vc)) {
        Report(word_addr, rpid, acc, /*first_write=*/false, pid, pc, is_write);
      }
    }
  }

  Access self{own, pc};
  if (is_write) {
    // Drop prior accesses that this write is ordered after: they can no longer
    // race with anything that must also be ordered after this write to be safe.
    for (auto it = sw.writes.begin(); it != sw.writes.end();) {
      it = (it->first != pid && OrderedBefore(it->first, it->second.clock, vc))
               ? sw.writes.erase(it)
               : std::next(it);
    }
    for (auto it = sw.reads.begin(); it != sw.reads.end();) {
      it = OrderedBefore(it->first, it->second.clock, vc) ? sw.reads.erase(it)
                                                          : std::next(it);
    }
    sw.writes[pid] = self;
    sw.reads.erase(pid);
  } else {
    sw.reads[pid] = self;
  }
}

void RaceDetector::Report(uint32_t addr, int first_pid, const Access& first,
                          bool first_write, int second_pid, uint32_t second_pc,
                          bool second_write) {
  uint64_t key = (static_cast<uint64_t>(first.pc) << 32) | second_pc;
  if (seen_pc_pairs_.count(key)) return;
  if (reports_.size() >= options_.max_reports) return;
  seen_pc_pairs_[key] = true;
  ++*c_races_;

  RaceReport r;
  r.addr = addr;
  r.path = addr_resolver_ ? addr_resolver_(addr) : "";
  r.first_pid = first_pid;
  r.first_pc = first.pc;
  r.first_is_write = first_write;
  r.second_pid = second_pid;
  r.second_pc = second_pc;
  r.second_is_write = second_write;
  reports_.push_back(std::move(r));
}

}  // namespace hemlock
