// SegmentServer — the segment home for distributed shared segments.
//
// Owns the *authoritative* SharedFs partition. Clients (simulator instances
// started with `hemrun --connect`) mount the partition over a socket, fetch
// pages on demand, flush dirty pages at release points, and take creation
// locks as wire leases. The server serializes every mutation (one poll loop,
// one partition), tracks page ownership in a CoherenceDirectory, and queues
// per-session invalidation records that ride back on the next reply.
//
// Fault tolerance (PR 10) treats a cut socket as weather, not death:
//
//   * A session whose socket fails is *detached*, not dropped: its leases,
//     pending invalidations, resume token, and at-most-once reply cache stay
//     put for `resume_grace_ms`, waiting for the client to dial back and
//     resume (HELLO with resume_session + resume_token). Only after the grace
//     expires is the session reaped — which is when leases are reclaimed and
//     `net.server.leases_reclaimed` counts them, exactly once.
//   * Every effectful request carries a per-session sequence number; the
//     server executes each seq at most once and replays the cached reply for
//     retransmits (`net.server.replays`), so a client retrying through packet
//     loss cannot double-create or double-write.
//   * With a journal attached (`hemserve --journal`), every successful
//     effectful request is appended after the reply-defining state change;
//     restart = load the `--state` checkpoint, restore the header's server
//     meta (sessions, tokens, coherence versions), and re-dispatch the record
//     tail. A SIGKILLed server comes back with the exact pre-kill state and
//     resumed clients reconverge through RESYNC. A standby server tails the
//     same journal and promotes itself on the first incoming connection.
//
// Lease safety over the wire reuses PR 2's machinery end to end: a session's
// locks are held by per-(session, pid) pseudo-pids, the partition's pid prober
// answers "is that session still around" (detached-but-in-grace counts as
// around), and a reaped or cleanly departed session releases every lease and
// cached-page claim it held.
#ifndef SRC_NET_SERVER_H_
#define SRC_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/metrics.h"
#include "src/net/coherence.h"
#include "src/net/journal.h"
#include "src/net/transport.h"
#include "src/net/wire.h"
#include "src/sfs/shared_fs.h"

namespace hemlock {

struct SegmentServerOptions {
  // Per-socket recv deadline — a peer that stops mid-frame must not wedge the
  // poll loop (was a hardcoded 10 s before the flags existed).
  int64_t recv_timeout_ms = 10'000;
  // How long a detached session stays resumable before its leases are
  // reclaimed. 0 reaps on the next poll round (the PR 8 behavior).
  int64_t resume_grace_ms = 10'000;
  // Durable restart: the SFS checkpoint image and the mutation journal.
  // Both empty = the in-memory-only PR 8 behavior.
  std::string state_path;
  std::string journal_path;
  // Auto-checkpoint after this many journal records (0 = only at shutdown).
  uint64_t checkpoint_every = 0;
  // Warm failover: tail the journal read-only and promote on the first
  // incoming connection instead of serving immediately.
  bool standby = false;
};

class SegmentServer {
 public:
  // Takes ownership of the authoritative partition (nullptr = a fresh one).
  explicit SegmentServer(std::unique_ptr<SharedFs> fs = nullptr,
                         SegmentServerOptions options = {});
  ~SegmentServer();

  SegmentServer(const SegmentServer&) = delete;
  SegmentServer& operator=(const SegmentServer&) = delete;

  // Journal mode: replays an existing journal (restoring sessions, resume
  // tokens, coherence versions, and every post-checkpoint mutation on top of
  // the already-loaded partition), then — unless standby — opens it for
  // appending. Call after construction, before Listen.
  Status AttachJournal();

  // Writes the SFS image to options.state_path (tmp + rename) and rewrites
  // the journal as a fresh checkpoint. The journaled-mode shutdown and the
  // `checkpoint_every` trigger both land here.
  Status Checkpoint();

  // Binds the listening socket. Port 0 picks an ephemeral port; port() tells.
  Status Listen(const std::string& host, int port);
  int port() const { return listener_.port(); }

  // Serves one poll round: accepts pending connections, reads and answers one
  // frame per readable session, detaches dead sockets, reaps sessions whose
  // resume grace expired. In standby mode: tails the journal and waits for
  // the first connection, then promotes. The building block for both
  // hemserve's main loop and the background thread.
  Status PollOnce(int timeout_ms);

  // Background serving for in-process tests: a thread looping PollOnce.
  Status Start();
  void Stop();

  // The authoritative partition. Only safe to touch while the server is not
  // serving (before Start / after Stop) — the poll loop owns it otherwise.
  SharedFs& sfs() { return *fs_; }
  MetricsRegistry& metrics() { return metrics_; }
  const CoherenceDirectory& directory() const { return directory_; }
  bool standby() const { return standby_; }

  // Live (attached) sessions; detached-in-grace sessions are not counted.
  size_t SessionCount() const;
  // Attached + detached-awaiting-resume.
  size_t TotalSessionCount() const;

 private:
  struct Session {
    uint32_t id = 0;
    Conn conn;
    bool hello_done = false;
    bool attached = true;
    std::chrono::steady_clock::time_point detached_at{};
    uint64_t token = 0;   // resume token, proven by a returning client
    uint32_t epoch = 0;   // bumps on every successful resume
    uint32_t last_seq = 0;  // highest request seq executed
    bool has_cached = false;
    WireMsg cached_reply;  // at-most-once: last effectful reply, replayable
    std::vector<WireInval> pending;     // invalidations awaiting the next reply
    std::map<int32_t, int> pseudo_pids; // client pid -> server-side lock owner
  };

  // Seq dedupe + dispatch + journaling for one non-hello request.
  WireMsg ExecuteTracked(Session& s, const WireMsg& req);
  // Dispatches one request; the reply (kReply or kError) carries the session's
  // drained invalidation queue either way.
  WireMsg Dispatch(Session& s, const WireMsg& req);
  WireMsg HandleMount(Session& s);
  WireMsg HandleFetch(Session& s, const WireMsg& req);
  WireMsg HandleFlush(Session& s, const WireMsg& req);
  WireMsg HandleResync(Session& s, const WireMsg& req);
  // The HELLO handshake happens outside Dispatch: a resume merges the
  // accepting placeholder session into the detached one it returns to.
  void HandleHello(uint32_t provisional_id, const WireMsg& req);

  // Queues |inv| for every session except |except| (0 = all), deduplicating
  // identical records already pending.
  void QueueInval(uint32_t except, const WireInval& inv);
  void QueueInvalTo(Session& s, const WireInval& inv);
  Session* FindSession(uint32_t id);

  int PseudoPid(Session& s, int32_t pid);
  // Socket loss: keep the session resumable, note when the grace clock began.
  void Detach(uint32_t id, const char* why);
  // Final departure: releases leases (counted once), forgets the session.
  void DropSession(uint32_t id, const char* why);
  void ReapExpiredSessions();

  uint64_t NewToken();
  void JournalAppend(const JournalRecord& rec);
  std::vector<uint8_t> EncodeMeta() const;
  Status RestoreMeta(const std::vector<uint8_t>& bytes);
  void ReplayRecords(const std::vector<JournalRecord>& records);
  // Standby: pick up what the primary wrote since the last look. A changed
  // header nonce means the primary checkpointed — full reload.
  Status TailJournal();
  Status ReloadStateFromDisk();
  void InstallPidProber();

  WireMsg Ack(Session& s, WireOp reply_to);
  WireMsg Err(Session& s, WireOp reply_to, const Status& st);

  std::unique_ptr<SharedFs> fs_;
  SegmentServerOptions options_;
  Listener listener_;
  CoherenceDirectory directory_;
  Journal journal_;
  bool standby_ = false;
  bool replaying_ = false;  // suppress journaling while re-dispatching records
  uint64_t journal_nonce_seen_ = 0;   // standby: header identity last tailed
  size_t journal_records_seen_ = 0;   // standby: records replayed so far
  MetricsRegistry metrics_;
  uint64_t* c_sessions_ = nullptr;
  uint64_t* c_disconnects_ = nullptr;
  uint64_t* c_rpcs_ = nullptr;
  uint64_t* c_pages_fetched_ = nullptr;
  uint64_t* c_pages_flushed_ = nullptr;
  uint64_t* c_invals_queued_ = nullptr;
  uint64_t* c_lock_waits_ = nullptr;
  uint64_t* c_leases_reclaimed_ = nullptr;
  uint64_t* c_resumes_ = nullptr;
  uint64_t* c_replays_ = nullptr;
  uint64_t* c_journal_records_ = nullptr;
  uint64_t* c_checkpoints_ = nullptr;

  // Guards sessions_ against SessionCount() from other threads; PollOnce
  // releases it while blocked in poll(2).
  mutable std::mutex mu_;
  std::map<uint32_t, Session> sessions_;
  uint32_t next_session_ = 1;
  int next_pseudo_pid_ = 1 << 20;  // far above any simulated pid
  uint64_t token_seq_ = 0;

  std::thread serve_thread_;
  std::atomic<bool> stop_{false};
  bool serving_ = false;
};

}  // namespace hemlock

#endif  // SRC_NET_SERVER_H_
