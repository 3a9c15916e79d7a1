// serve/fault_inject.h -- compiled-in fault injection for the serving
// front-end (DESIGN.md S13/S14). Overload protection and crash recovery are
// exactly the code that normal traffic never exercises: ring-full admission
// decisions, shed accounting under pressure, drain stages that fell behind,
// and journal tails torn mid-write by a dying process. This harness forces
// those paths deterministically so the fault suite, the E13 overload bench,
// and the E14 crash-recovery matrix can hit them on any machine, including
// one where the drain would otherwise always keep up and the process never
// dies.
//
// The hooks are compiled into every build and are for tests only. Each
// one is inert until its environment knob is set: it tests a plain member
// that stays zero otherwise, so an unarmed hook costs one load and a
// predictable branch. The injector reads the environment at construction
// (one per MatchService), so tests can reconfigure between service
// instances without re-execing. A production binary obeys the knobs too:
// PARMATCH_FI_CRASH_AT in its environment really SIGKILLs it.
//
// Knobs (all counts are in calls/windows on the injected site):
//   PARMATCH_FI_RING_FULL_EVERY=N  every Nth admission attempt reports
//                                  ring-full even when space exists --
//                                  forces the shed/backpressure path.
//   PARMATCH_FI_STALL_EVERY=N      every Nth applied window, the drain
//   PARMATCH_FI_STALL_US=U         (matcher stage) first sleeps U us --
//                                  simulates a stage that fell behind, so
//                                  backlog, deadline flushes, and
//                                  admission pressure build upstream.
//   PARMATCH_FI_CRASH_AT=N         the Nth journal append (1-based) is the
//                                  crash point: after its bytes are
//                                  written -- and before any fsync -- the
//                                  process SIGKILLs itself (a real kill,
//                                  not an exit path: no destructors, no
//                                  flush, exactly what recovery must
//                                  survive).
//   PARMATCH_FI_TORN_TAIL=K        modifies the crash append: only the
//                                  first K bytes of its frame reach the
//                                  file before the SIGKILL -- the torn-tail
//                                  corruption the open-time scan truncates.
//   PARMATCH_FI_FLIP_BYTE=N        record N's first payload byte is
//                                  flipped AFTER its checksum was computed
//                                  (bit rot between write and reread); no
//                                  crash -- readers must detect and stop.
//
// Every knob counts the faults it actually fired; report() returns the
// counters and the benches publish them in JsonSink, so a CI smoke run can
// assert injection HAPPENED rather than merely observing that nothing
// crashed (a mis-spelled knob silently injecting nothing looks identical
// otherwise).
//
// Thread-safety: the call counters are relaxed atomics -- the "every Nth"
// cadence is exact under a single caller (the drain and journal hooks) and
// approximately round-robin across concurrent producers, which is all a
// fault schedule needs. Determinism note: injected stalls and ring-fulls
// change batch PARTITIONS, not update semantics, so every correctness
// invariant (conservation, final-graph equality, snapshot agreement) must
// still hold with any injection active -- that is precisely what the
// fault suite asserts; crash/torn/flip faults kill or corrupt the DURABLE
// artifacts, and the recovery suite asserts the recovered trajectory is
// bit-identical anyway (DESIGN.md S14).
#pragma once

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <thread>

namespace parmatch::serve {

// Counters of faults actually FIRED (not merely armed), one per knob;
// all-zero while every knob is unset.
struct FiReport {
  std::uint64_t ring_full_fired = 0;
  std::uint64_t stall_fired = 0;
  std::uint64_t crash_fired = 0;
  std::uint64_t torn_fired = 0;
  std::uint64_t flip_fired = 0;

  std::uint64_t total() const {
    return ring_full_fired + stall_fired + crash_fired + torn_fired +
           flip_fired;
  }
};

// What the journal must do to the append it is about to perform
// (serve/journal.h translates this into a util::io::AppendFault and the
// post-append SIGKILL). All-defaults = clean append.
struct JournalFaultPlan {
  bool crash_after = false;      // SIGKILL once the bytes are written
  std::int64_t torn_after = -1;  // frame bytes to actually write (-1 = all)
  std::int64_t flip_byte = -1;   // payload byte to flip post-CRC (-1 = none)
};

class FaultInjector {
 public:
  FaultInjector() {
    ring_full_every_ = env_u64("PARMATCH_FI_RING_FULL_EVERY");
    stall_every_ = env_u64("PARMATCH_FI_STALL_EVERY");
    stall_us_ = env_u64("PARMATCH_FI_STALL_US");
    crash_at_ = env_u64("PARMATCH_FI_CRASH_AT");
    torn_tail_ = env_i64_or("PARMATCH_FI_TORN_TAIL", -1);
    flip_at_ = env_u64("PARMATCH_FI_FLIP_BYTE");
    // A torn tail needs a crash point to tear at; default to the first
    // append so PARMATCH_FI_TORN_TAIL=K alone is a complete scenario.
    if (torn_tail_ >= 0 && crash_at_ == 0) crash_at_ = 1;
  }

  // Admission-site hook: true = pretend the lane ring is full this call.
  bool force_ring_full() {
    if (ring_full_every_ == 0) return false;
    bool fire = admit_calls_.fetch_add(1, std::memory_order_relaxed) %
                    ring_full_every_ ==
                ring_full_every_ - 1;
    if (fire) ring_full_fired_.fetch_add(1, std::memory_order_relaxed);
    return fire;
  }

  // Drain-site hook: called once per applied window by the matcher stage.
  void maybe_stall_drain() {
    if (stall_every_ == 0 || stall_us_ == 0) return;
    if (windows_.fetch_add(1, std::memory_order_relaxed) % stall_every_ !=
        stall_every_ - 1)
      return;
    stall_fired_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
  }

  // Journal-site hook: called once per journal append, BEFORE the write.
  // Returns what to do to this append (flip/torn/crash); the flip counter
  // fires here, the torn/crash counters fire in crash_now() once the torn
  // bytes are actually on disk.
  JournalFaultPlan journal_append_fault() {
    JournalFaultPlan plan;
    if (crash_at_ == 0 && flip_at_ == 0) return plan;
    std::uint64_t n =
        journal_appends_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (flip_at_ != 0 && n == flip_at_) {
      plan.flip_byte = 0;
      flip_fired_.fetch_add(1, std::memory_order_relaxed);
    }
    if (crash_at_ != 0 && n == crash_at_) {
      plan.crash_after = true;
      plan.torn_after = torn_tail_;  // -1 = full frame, then die
    }
    return plan;
  }

  // Executes a planned crash: a raw SIGKILL, so no destructor, atexit
  // handler, or buffered write can "help" -- recovery must work from
  // exactly the bytes that reached the file. [[noreturn]] in spirit; the
  // raise cannot fail for SIGKILL on the calling process.
  void crash_now(bool torn) {
    if (torn) torn_fired_.fetch_add(1, std::memory_order_relaxed);
    crash_fired_.fetch_add(1, std::memory_order_relaxed);
    ::raise(SIGKILL);
  }

  FiReport report() const {
    FiReport r;
    r.ring_full_fired = ring_full_fired_.load(std::memory_order_relaxed);
    r.stall_fired = stall_fired_.load(std::memory_order_relaxed);
    r.crash_fired = crash_fired_.load(std::memory_order_relaxed);
    r.torn_fired = torn_fired_.load(std::memory_order_relaxed);
    r.flip_fired = flip_fired_.load(std::memory_order_relaxed);
    return r;
  }

 private:
  static std::uint64_t env_u64(const char* name) {
    const char* e = std::getenv(name);
    return e ? std::strtoull(e, nullptr, 10) : 0;
  }

  // Presence-sensitive read: 0 is a meaningful value for a torn tail
  // (write NOTHING of the final frame), so "unset" needs a sentinel.
  static std::int64_t env_i64_or(const char* name, std::int64_t dflt) {
    const char* e = std::getenv(name);
    return e ? static_cast<std::int64_t>(std::strtoll(e, nullptr, 10)) : dflt;
  }

  std::uint64_t ring_full_every_ = 0;
  std::uint64_t stall_every_ = 0;
  std::uint64_t stall_us_ = 0;
  std::uint64_t crash_at_ = 0;
  std::int64_t torn_tail_ = -1;
  std::uint64_t flip_at_ = 0;
  std::atomic<std::uint64_t> admit_calls_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint64_t> journal_appends_{0};
  std::atomic<std::uint64_t> ring_full_fired_{0};
  std::atomic<std::uint64_t> stall_fired_{0};
  std::atomic<std::uint64_t> crash_fired_{0};
  std::atomic<std::uint64_t> torn_fired_{0};
  std::atomic<std::uint64_t> flip_fired_{0};
};

}  // namespace parmatch::serve
