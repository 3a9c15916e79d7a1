// parallel/scheduler.h -- a work-stealing fork/join pool over std::thread
// (DESIGN.md S2). This is the binary-forking model stand-in the paper
// assumes (Section 2): parallel loops with O(log) depth overhead.
//
// Design: one process-wide pool of (num_workers - 1) helper threads plus
// the calling thread(s), each owning a Chase-Lev deque of forked loop
// halves. A parallel loop splits its range on grain-aligned midpoints: each
// split pushes the right half onto the splitting worker's deque and descends
// into the left half; on the way back up, an un-stolen right half is popped
// and executed inline (zero synchronization beyond the deque's own bottom
// index), while a stolen half is joined by work-stealing until its thief
// reports completion. Nested parallel regions fork onto the current
// worker's deque exactly like top-level ones, so depth composes (the old
// shared-cursor pool collapsed nested loops to sequential). Idle workers
// spin briefly over the other deques, then park on a condition variable
// keyed by a work epoch; forks and stolen-task completions bump the epoch
// and wake parked workers.
//
// Concurrent fork/join ROOTS (DESIGN.md S10): an external thread entering
// run() claims one of kMaxRoots root slots -- each slot is its own deque --
// instead of the old become-worker-0-under-a-mutex protocol, so multiple
// external threads (the serve pipeline's matcher stage, bench drivers) can
// each run nested parallel_for simultaneously over the SHARED helper pool.
// Thieves scan every deque, worker and root alike,
// so helpers load-balance across whatever roots are live; a joining root
// steals too, which may execute another root's task -- tasks are
// self-contained (fn + ctx + range), so cross-root help is correctness-
// neutral and keeps every core busy. Each root's split tree lives entirely
// on its claimed deque plus whoever stole from it, so per-root join
// accounting never bleeds across roots: a root's run() returns exactly when
// ITS range is covered, regardless of what other roots are doing. When all
// kMaxRoots slots are busy the claiming thread spin/yields for a free one
// (bounded by the number of truly concurrent regions, not a correctness
// cliff). active_roots() feeds the cost model's per-root break-even
// (parallel/cost_model.h): with R roots sharing P workers a phase sees
// ~P/R effective workers, so the fork/join crossover moves.
//
// No heap allocation anywhere on the fork/join path: loop closures live in
// the caller's frame (a raw context pointer, not std::function), and forked
// task records live on the stack of the frame that forked them, which
// cannot unwind before the join completes. Claiming a root slot is one
// uncontended exchange; phases below the grain (and 1-worker pools) run
// inline without claiming anything.
//
// Worker count is fixed at first use: PARMATCH_NUM_THREADS=k pins k (k = 1
// is fully sequential), otherwise hardware concurrency. Complexity
// contract: a loop of n iterations with grain g costs n work, O(n/g) fork
// events, and O(g + log(n/g)) span on enough workers. Chunks delivered to
// the body are the grain-aligned blocks [k*g, (k+1)*g) (last one
// truncated), except the sequential fast path which delivers one chunk
// [0, n) -- the same contract the blocked primitives already rely on
// (DESIGN.md S2).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace parmatch::parallel {

namespace detail {

// A forked right half of a parallel loop. Lives on the stack of the frame
// that forked it; `done` is the join flag a thief sets after executing it.
struct RangeTask {
  void (*run)(RangeTask*);  // re-enters the templated split on the thief
  const void* ctx;          // LoopCtx<F> of the owning loop
  std::size_t lo, hi;
  std::atomic<bool> done{false};
};

// Chase-Lev work-stealing deque (orderings after Le et al., PPoPP 2013,
// expressed with seq_cst operations instead of standalone fences so TSan
// models every edge). Owner pushes/pops at the bottom; thieves take from
// the top. Fixed capacity: a full deque makes push fail and the caller
// splits sequentially instead, which degrades parallelism, never
// correctness (capacity >> the log-depth of any split tree in practice).
class Deque {
 public:
  static constexpr std::size_t kCap = 1024;  // power of two
  static constexpr std::size_t kMask = kCap - 1;

  bool push(RangeTask* t) {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t tp = top_.load(std::memory_order_acquire);
    if (b - tp >= static_cast<std::int64_t>(kCap)) return false;
    buf_[static_cast<std::size_t>(b) & kMask].store(
        t, std::memory_order_relaxed);
    // Publishes the slot (and the task fields written before the call) to
    // any thief that observes the new bottom.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return true;
  }

  RangeTask* pop() {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t tp = top_.load(std::memory_order_seq_cst);
    RangeTask* t = nullptr;
    if (tp <= b) {
      t = buf_[static_cast<std::size_t>(b) & kMask].load(
          std::memory_order_relaxed);
      if (tp == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(tp, tp + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
          t = nullptr;
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return t;
  }

  RangeTask* steal() {
    std::int64_t tp = top_.load(std::memory_order_seq_cst);
    std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (tp >= b) return nullptr;
    // Read before the CAS: a successful CAS hands this thief exclusive
    // ownership of exactly the value that was in the slot at `tp`; a failed
    // CAS discards the (possibly stale) read.
    RangeTask* t = buf_[static_cast<std::size_t>(tp) & kMask].load(
        std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return nullptr;
    return t;
  }

  bool empty() const {
    return top_.load(std::memory_order_seq_cst) >=
           bottom_.load(std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::array<std::atomic<RangeTask*>, kCap> buf_{};
};

}  // namespace detail

class Scheduler {
 public:
  // Concurrent top-level fork/join roots the pool admits. More concurrent
  // external regions than this spin for a slot; raise if a future layer
  // genuinely runs >16 simultaneous top-level regions.
  static constexpr int kMaxRoots = 16;

  static Scheduler& instance() {
    static Scheduler s;
    return s;
  }

  int workers() const { return workers_; }

  // Number of currently claimed top-level roots (monitoring + the cost
  // model's per-root break-even). Racy by design.
  int active_roots() const {
    return active_roots_.load(std::memory_order_relaxed);
  }

  // True when the calling thread is already inside the pool (a helper
  // worker or a thread holding a root slot): its next run() forks in place
  // instead of claiming a new root.
  static bool inside_pool() { return tls_id_ >= 0; }

  // Runs fn(begin, end) over [0, n) in grain-aligned chunks across all
  // workers; blocks until every chunk has finished. Safe to call from
  // inside a running chunk: nested regions fork onto the current worker's
  // deque and parallelize like top-level ones. Safe to call from multiple
  // external threads concurrently: each claims its own root slot.
  template <typename F>
  void run(std::size_t n, std::size_t grain, F&& fn) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    if (workers_ == 1 || n <= grain) {
      fn(0, n);
      return;
    }
    using Fd = std::remove_reference_t<F>;
    LoopCtx<Fd> ctx{this, &fn, grain};
    if (tls_id_ >= 0) {  // nested call on a worker or root: fork in place
      split<Fd>(ctx, 0, n);
      return;
    }
    // Top-level call from an external thread: claim a root slot (own
    // deque) for the duration. Loop bodies must not throw (forked task
    // records live on frames that would unwind past un-joined thieves);
    // the guard still releases the slot and restores tls_id_ on unwind so
    // a stray exception cannot leak the slot.
    int root = claim_root_slot();
    struct RootGuard {
      Scheduler* s;
      int root;
      ~RootGuard() {
        tls_id_ = -1;
        s->release_root_slot(root);
      }
    } guard{this, root};
    tls_id_ = root_slot_index(root);
    split<Fd>(ctx, 0, n);
    assert(worker_[static_cast<std::size_t>(tls_id_)].deque.empty());
  }

 private:
  template <typename F>
  struct LoopCtx {
    Scheduler* sched;
    F* fn;
    std::size_t grain;
  };

  template <typename F>
  static void thief_entry(detail::RangeTask* t) {
    const auto* c = static_cast<const LoopCtx<F>*>(t->ctx);
    c->sched->template split<F>(*c, t->lo, t->hi);
  }

  // Deque index of root slot r: slot 0 is the historical worker-0 deque
  // (fast path for the common single-root case); extra roots live past the
  // helper workers' deques.
  int root_slot_index(int r) const { return r == 0 ? 0 : workers_ + r - 1; }

  // Claims any free root slot, spin/yielding when all kMaxRoots are busy
  // (more simultaneous top-level regions than slots -- bounded wait, one
  // of them finishes). The relaxed pre-check keeps the scan read-only
  // until a slot actually looks free.
  int claim_root_slot() {
    for (;;) {
      for (int r = 0; r < kMaxRoots; ++r) {
        if (!root_busy_[r].load(std::memory_order_relaxed) &&
            !root_busy_[r].exchange(true, std::memory_order_acquire)) {
          active_roots_.fetch_add(1, std::memory_order_relaxed);
          return r;
        }
      }
      std::this_thread::yield();
    }
  }

  void release_root_slot(int r) {
    active_roots_.fetch_sub(1, std::memory_order_relaxed);
    root_busy_[r].store(false, std::memory_order_release);
  }

  // Grain-aligned binary split. Right halves are forked; the left descent
  // is the recursion (depth log2(n/grain)); an un-stolen right half
  // continues in the same frame.
  template <typename F>
  void split(const LoopCtx<F>& c, std::size_t lo, std::size_t hi) {
    detail::Deque& dq = worker_[tls_id_].deque;
    while (hi - lo > c.grain) {
      std::size_t nchunks = (hi - lo + c.grain - 1) / c.grain;
      std::size_t mid = lo + ((nchunks + 1) / 2) * c.grain;
      detail::RangeTask t{&thief_entry<F>, &c, mid, hi, {false}};
      if (dq.push(&t)) {
        signal_work();
        split<F>(c, lo, mid);
        if (dq.pop() == &t) {  // right half not stolen: run it here
          lo = mid;
          continue;
        }
        join(t);  // stolen: steal other work until the thief finishes it
        return;
      }
      split<F>(c, lo, mid);  // deque full: degrade to sequential split
      lo = mid;
    }
    (*c.fn)(lo, hi);
  }

  void execute_stolen(detail::RangeTask* t) {
    t->run(t);
    t->done.store(true, std::memory_order_release);
    signal_work();  // the joiner may be parked on this task
  }

  // Steal-while-waiting join: runs other tasks until the thief sets done,
  // then parks if the wait drags on. Stolen work may belong to any root.
  void join(detail::RangeTask& t) {
    int idle = 0;
    std::uint64_t seen = work_epoch_.load(std::memory_order_acquire);
    while (!t.done.load(std::memory_order_acquire)) {
      if (detail::RangeTask* s = try_steal()) {
        execute_stolen(s);
        idle = 0;
        continue;
      }
      if (++idle < kSpinRounds) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lk(mutex_);
      if (work_epoch_.load(std::memory_order_seq_cst) != seen) {
        seen = work_epoch_.load(std::memory_order_relaxed);
      } else {
        parked_.fetch_add(1, std::memory_order_seq_cst);
        cv_.wait(lk, [&] {
          return t.done.load(std::memory_order_seq_cst) ||
                 work_epoch_.load(std::memory_order_seq_cst) != seen;
        });
        seen = work_epoch_.load(std::memory_order_relaxed);
        parked_.fetch_sub(1, std::memory_order_seq_cst);
      }
      idle = 0;
    }
  }

  // Scans every deque -- helper workers AND root slots -- so helpers serve
  // whichever roots are live and a joining root helps its peers.
  detail::RangeTask* try_steal() {
    int self = tls_id_;
    int p = nslots_;
    std::uint32_t start = next_victim_seed();
    for (int i = 0; i < p; ++i) {
      int v = static_cast<int>((start + static_cast<std::uint32_t>(i)) %
                               static_cast<std::uint32_t>(p));
      if (v == self) continue;
      if (detail::RangeTask* t = worker_[v].deque.steal()) return t;
    }
    return nullptr;
  }

  static std::uint32_t next_victim_seed() {
    static thread_local std::uint32_t s = 0x9E3779B9u ^
        static_cast<std::uint32_t>(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
  }

  // Fork / stolen-completion signal: bump the epoch so parked predicates
  // re-fire, and take the lock only when somebody is actually parked.
  // seq_cst on the epoch bump and the parked_ read (paired with seq_cst on
  // the parker's parked_ increment and epoch load) closes the Dekker-style
  // store/load race: either this signal sees the parker and notifies under
  // the mutex, or the parker's predicate sees the new epoch and never
  // sleeps. Release/acquire alone would allow both sides to miss each
  // other on weakly-ordered hardware.
  void signal_work() {
    work_epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lk(mutex_);
      cv_.notify_all();
    }
  }

  void worker_loop(int id) {
    tls_id_ = id;
    std::uint64_t seen = work_epoch_.load(std::memory_order_acquire);
    int idle = 0;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (detail::RangeTask* t = try_steal()) {
        execute_stolen(t);
        idle = 0;
        continue;
      }
      if (++idle < kSpinRounds) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lk(mutex_);
      if (work_epoch_.load(std::memory_order_seq_cst) != seen) {
        seen = work_epoch_.load(std::memory_order_relaxed);
      } else {
        parked_.fetch_add(1, std::memory_order_seq_cst);
        cv_.wait(lk, [&] {
          return stop_.load(std::memory_order_seq_cst) ||
                 work_epoch_.load(std::memory_order_seq_cst) != seen;
        });
        seen = work_epoch_.load(std::memory_order_relaxed);
        parked_.fetch_sub(1, std::memory_order_seq_cst);
      }
      idle = 0;
    }
  }

  Scheduler() {
    workers_ = decide_workers();
    // Deque slots: [0] = root slot 0 (the historical worker-0 deque),
    // [1, workers_) = helper workers, [workers_, nslots_) = extra roots.
    nslots_ = workers_ + kMaxRoots - 1;
    worker_ = std::make_unique<PerWorker[]>(static_cast<std::size_t>(nslots_));
    threads_.reserve(static_cast<std::size_t>(workers_ - 1));
    for (int i = 1; i < workers_; ++i)
      threads_.emplace_back([this, i] { worker_loop(i); });
  }

  ~Scheduler() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_.store(true, std::memory_order_release);
      work_epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  static int decide_workers() {
    if (const char* env = std::getenv("PARMATCH_NUM_THREADS")) {
      int k = std::atoi(env);
      if (k >= 1) return k;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
  }

  // A short spin before parking: long enough to bridge the gap between
  // consecutive phases of one batch, short enough that an idle pool costs
  // nothing measurable. Spins yield, so oversubscribed runs (e.g. TSan at 4
  // threads on fewer cores) still make progress.
  static constexpr int kSpinRounds = 64;

  struct alignas(64) PerWorker {
    detail::Deque deque;
  };

  int workers_;
  int nslots_;  // workers_ + kMaxRoots - 1 deques
  std::unique_ptr<PerWorker[]> worker_;
  std::vector<std::thread> threads_;

  std::array<std::atomic<bool>, kMaxRoots> root_busy_{};
  std::atomic<int> active_roots_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<int> parked_{0};  // modified under mutex_, read lock-free
  std::atomic<bool> stop_{false};

  static thread_local int tls_id_;
};

inline thread_local int Scheduler::tls_id_ = -1;

inline int num_workers() { return Scheduler::instance().workers(); }

}  // namespace parmatch::parallel
