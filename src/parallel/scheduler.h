// parallel/scheduler.h -- a work-stealing fork/join pool over std::thread
// (DESIGN.md S2). This is the binary-forking model stand-in the paper
// assumes (Section 2): parallel loops with O(log) depth overhead.
//
// Design: one process-wide pool of (num_workers - 1) helper threads plus
// the calling (root) thread, each owning a Chase-Lev deque of forked loop
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
// One fork/join ROOT (DESIGN.md S10): deque 0 belongs to whichever
// external thread is inside run(). The paper's model is one binary-forking
// computation per batch, and the service forks only from its matcher
// thread, so one root is all a caller needs. An external thread that finds
// the root taken runs its whole range inline as one [0, n) chunk -- the
// chunk the 1-worker and below-grain paths already deliver, so results
// never depend on it, and no caller's phase decision depends on what other
// threads are doing (parallel/cost_model.h).
//
// No heap allocation anywhere on the fork/join path: loop closures live in
// the caller's frame (a raw context pointer, not std::function), and forked
// task records live on the stack of the frame that forked them, which
// cannot unwind before the join completes. Claiming the root is one
// exchange; phases below the grain (and 1-worker pools) run inline without
// claiming anything.
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
  static Scheduler& instance() {
    static Scheduler s;
    return s;
  }

  int workers() const { return workers_; }

  // Runs fn(begin, end) over [0, n) in grain-aligned chunks across all
  // workers; blocks until every chunk has finished. Safe to call from
  // inside a running chunk: nested regions fork onto the current worker's
  // deque and parallelize like top-level ones. Safe to call from several
  // external threads at once: the one holding the root forks, the others
  // run their range inline.
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
    if (tls_id_ >= 0) {  // nested call on a worker or the root: fork in place
      split<Fd>(ctx, 0, n);
      return;
    }
    if (root_busy_.exchange(true, std::memory_order_acquire)) {
      fn(0, n);  // another external thread holds the root
      return;
    }
    // Top-level call holding the root (deque 0) for the duration. Loop
    // bodies must not throw (forked task records live on frames that would
    // unwind past un-joined thieves); the guard still releases the root and
    // restores tls_id_ on unwind so a stray exception cannot leak it.
    struct RootGuard {
      Scheduler* s;
      ~RootGuard() {
        tls_id_ = -1;
        s->root_busy_.store(false, std::memory_order_release);
      }
    } guard{this};
    tls_id_ = 0;
    split<Fd>(ctx, 0, n);
    assert(worker_[0].deque.empty());
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
  // then parks if the wait drags on.
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

  // Scans every other deque, the root's included.
  detail::RangeTask* try_steal() {
    int self = tls_id_;
    int p = workers_;
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
    // Deque 0 is the root's; [1, workers_) are the helper workers'.
    worker_ = std::make_unique<PerWorker[]>(static_cast<std::size_t>(workers_));
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
  std::unique_ptr<PerWorker[]> worker_;
  std::vector<std::thread> threads_;
  std::atomic<bool> root_busy_{false};

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
