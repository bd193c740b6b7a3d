#include <algorithm>

#include "arch/panic.h"
#include "fuzz/hooks.h"
#include "metrics/metrics.h"
#include "threads/queue.h"

namespace mp::threads {

void CentralQueue::enq(Platform& p, ThreadState t) {
  p.lock(lock_);
  q_.push_back(std::move(t));
  p.unlock(lock_);
}

std::optional<ThreadState> CentralQueue::deq(Platform& p) {
  p.lock(lock_);
  if (q_.empty()) {
    p.unlock(lock_);
    return std::nullopt;
  }
  if (order_ == Order::kRandom) {
    std::swap(q_[p.rng().below(q_.size())], q_.back());
  }
  ThreadState t;
  if (order_ == Order::kFifo) {
    t = std::move(q_.front());
    q_.pop_front();
  } else {
    t = std::move(q_.back());
    q_.pop_back();
  }
  p.unlock(lock_);
  return t;
}

const char* CentralQueue::name() const {
  static const char* const kNames[] = {"central-fifo", "central-lifo",
                                       "central-random"};
  return kNames[static_cast<int>(order_)];
}

namespace {

bool entry_less(const int pa, const std::uint64_t sa, const int pb,
                const std::uint64_t sb) {
  // Max-heap ordering: lower priority (or later sequence) sorts "less".
  if (pa != pb) return pa < pb;
  return sa > sb;
}

}  // namespace

void PriorityQueue::set_priority(Platform& p, int thread_id, int priority) {
  p.lock(lock_);
  priorities_[thread_id] = priority;
  p.unlock(lock_);
}

void PriorityQueue::enq(Platform& p, ThreadState t) {
  p.lock(lock_);
  int prio = 0;
  if (auto it = priorities_.find(t.id); it != priorities_.end()) {
    prio = it->second;
  }
  heap_.push_back(Entry{prio, next_seq_++, std::move(t)});
  std::push_heap(heap_.begin(), heap_.end(), [](const Entry& a, const Entry& b) {
    return entry_less(a.priority, a.seq, b.priority, b.seq);
  });
  p.unlock(lock_);
}

std::optional<ThreadState> PriorityQueue::deq(Platform& p) {
  p.lock(lock_);
  if (heap_.empty()) {
    p.unlock(lock_);
    return std::nullopt;
  }
  std::pop_heap(heap_.begin(), heap_.end(), [](const Entry& a, const Entry& b) {
    return entry_less(a.priority, a.seq, b.priority, b.seq);
  });
  ThreadState t = std::move(heap_.back().t);
  heap_.pop_back();
  p.unlock(lock_);
  return t;
}

void DistributedQueue::init(Platform& p) {
  per_proc_.clear();
  for (int i = 0; i < p.max_procs(); i++) {
    auto pp = std::make_unique<PerProc>();
    pp->lock = p.mutex_lock();
    per_proc_.push_back(std::move(pp));
  }
}

void DistributedQueue::enq(Platform& p, ThreadState t) {
  PerProc& mine = *per_proc_[static_cast<std::size_t>(p.proc_id())];
  p.lock(mine.lock);
  mine.q.push_back(std::move(t));
  mine.approx_size.store(static_cast<int>(mine.q.size()),
                         std::memory_order_release);
  p.unlock(mine.lock);
}

std::optional<ThreadState> DistributedQueue::deq(Platform& p) {
  const auto n = per_proc_.size();
  const auto me = static_cast<std::size_t>(p.proc_id());
  // Own queue first (FIFO within a proc)...
  {
    PerProc& mine = *per_proc_[me];
    if (mine.approx_size.load(std::memory_order_acquire) > 0) {
      p.lock(mine.lock);
      if (!mine.q.empty()) {
        ThreadState t = std::move(mine.q.front());
        mine.q.pop_front();
        mine.approx_size.store(static_cast<int>(mine.q.size()),
                               std::memory_order_release);
        p.unlock(mine.lock);
        return t;
      }
      p.unlock(mine.lock);
    }
  }
  // ...then steal from the tail of a victim, starting at a random proc.
  // The unlocked size peek costs one shared-memory read, not a lock pair.
  const std::size_t start =
      fuzz::pick(fuzz::Kind::kStealVictim, n, p.rng().below(n));
  for (std::size_t step = 0; step < n; step++) {
    const std::size_t v = (start + step) % n;
    if (v == me) continue;
    PerProc& victim = *per_proc_[v];
    p.work(2);
    if (victim.approx_size.load(std::memory_order_acquire) == 0) continue;
    p.lock(victim.lock);
    if (!victim.q.empty()) {
      ThreadState t = std::move(victim.q.back());
      victim.q.pop_back();
      victim.approx_size.store(static_cast<int>(victim.q.size()),
                               std::memory_order_release);
      p.unlock(victim.lock);
      return t;
    }
    p.unlock(victim.lock);
  }
  return std::nullopt;
}

namespace {

// Bound on each core's recycled-cell cache; overflow falls back to delete.
constexpr int kMaxFreeCells = 256;

// The single-owner rule for a core's deque bottom and cell cache: only the
// OS thread currently running proc `mine.id` may touch them.  A caller that
// read its core before a safe point may have been preempted and resumed on
// another proc since.
void check_owner(Platform& p, const ProcCore& mine) {
  MPNJ_CHECK(mine.id == p.proc_id(),
             "per-proc run deque touched off its owning proc");
}

// Heap a ThreadState into a deque cell, reusing the proc's cell cache when
// it has one (the cache is owner-only — see ProcCore::free_cells).
ThreadState* make_cell(Platform& p, ProcCore& mine, ThreadState&& t) {
  check_owner(p, mine);
  ThreadState* cell = mine.free_cells;
  if (cell == nullptr) return new ThreadState(std::move(t));
  mine.free_cells = cell->next_free;
  mine.free_cell_count--;
  cell->k = std::move(t.k);
  cell->id = t.id;
  cell->next_free = nullptr;
  return cell;
}

// Move the state out of a deque cell and recycle the cell into the
// dequeuing proc's cache.
std::optional<ThreadState> take_cell(Platform& p, ProcCore& mine,
                                     ThreadState* cell) {
  check_owner(p, mine);
  std::optional<ThreadState> t{std::move(*cell)};
  t->next_free = nullptr;
  if (mine.free_cell_count < kMaxFreeCells) {
    cell->next_free = mine.free_cells;
    mine.free_cells = cell;
    mine.free_cell_count++;
  } else {
    delete cell;
  }
  return t;
}

}  // namespace

void WorkStealingQueue::init(Platform& p) {
  if (!cores_.empty()) return;
  // No scheduler bound its cores: make our own (queue-only tests and
  // harnesses drive the discipline without a Scheduler).
  owned_.clear();
  for (int i = 0; i < p.max_procs(); i++) {
    owned_.push_back(std::make_unique<ProcCore>(i));
  }
  cores_.reserve(owned_.size());
  for (auto& c : owned_) cores_.push_back(c.get());
}

void WorkStealingQueue::enq(Platform& p, ThreadState t) {
  // Owner-side push: a slot store plus the release publish of bottom — no
  // lock pair, no read-modify-write.  Charge before reading the core: work()
  // is a safe point, where a preempt can move this thread to another proc.
  p.work(4);
  ProcCore& mine = *cores_[static_cast<std::size_t>(p.proc_id())];
  mine.deque.push(make_cell(p, mine, std::move(t)));
}

std::optional<ThreadState> WorkStealingQueue::deq(Platform& p) {
  const auto n = cores_.size();
  const auto me = static_cast<std::size_t>(p.proc_id());
  ProcCore& mine = *cores_[me];
  // Own deque first.
  if (order_ == OwnerOrder::kLifo) {
    if (!mine.deque.empty()) {
      p.charge_cas();  // pop's store-load barrier / last-entry CAS
      if (ThreadState* cell = mine.deque.pop()) {
        return take_cell(p, mine, cell);
      }
    }
  } else {
    // FIFO owner order: the owner takes its own oldest entry with the same
    // top CAS the thieves use.  kLost means a thief took that entry — the
    // next-oldest is still ours to try.
    while (!mine.deque.empty()) {
      ThreadState* cell = nullptr;
      p.charge_cas();
      const auto r = mine.deque.steal(&cell);
      if (r == WsDeque::Steal::kGot) return take_cell(p, mine, cell);
      if (r == WsDeque::Steal::kEmpty) break;
    }
  }
  // Steal from a victim, starting at a random proc.  The unsynchronized
  // size peek costs one shared-memory read; the take itself is one CAS.
  const std::size_t start =
      fuzz::pick(fuzz::Kind::kStealVictim, n, p.rng().below(n));
  for (std::size_t step = 0; step < n; step++) {
    const std::size_t v = (start + step) % n;
    if (v == me) continue;
    ProcCore& victim = *cores_[v];
    p.work(2);
    if (victim.deque.empty()) continue;
    ThreadState* cell = nullptr;
    MPNJ_METRIC_COUNT(kSchedStealAttempts, 1);
    p.charge_cas();
    const auto r = victim.deque.steal(&cell);
    if (r == WsDeque::Steal::kGot) {
      MPNJ_METRIC_COUNT(kSchedStealCommits, 1);
      if (steal_rec_) {
        steal_rec_->emplace_back(static_cast<int>(me), static_cast<int>(v));
      }
      return take_cell(p, mine, cell);
    }
    // kLost: someone else took the entry — global progress was made; move
    // on to the next victim rather than hammering this one's top.
  }
  return std::nullopt;
}

}  // namespace mp::threads
