#include "mp/sim_platform.h"

#include <algorithm>

#include "arch/panic.h"
#include "fuzz/hooks.h"
#include "metrics/metrics.h"

namespace mp {

namespace {

struct SimLockCell final : detail::LockCell {
  bool held = false;
};

SimLockCell& cell_of(const MutexLock& l) {
  MPNJ_CHECK(l.valid(), "operation on an invalid MutexLock");
  return *static_cast<SimLockCell*>(l.cell());
}

// Schedule-fuzzer cost point: inject the sink's virtual-time jitter before
// the operation.  Each charge is an engine scheduling point, so delaying
// this proc here slides it across the other procs' histories — an
// interleaving perturbation the cost model stays consistent under.  With
// no sink installed this is one relaxed load.
inline void fuzz_jitter(sim::Engine& eng, fuzz::Kind k) {
  if (fuzz::installed_sink() == nullptr) return;
  if (eng.current() < 0) return;
  const double j = fuzz::point(k);
  if (j > 0) eng.charge_us(j);
}

}  // namespace

SimPlatform::SimPlatform(SimPlatformConfig config)
    : Platform(/*charges_work=*/true), cfg_(std::move(config)) {
  engine_ = std::make_unique<sim::Engine>(
      cfg_.machine, [this](int id) { proc_main(id); });
  procs_.reserve(static_cast<std::size_t>(cfg_.machine.num_procs));
  for (int i = 0; i < cfg_.machine.num_procs; i++) {
    auto p = std::make_unique<SimProc>();
    p->id = i;
    p->exec.proc_id = i;
    procs_.push_back(std::move(p));
  }
  engine_->set_resume_hook([this](int id) {
    cont::set_current_exec(&procs_[static_cast<std::size_t>(id)]->exec);
    // All simulated procs share one OS thread; rebinding the metrics slot at
    // every resume keeps per-proc attribution anyway.
    metrics::Registry::bind_slot(id);
  });
  engine_->set_timer_hook([this](int id) { on_timer(id); });
  init_stacks(cfg_.stack);
  // Start from a cold slot pool: decommit every warm free slot left over
  // from earlier runs in this process.  A cold-slot acquire and a fresh
  // carve charge the same commit cost, so with no warm slots at boot the
  // charge sequence — and therefore the whole run — is bit-reproducible
  // no matter what ran before.
  cont::SegmentPool::instance().trim();
  // Charge stack-slot commit/decommit traffic to the proc doing it.  The
  // pool fires the hook outside its lock, and only real page transitions
  // reach it (cache-hot recycles are free), so this prices exactly the cold
  // paths.  Pool work on the engine's own thread between proc runs
  // (current() < 0) is simulation bookkeeping, not proc time: skip it.
  cont::SegmentPool::instance().set_accounting(
      [](void* arg, std::int64_t commit_bytes, std::int64_t decommit_bytes) {
        auto* self = static_cast<SimPlatform*>(arg);
        sim::Engine& eng = *self->engine_;
        if (eng.current() < 0) return;
        const sim::MachineModel& m = self->cfg_.machine;
        constexpr double kPage = 4096.0;
        const double us =
            (static_cast<double>(commit_bytes) / kPage) *
                m.stack_commit_us_per_page +
            (static_cast<double>(decommit_bytes) / kPage) *
                m.stack_decommit_us_per_page;
        if (us > 0) eng.charge_us(us);
      },
      this);
  init_heap(cfg_.heap);
}

SimPlatform::~SimPlatform() {
  // Defensive mirror of the clear in backend_run: if a run was abandoned
  // (panic path, engine never drained), the thread-local exec may still
  // name one of the procs freed below.
  for (auto& p : procs_) {
    if (cont::current_exec() == &p->exec) {
      cont::set_current_exec(nullptr);
      break;
    }
  }
  cont::SegmentPool::instance().set_accounting(nullptr, nullptr);
}

// ----- proc lifecycle -----

void SimPlatform::proc_main(int id) {
  SimProc& p = *procs_[static_cast<std::size_t>(id)];
  p.exec.idle_ctx = nullptr;  // set per entry by run_from_idle convention
  for (;;) {
    while (!p.has_work) engine_->idle_wait();
    p.has_work = false;
    cont::ContRef k = std::move(p.mailbox);
    p.active = true;
    if (cfg_.preempt_interval_us > 0) {
      engine_->arm_hook(id, engine_->now() + cfg_.preempt_interval_us +
                                fuzz::point(fuzz::Kind::kPreemptArm));
    }
    arch::Context idle_ctx;
    p.exec.idle_ctx = &idle_ctx;
    cont::run_from_idle(std::move(k), p.exec);
    p.exec.idle_ctx = nullptr;
    p.active = false;
  }
}

bool SimPlatform::backend_acquire(cont::ContRef k, Datum datum) {
  const bool on_proc = engine_->current() >= 0;
  for (auto& up : procs_) {
    SimProc& p = *up;
    if (!p.active && !p.has_work && engine_->is_idle(p.id)) {
      // Only a successful acquisition pays the operating-system call
      // (acquire_proc "requires communication with the operating system",
      // section 3.1); once every proc is held — the common case in the
      // evaluated configuration — the failing check is a cheap user-level
      // test.
      if (on_proc) engine_->charge_us(cfg_.machine.proc_acquire_us);
      p.mailbox = std::move(k);
      p.has_work = true;
      p.datum = datum;
      engine_->wake(p.id, on_proc ? engine_->now() : 0.0);
      return true;
    }
  }
  if (on_proc) engine_->charge_instr(20);
  return false;
}

void SimPlatform::backend_release() {
  engine_->charge_us(cfg_.machine.proc_release_us);
  cont::exit_to_idle();
}

void SimPlatform::backend_run(cont::ContRef root, Datum root_datum) {
  const bool posted = backend_acquire(std::move(root), root_datum);
  MPNJ_CHECK(posted, "could not start the root proc");
  engine_->run();
  // The resume hook pointed the thread-local exec at whichever virtual proc
  // ran last; that proc's ExecContext dies with this platform, so the
  // pointer must not outlive the run.
  cont::set_current_exec(nullptr);
  if (!done()) {
    arch::panic(
        "simulated deadlock: all procs idle but the root computation has "
        "not completed");
  }
}

// ----- identity -----

void SimPlatform::for_each_proc(const std::function<void(ProcRec&)>& fn) {
  for (auto& p : procs_) fn(*p);
}

int SimPlatform::max_procs() const { return cfg_.machine.num_procs; }

int SimPlatform::active_procs() const {
  int n = 0;
  for (const auto& p : procs_) {
    if (p->active) n++;
  }
  return n;
}

// ----- locks -----

MutexLock SimPlatform::mutex_lock() {
  return MutexLock(std::make_shared<SimLockCell>());
}

bool SimPlatform::raw_try_lock(const MutexLock& l) {
  SimLockCell& cell = cell_of(l);
  engine_->charge_instr(cfg_.machine.lock_op_instr);
  if (!cfg_.machine.hardware_lock_bus) {
    engine_->bus_transfer(cfg_.machine.tas_bus_bytes);
  }
  if (cell.held) return false;
  cell.held = true;
  engine_->stats(engine_->current()).lock_acquires++;
  return true;
}

// Lock operations are deliberately NOT signal-delivery points: a handler
// that suspends the thread (the preemption yield) must never run while the
// client is inside a spin-lock critical section, or the parked holder
// deadlocks every spinner.  Signals are delivered at work() / safe_point().
bool SimPlatform::try_lock(const MutexLock& l) {
  fuzz_jitter(*engine_, fuzz::Kind::kLockAcquire);
  return raw_try_lock(l);
}

void SimPlatform::lock(const MutexLock& l) {
  fuzz_jitter(*engine_, fuzz::Kind::kLockAcquire);
  if (raw_try_lock(l)) {
    MPNJ_METRIC_COUNT(kLockAcquires, 1);
    return;
  }
  const double spin_from = engine_->now();
  std::uint64_t iters = 0;
  std::uint64_t backoff_rounds = 0;
  double backoff = cfg_.lock_backoff_base_us;
  for (;;) {
    iters++;
    // A failed iteration costs the retry loop plus (with backoff enabled)
    // an off-bus delay; both are safe points, so a spinning proc still
    // parks for collections and receives preemption signals.
    engine_->charge_instr(cfg_.machine.spin_retry_instr);
    if (cfg_.lock_backoff_base_us > 0) {
      engine_->charge_us(backoff);
      backoff = std::min(backoff * 2, 1000.0);
      backoff_rounds++;
    }
    if (raw_try_lock(l)) break;
  }
  engine_->note_spin(engine_->now() - spin_from, iters);
  MPNJ_METRIC_COUNT(kLockAcquires, 1);
  MPNJ_METRIC_COUNT(kLockContended, 1);
  MPNJ_METRIC_COUNT(kLockSpinIters, iters);
  MPNJ_METRIC_COUNT(kLockBackoffRounds, backoff_rounds);
  MPNJ_METRIC_RECORD(kLockSpinIters, iters);
}

void SimPlatform::unlock(const MutexLock& l) {
  fuzz_jitter(*engine_, fuzz::Kind::kLockRelease);
  SimLockCell& cell = cell_of(l);
  engine_->charge_instr(cfg_.machine.lock_op_instr);
  if (!cfg_.machine.hardware_lock_bus) {
    engine_->bus_transfer(cfg_.machine.tas_bus_bytes);
  }
  // Any proc may unlock, not just the one that set the lock (section 3.3).
  cell.held = false;
}

// ----- time / work -----

void SimPlatform::charge_work(double instructions) {
  engine_->charge_instr(instructions);
  deliver_pending_signals(self());
}

double SimPlatform::now_us() { return engine_->now(); }

void SimPlatform::charged_safe_point() {
  engine_->safe_point();
  deliver_pending_signals(self());
}

void SimPlatform::begin_idle_poll() {
  SimProc& p = static_cast<SimProc&>(self());
  if (!p.idle_polling) {
    p.idle_polling = true;
    p.idle_poll_start = engine_->now();
  }
}

void SimPlatform::idle_wait(double max_us) {
  // The simulated analogue of sleeping: virtual time advances without
  // instructions retiring.  Deterministic, and accounted as idle time when
  // bracketed by begin/end_idle_poll (which the scheduler's idle loop does).
  if (max_us > 0) engine_->charge_us(max_us);
  deliver_pending_signals(self());
}

void SimPlatform::park_proc(double max_us) {
  fuzz_jitter(*engine_, fuzz::Kind::kPark);
  SimProc& p = static_cast<SimProc&>(self());
  const auto& m = cfg_.machine;
  if (p.unpark_pending) {
    // A kick posted while we were running ends the park before it starts.
    p.unpark_pending = false;
    deliver_pending_signals(self());
    return;
  }
  engine_->charge_us(m.park_us);
  // Advance virtual time in slices, noticing a posted unpark at slice
  // granularity.  Each charge is an engine scheduling point, so a parked
  // proc still yields to lagging procs, parks for stop-the-worlds, and
  // receives timer hooks — and the run stays deterministic.
  double remaining = max_us;
  const double slice = m.park_slice_us > 0 ? m.park_slice_us : max_us;
  while (remaining > 0) {
    SimProc& cur = static_cast<SimProc&>(self());
    if (cur.unpark_pending) break;
    const double step = remaining < slice ? remaining : slice;
    engine_->charge_us(step);
    remaining -= step;
  }
  static_cast<SimProc&>(self()).unpark_pending = false;
  deliver_pending_signals(self());
}

void SimPlatform::unpark_proc(int proc_id) {
  // Jitter lands on the waker, before the kick is posted: the window in
  // which a lost-wakeup bug loses the wakeup.
  fuzz_jitter(*engine_, fuzz::Kind::kUnpark);
  procs_[static_cast<std::size_t>(proc_id)]->unpark_pending = true;
  // The kick itself costs the waker an eventfd-write analogue.
  if (engine_->current() >= 0) {
    engine_->charge_instr(cfg_.machine.unpark_instr);
  }
}

void SimPlatform::charge_cas() {
  fuzz_jitter(*engine_, fuzz::Kind::kCas);
  engine_->charge_instr(cfg_.machine.cas_instr);
  if (!cfg_.machine.hardware_lock_bus) {
    engine_->bus_transfer(cfg_.machine.tas_bus_bytes);
  }
}

void SimPlatform::charge_lock_handoff() {
  fuzz_jitter(*engine_, fuzz::Kind::kHandoff);
  engine_->charge_instr(cfg_.machine.lock_handoff_instr);
  if (!cfg_.machine.hardware_lock_bus) {
    engine_->bus_transfer(cfg_.machine.tas_bus_bytes);
  }
}

void SimPlatform::end_idle_poll() {
  SimProc& p = static_cast<SimProc&>(self());
  if (p.idle_polling) {
    p.idle_polling = false;
    p.idle_poll_us += engine_->now() - p.idle_poll_start;
  }
}

arch::Rng& SimPlatform::rng() { return engine_->rng(engine_->current()); }

void SimPlatform::set_preempt_interval(double us) {
  cfg_.preempt_interval_us = us;
  if (us > 0 && engine_->current() >= 0) {
    engine_->arm_hook(engine_->current(),
                      engine_->now() + us +
                          fuzz::point(fuzz::Kind::kPreemptArm));
  }
}

void SimPlatform::on_timer(int id) {
  SimProc& p = *procs_[static_cast<std::size_t>(id)];
  if (cfg_.preempt_interval_us <= 0) return;
  // Post only: this hook runs inside the engine's scheduling bookkeeping,
  // where running a handler that migrates the thread to another proc would
  // leave the engine mid-call on stale state.  Delivery happens at the
  // platform-level safe points (work / lock operations / safe_point), which
  // re-resolve the current proc after the handler returns.
  post_signal_to(p, Sig::kPreempt);
  // Jittering the re-arm slides every later preemption on this proc, which
  // moves the signal-delivery points across the thread's critical sections.
  engine_->arm_hook(id, engine_->now() + cfg_.preempt_interval_us +
                            fuzz::point(fuzz::Kind::kPreemptArm));
}

// ----- collector hooks -----

void SimPlatform::stop_world(gc::WorkerFn work) {
  // All simulated procs are fibers of one kernel thread, so a parked proc
  // cannot run `work` concurrently with the collector; drop the fn and model
  // the parallel speedup in charge_gc instead (the collector proc does all
  // the real copying either way).
  (void)work;
  engine_->stop_world();
}

void SimPlatform::resume_world() { engine_->resume_world(); }

void SimPlatform::charge_gc(std::uint64_t words_copied) {
  const auto& m = cfg_.machine;
  const double t0 = engine_->now();
  const double w = static_cast<double>(words_copied);
  // With parallel collection every stopped proc is a copying worker, so the
  // instruction cost divides across them — but the shared bus does not: the
  // same bytes move either way, which is what bounds the modeled speedup.
  // Each extra worker also pays a per-worker rendezvous/termination cost.
  int workers = 1;
  if (cfg_.heap.parallel_gc) workers += engine_->num_stopped();
  engine_->charge_us(m.gc_sync_us +
                     m.gc_par_sync_us_per_worker * (workers - 1));
  engine_->charge_instr(w * m.gc_instr_per_word /
                        static_cast<double>(workers));
  engine_->bus_transfer(w * m.gc_bus_bytes_per_word);
  engine_->stats(engine_->current()).gc_us += engine_->now() - t0;
}

void SimPlatform::charge_alloc(std::uint64_t words) {
  fuzz_jitter(*engine_, fuzz::Kind::kAlloc);
  const auto& m = cfg_.machine;
  const double w = static_cast<double>(words);
  engine_->charge_instr(w * m.alloc_instr_per_word);
  // A nursery that fits in the per-processor cache turns most allocation
  // write misses into hits (section 7's future-work strategy).
  const double miss_factor =
      static_cast<double>(cfg_.heap.nursery_bytes) <= m.cache_bytes
          ? m.cached_alloc_bus_factor
          : 1.0;
  engine_->bus_transfer(w * m.alloc_bus_bytes_per_word * miss_factor);
}

void SimPlatform::charge_card_scan(std::uint64_t cards, std::uint64_t words) {
  const auto& m = cfg_.machine;
  const double t0 = engine_->now();
  const double c = static_cast<double>(cards);
  const double w = static_cast<double>(words);
  // Like charge_gc: parallel workers split the parse work, the bus carries
  // the same read traffic either way.
  int workers = 1;
  if (cfg_.heap.parallel_gc) workers += engine_->num_stopped();
  engine_->charge_instr(
      (c * m.gc_card_scan_instr_per_card + w * m.gc_card_scan_instr_per_word) /
      static_cast<double>(workers));
  engine_->bus_transfer(w * m.gc_card_scan_bus_bytes_per_word);
  engine_->stats(engine_->current()).gc_us += engine_->now() - t0;
}

void SimPlatform::charge_los_alloc(std::uint64_t pages) {
  engine_->charge_us(static_cast<double>(pages) *
                     cfg_.machine.los_alloc_us_per_page);
}

void SimPlatform::charge_los_sweep(std::uint64_t pages) {
  const double t0 = engine_->now();
  engine_->charge_instr(static_cast<double>(pages) *
                        cfg_.machine.los_sweep_instr_per_page);
  engine_->stats(engine_->current()).gc_us += engine_->now() - t0;
}

void SimPlatform::rendezvous_and_work(const gc::WorkerFn& work) {
  // Parking suffices: the engine accounts the wait as gc_wait_us and the
  // collector's charge_gc models this proc's share of the copying work.
  (void)work;
  engine_->safe_point();
}

int SimPlatform::cur_proc() { return engine_->current(); }

int SimPlatform::nproc() { return cfg_.machine.num_procs; }

cont::ExecContext* SimPlatform::proc_exec(int id) {
  return &procs_[static_cast<std::size_t>(id)]->exec;
}

// ----- report -----

SimReport SimPlatform::report() const {
  SimReport r;
  r.procs = cfg_.machine.num_procs;
  r.total_us = engine_->total_us();
  for (int i = 0; i < r.procs; i++) {
    const sim::ProcStats& s = engine_->stats(i);
    const SimProc& p = *procs_[static_cast<std::size_t>(i)];
    r.busy_us += s.busy_us - p.idle_poll_us;
    r.spin_us += s.spin_us;
    // A proc that went idle (or never started) before the end of the run
    // accumulates trailing idle time up to the global finish line; polling
    // for work while holding the proc counts as idle as well.
    r.idle_us += s.idle_us + p.idle_poll_us;
    if (engine_->is_idle(i)) r.idle_us += r.total_us - engine_->clock_of(i);
    r.gc_wait_us += s.gc_wait_us;
    r.gc_us += s.gc_us;
    r.bus_wait_us += s.bus_wait_us;
    r.lock_acquires += s.lock_acquires;
    r.lock_spin_iters += s.lock_spin_iters;
  }
  r.bus = engine_->bus_stats();
  r.heap = heap().stats();
  return r;
}

}  // namespace mp
