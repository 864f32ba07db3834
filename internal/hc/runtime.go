// Package hc implements the Habanero-C intra-node runtime the paper
// builds HCMPI on: a pool of computation workers with Chase–Lev
// work-stealing deques, async/finish structured task parallelism, and
// data-driven tasks (DDTs) synchronizing through data-driven futures
// (DDFs).
//
// Tasks receive a *Ctx, the moral equivalent of Habanero-C's implicit
// current-worker/current-finish state; async spawns a child task into the
// current worker's deque and finish joins every task transitively spawned
// in its scope. The join is help-first: a worker blocked at the end of a
// finish executes other tasks (its own deque first, then steals) instead
// of idling, and parks only when the whole runtime has no visible work.
// The same loop (worker.helpUntil) drives the idle worker itself and any
// task that waits on an external condition through Ctx.HelpUntil.
package hc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"hcmpi/internal/deque"
	"hcmpi/internal/trace"
)

// Task is one schedulable unit: a closure plus the finish scope it
// belongs to. The execution context is embedded in the frame so that
// running a task allocates nothing; frames spawned through a worker's
// frame pool (pooled == true) are recycled onto the running worker's
// free list after fn returns. A *Ctx is therefore only valid while its
// task is executing — retaining one past the task's return was always
// meaningless (the worker association dies with the task) and is now
// also unsafe.
type Task struct {
	fn     func(*Ctx)
	finish *Finish
	ctx    Ctx
	// pooled marks frames drawn from a worker frame pool. Frames built
	// outside a worker (Root, Releaser implementations) stay unpooled and
	// fall back to the GC: the runtime cannot know whether the client
	// retains them.
	pooled bool
}

// Runtime is one node's worker pool.
type Runtime struct {
	workers  []*worker
	inject   *deque.Stack[Task]   // tasks from non-worker goroutines
	stealSet []*deque.Deque[Task] // deques visible to thieves (fixed at New)

	idleMu   sync.Mutex
	idleCond *sync.Cond
	sleepers atomic.Int32
	done     atomic.Bool

	// wakeSeq is the wake ticket counter: every Wake bumps it, and an
	// idle or waiting worker re-checks as soon as it observes a new
	// ticket, so freshly published work or a just-satisfied wait is
	// picked up without a park/unpark round trip through idleCond.
	wakeSeq atomic.Uint64

	// helpers recycles the detached worker contexts that AsyncBlocking
	// spins up (deque + RNG + frame pool are worth keeping).
	helpers *deque.Stack[worker]

	wg sync.WaitGroup

	// hpt, when non-nil, drives locality-aware spawning and stealing.
	hpt *HPT

	// metrics is the runtime's counter registry (always on — one
	// uncontended atomic add per event); tracer, when non-nil, records
	// timeline events onto per-worker rings.
	metrics *trace.Metrics
	tracer  *trace.Tracer

	steals        *trace.Counter
	stealAttempts *trace.Counter
	stealFails    *trace.Counter
	stealBatched  *trace.Counter
	tasksRun      *trace.Counter
	tasksSpawned  *trace.Counter
	parks         *trace.Counter
}

type worker struct {
	id    int
	rt    *Runtime
	deque *deque.Deque[Task]
	rng   *rand.Rand
	// detached marks contexts that do not own a pool-visible deque
	// (dedicated goroutines for blocking tasks); their spawns are
	// injected into the pool instead.
	detached bool
	// place is the HPT leaf this worker is attached to (nil without an
	// HPT); victims orders steal targets by place distance.
	place   *Place
	victims []int
	// ring is this worker's trace timeline; nil when tracing is
	// disabled (the nil check inside Emit is the whole disabled path).
	ring *trace.Ring
	// frames recycles task frames. Single-owner by construction: a
	// worker allocates spawn frames from its own list and the worker
	// that RUNS a task frees the frame into its own list, both on the
	// worker's goroutine — frames migrate between pools with steals.
	frames *deque.FreeList[Task]
}

// Ctx is the execution context handed to every task: which worker is
// running it and which finish scope encloses it.
type Ctx struct {
	w      *worker
	finish *Finish
}

// Worker returns the executing worker's id, in [0, NumWorkers).
func (c *Ctx) Worker() int { return c.w.id }

// NumWorkers returns the size of the computation worker pool.
func (c *Ctx) NumWorkers() int { return len(c.w.rt.workers) }

// Runtime returns the runtime executing this task.
func (c *Ctx) Runtime() *Runtime { return c.w.rt }

// New creates a runtime with n computation workers and starts them.
// extraStealSources are deques owned by non-worker components (HCMPI's
// communication worker) that computation workers may steal from — the
// paper's comm worker "pushes the continuation of the finish onto its
// deque to be stolen by computation workers".
func New(n int, extraStealSources ...*deque.Deque[Task]) *Runtime {
	return NewTraced(n, nil, 0, extraStealSources...)
}

// NewTraced is New with tracing: when tr is non-nil, each worker
// records its timeline onto a per-worker ring registered under process
// id pid (HCMPI uses the MPI rank). A nil tr costs nothing.
func NewTraced(n int, tr *trace.Tracer, pid int, extraStealSources ...*deque.Deque[Task]) *Runtime {
	rt := newRuntime(n, extraStealSources...)
	rt.attachTracer(tr, pid)
	rt.start()
	return rt
}

// attachTracer wires per-worker trace rings; it must run before any
// worker starts (workers read w.ring unsynchronized).
func (rt *Runtime) attachTracer(tr *trace.Tracer, pid int) {
	rt.tracer = tr
	for _, w := range rt.workers {
		w.ring = tr.Register(pid, w.id, fmt.Sprintf("worker %d", w.id), trace.TrackCompute)
	}
}

// newRuntime builds the structures without launching workers, so
// variants (NewWithHPT) can finish wiring before any worker runs.
func newRuntime(n int, extraStealSources ...*deque.Deque[Task]) *Runtime {
	if n <= 0 {
		panic(fmt.Sprintf("hc: worker count %d", n))
	}
	rt := &Runtime{inject: deque.NewStack[Task](), helpers: deque.NewStack[worker](), metrics: trace.NewMetrics()}
	rt.steals = rt.metrics.Counter("hc_steals")
	rt.stealAttempts = rt.metrics.Counter("hc_steal_attempts")
	rt.stealFails = rt.metrics.Counter("hc_steal_fails")
	rt.stealBatched = rt.metrics.Counter("hc_steal_batch")
	rt.tasksRun = rt.metrics.Counter("hc_tasks_run")
	rt.tasksSpawned = rt.metrics.Counter("hc_tasks_spawned")
	rt.parks = rt.metrics.Counter("hc_parks")
	rt.idleCond = sync.NewCond(&rt.idleMu)
	for i := 0; i < n; i++ {
		w := &worker{id: i, rt: rt, deque: deque.NewDeque[Task](),
			rng:    rand.New(rand.NewSource(int64(i)*2654435761 + 1)),
			frames: deque.NewFreeList[Task](frameListCap)}
		rt.workers = append(rt.workers, w)
		rt.stealSet = append(rt.stealSet, w.deque)
	}
	rt.stealSet = append(rt.stealSet, extraStealSources...)
	return rt
}

func (rt *Runtime) start() {
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go w.loop()
	}
}

// NumWorkers returns the pool size.
func (rt *Runtime) NumWorkers() int { return len(rt.workers) }

// Steals returns the number of successful intra-node steals so far.
func (rt *Runtime) Steals() int64 { return rt.steals.Load() }

// TasksRun returns the number of tasks executed so far.
func (rt *Runtime) TasksRun() int64 { return rt.tasksRun.Load() }

// Metrics exposes the runtime's counter registry (hc_steals,
// hc_steal_attempts, hc_steal_fails, hc_tasks_run, hc_tasks_spawned —
// plus whatever clients like the HCMPI communication worker register).
func (rt *Runtime) Metrics() *trace.Metrics { return rt.metrics }

// Tracer returns the tracer attached at construction (nil when
// tracing is disabled).
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// Shutdown stops the workers after the currently running tasks finish.
// Pending queued tasks are discarded; callers should have joined their
// work (via Root/finish) first.
func (rt *Runtime) Shutdown() {
	rt.done.Store(true)
	rt.Wake()
	rt.wg.Wait()
}

// Root runs f as a top-level task inside an implicit finish and blocks
// the calling (non-worker) goroutine until f and everything it spawned
// have completed.
func (rt *Runtime) Root(f func(*Ctx)) {
	root := &Finish{rt: rt}
	root.inc()
	done := make(chan struct{})
	root.onZero = func() { close(done) }
	rt.submit(Task{finish: root, fn: f})
	<-done
}

// submit enqueues a task from a non-worker goroutine.
func (rt *Runtime) submit(t Task) {
	rt.inject.Push(&t)
	rt.Wake()
}

// submitFrame re-injects an already-heap-allocated frame (preserving
// its pooled flag, so the eventual runner recycles it).
func (rt *Runtime) submitFrame(t *Task) {
	rt.inject.Push(t)
	rt.Wake()
}

// Wake rouses parked workers; clients must call it after each push to an
// external steal-visible deque and after each change that can make a
// Ctx.HelpUntil condition true. The ticket bump lands before the sleeper
// check: a worker that is still spinning, or about to park, sees the new
// ticket and re-checks instead of parking.
func (rt *Runtime) Wake() {
	rt.wakeSeq.Add(1)
	if rt.sleepers.Load() > 0 {
		rt.idleMu.Lock()
		rt.idleCond.Broadcast()
		rt.idleMu.Unlock()
	}
}

// Frame-pool and idle-protocol tuning (DESIGN.md §11; README
// "Performance tuning").
const (
	// frameListCap bounds each worker's recycled-frame list (~48 B per
	// frame, so about 12 KiB per worker at the cap).
	frameListCap = 256
	// spinSweeps is how many extra work-finding sweeps — with a Gosched
	// between them — an idle worker makes before parking on idleCond.
	spinSweeps = 4
)

// newTask builds a spawn frame from the worker's pool. Owner-only (the
// calling goroutine must be w's).
//
//hclint:hotpath
func (w *worker) newTask(fn func(*Ctx), f *Finish) *Task {
	t, ok := w.frames.Get()
	if !ok {
		t = newFrame()
	}
	t.fn = fn
	t.finish = f
	return t
}

// newFrame is newTask's allocation slow path.
func newFrame() *Task { return &Task{pooled: true} }

// recycle clears a pooled frame and returns it to w's pool.
//
//hclint:hotpath
func (w *worker) recycle(t *Task) {
	t.fn = nil
	t.finish = nil
	t.ctx.w = nil
	t.ctx.finish = nil
	w.frames.Put(t)
}

// next finds runnable work for w: own deque, own place path, injected
// tasks, then steals.
func (w *worker) next() (*Task, bool) {
	if t, ok := w.deque.Pop(); ok {
		return t, true
	}
	if w.place != nil {
		if t, ok := w.placeNext(); ok {
			return t, true
		}
	}
	if t, ok := w.rt.inject.Pop(); ok {
		return t, true
	}
	return w.stealOnce()
}

// stealOnce makes one sweep over the other deques: in HPT mode ordered
// by place distance, otherwise from a random start. Worker deques and
// external sources are drained with StealBatch — one visit moves up to
// half the victim's tasks into w's own deque, so repeated sweeps are
// amortized (steal-half batching).
func (w *worker) stealOnce() (*Task, bool) {
	rt := w.rt
	rt.stealAttempts.Add(1)
	w.ring.Emit(trace.EvStealAttempt, 0, 0)
	if w.victims != nil {
		for _, v := range w.victims {
			if t, moved, ok := rt.workers[v].deque.StealBatch(w.deque); ok {
				w.stole(v, moved)
				return t, true
			}
		}
		// Foreign place queues (covers leaves with no attached worker)
		// and external steal sources.
		if rt.hpt != nil {
			for _, p := range rt.hpt.places {
				if t, ok := p.queue.Pop(); ok {
					w.stole(-1, 1)
					return t, true
				}
			}
		}
		for _, d := range rt.stealSet[len(rt.workers):] {
			if t, moved, ok := d.StealBatch(w.deque); ok {
				w.stole(-1, moved)
				return t, true
			}
		}
		w.stealMissed()
		return nil, false
	}
	n := len(rt.stealSet)
	if n <= 1 {
		w.stealMissed()
		return nil, false
	}
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := (start + i) % n
		d := rt.stealSet[v]
		if d == w.deque {
			continue
		}
		if t, moved, ok := d.StealBatch(w.deque); ok {
			if v >= len(rt.workers) {
				v = -1 // external steal source (e.g. the comm worker's deque)
			}
			w.stole(v, moved)
			return t, true
		}
	}
	w.stealMissed()
	return nil, false
}

// stole books a successful steal of moved tasks from victim (-1:
// external source). hc_steal_batch counts the tasks moved beyond the
// first — the extra transfer volume batching buys.
func (w *worker) stole(victim, moved int) {
	w.rt.steals.Add(1)
	if moved > 1 {
		w.rt.stealBatched.Add(int64(moved - 1))
	}
	w.ring.Emit(trace.EvStealSuccess, int64(victim), int64(moved))
}

// stealMissed books a sweep that found nothing.
func (w *worker) stealMissed() {
	w.rt.stealFails.Add(1)
	w.ring.Emit(trace.EvStealFail, 0, 0)
}

func (w *worker) run(t *Task) {
	w.rt.tasksRun.Add(1)
	w.ring.Emit(trace.EvTaskStart, 0, 0)
	t.ctx.w = w
	t.ctx.finish = t.finish
	t.fn(&t.ctx)
	w.ring.Emit(trace.EvTaskEnd, 0, 0)
	f := t.finish
	if t.pooled {
		// The frame (and the ctx inside it) dies here; f was read out
		// above so the scope can still be signalled.
		w.recycle(t)
	}
	if f != nil {
		f.dec()
	}
}

// spin is the middle rung of the idle protocol: a few extra sweeps with
// a Gosched between them before committing to a park. It returns true as
// soon as the caller should re-check its condition: the wake ticket moved
// past seq (work was published, or a waited-on condition may have become
// true), or a task was found and run.
func (w *worker) spin(seq uint64) bool {
	for i := 0; i < spinSweeps; i++ {
		runtime.Gosched()
		if w.rt.wakeSeq.Load() != seq {
			return true
		}
		if t, ok := w.next(); ok {
			w.run(t)
			return true
		}
	}
	return false
}

// helpUntil runs tasks until done() holds. It is the one help-first loop
// of the runtime: a pool worker's main loop is helpUntil(runtime shut
// down), a finish join is helpUntil(scope drained), and Ctx.HelpUntil
// hands any other condition to it. With no visible work it spins, then
// parks on idleCond.
//
// done() never runs with idleMu held. The wake ticket read before each
// check closes the missed-wakeup window instead: whatever makes done()
// true, or publishes work, calls Wake afterwards, so if the ticket has
// not moved by the time the waiter is registered as a sleeper, nothing
// it checked has changed, and any later Wake sees the sleeper and
// broadcasts.
func (w *worker) helpUntil(done func() bool) {
	rt := w.rt
	for {
		seq := rt.wakeSeq.Load()
		if done() {
			if w.detached {
				w.returnStolen()
			}
			return
		}
		if t, ok := w.next(); ok {
			w.run(t)
			continue
		}
		if w.spin(seq) {
			continue
		}
		rt.idleMu.Lock()
		rt.sleepers.Add(1)
		if rt.wakeSeq.Load() == seq {
			rt.parks.Inc()
			rt.idleCond.Wait()
		}
		rt.sleepers.Add(-1)
		rt.idleMu.Unlock()
	}
}

// returnStolen hands the tasks a detached context stole in a batch and
// has not run back to the pool: its deque is invisible to thieves, so
// they would otherwise wait, and hold their finish scope open, until the
// context next helps.
func (w *worker) returnStolen() {
	for {
		t, ok := w.deque.Pop()
		if !ok {
			return
		}
		w.rt.submitFrame(t)
	}
}

func (w *worker) loop() {
	defer w.rt.wg.Done()
	w.helpUntil(w.rt.done.Load)
}

// Async spawns fn as a child task in the current finish scope. The child
// goes to the bottom of the current worker's deque (newest-first for the
// owner, oldest-first for thieves). The frame comes from the worker's
// pool, so the steady-state spawn allocates nothing.
//
//hclint:hotpath
func (c *Ctx) Async(fn func(*Ctx)) {
	f := c.finish
	if f != nil {
		f.inc()
	}
	w := c.w
	w.rt.tasksSpawned.Add(1)
	w.ring.Emit(trace.EvTaskSpawn, 0, 0)
	t := w.newTask(fn, f)
	if w.detached {
		// Detached contexts own no steal-visible deque; inject instead.
		w.rt.submitFrame(t)
		return
	}
	w.deque.Push(t)
	w.rt.Wake()
}

// AsyncBlocking spawns fn on a dedicated goroutine (not a pool worker)
// under the current finish scope, with a detached context. Use it for
// tasks that legitimately block — e.g. tasks registered on phasers, which
// suspend at every next. In Habanero-C such tasks suspend on the worker;
// Go's goroutines give the same semantics without pinning a worker.
func (c *Ctx) AsyncBlocking(fn func(*Ctx)) {
	f := c.finish
	if f != nil {
		f.inc()
	}
	rt := c.w.rt
	rt.tasksSpawned.Add(1)
	c.w.ring.Emit(trace.EvTaskSpawn, 0, 0)
	go func() {
		dw := rt.getHelper()
		ctx := Ctx{w: dw, finish: f}
		fn(&ctx)
		if f != nil {
			f.dec()
		}
		rt.putHelper(dw)
	}()
}

// AsyncAt spawns fn preferring execution on worker wid. The current
// implementation is a single-level Hierarchical Place Tree (the paper's
// default configuration): the hint only selects the submission path;
// stealing may still move the task.
func (c *Ctx) AsyncAt(wid int, fn func(*Ctx)) {
	f := c.finish
	if f != nil {
		f.inc()
	}
	c.w.rt.tasksSpawned.Add(1)
	c.w.ring.Emit(trace.EvTaskSpawn, 0, 0)
	t := c.w.newTask(fn, f)
	if !c.w.detached && (wid == c.w.id || wid < 0 || wid >= len(c.w.rt.workers)) {
		c.w.deque.Push(t)
		c.w.rt.Wake()
		return
	}
	// Cross-worker pushes would violate the deque owner discipline, so
	// route through the shared inject stack.
	c.w.rt.submitFrame(t)
}

// ForAsync spawns body over the iteration space [0,n) in chunks of the
// given size, one async task per chunk, within the current finish scope
// (Habanero-C's forasync with loop chunking, as in the paper's Fig. 2).
// chunk <= 0 picks ~4 chunks per worker.
func (c *Ctx) ForAsync(n, chunk int, body func(ctx *Ctx, i int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = n / (c.NumWorkers() * 4)
		if chunk < 1 {
			chunk = 1
		}
	}
	for lo := 0; lo < n; lo += chunk {
		lo := lo
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		c.Async(func(ctx *Ctx) {
			for i := lo; i < hi; i++ {
				body(ctx, i)
			}
		})
	}
}

// Finish runs body and then blocks until every task spawned transitively
// within it has terminated. While blocked, the worker executes other
// available tasks (help-first join).
func (c *Ctx) Finish(body func(*Ctx)) {
	f := &Finish{rt: c.w.rt}
	// The scope's inner context lives inside the Finish itself, so
	// opening a scope costs one allocation (the Finish), not two.
	f.inner.w = c.w
	f.inner.finish = f
	body(&f.inner)
	c.w.helpUntil(f.drained)
}

// HelpUntil blocks the task until done() holds, keeping its worker
// productive meanwhile: the worker runs other tasks (its own deque, then
// steals) and parks only when the runtime has no visible work. It is the
// loop a finish join uses, with a caller-supplied condition. Whatever
// makes done() true must call Runtime.Wake afterwards, or a parked waiter
// may miss it; done must be cheap and must not block or take locks that
// a task could hold.
func (c *Ctx) HelpUntil(done func() bool) { c.w.helpUntil(done) }

// helperIDs hands out worker ids above the real pool for detached
// execution contexts.
var helperIDs atomic.Int64

// getHelper pops a recycled detached context or builds one. Helper ids
// are assigned once, at construction, and stay with the context across
// reuses.
func (rt *Runtime) getHelper() *worker {
	hw, ok := rt.helpers.Pop()
	if !ok {
		hw = &worker{
			id:       int(helperIDs.Add(1)) + len(rt.workers),
			rt:       rt,
			deque:    deque.NewDeque[Task](),
			rng:      rand.New(rand.NewSource(helperIDs.Load()*40503 + 7)),
			frames:   deque.NewFreeList[Task](frameListCap),
			detached: true,
		}
	}
	return hw
}

// putHelper recycles a detached context.
func (rt *Runtime) putHelper(hw *worker) { rt.helpers.Push(hw) }

// Finish tracks the live-task count of one finish scope.
type Finish struct {
	rt     *Runtime
	count  atomic.Int64
	onZero func()
	// inner is the scope's execution context (Ctx.Finish hands body a
	// pointer into the Finish instead of allocating a second object).
	inner Ctx
}

func (f *Finish) inc() { f.count.Add(1) }

// drained reports whether every task of the scope has terminated.
func (f *Finish) drained() bool { return f.count.Load() == 0 }

func (f *Finish) dec() {
	if f.count.Add(-1) == 0 {
		if f.onZero != nil {
			f.onZero()
		}
		// Joiners may be parked on the idle condition; rouse them so they
		// re-check the count.
		f.rt.Wake()
	}
}
