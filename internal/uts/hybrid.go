package uts

import (
	"math/rand"
	"sync"
	"time"

	"hcmpi/internal/distsched"
	"hcmpi/internal/mpi"
)

// The MPI+OpenMP hybrid implementation the paper builds for Fig. 22 (no
// public reference exists). One MPI rank per node runs an OpenMP-style
// thread team over a shared work pool. In the improved variant threads
// that run out of work wait at a cancellable barrier: new local work
// cancels the wait, and a global steal request goes out as soon as the
// first thread idles, overlapping communication with the remaining
// computation. The naive staged variant (compute region, then MPI phase)
// is also provided; the paper reports it "suffered terribly from thread
// idleness".

// HybridMode selects the hybrid structure.
type HybridMode int

const (
	// HybridImproved overlaps global steals with computation via a
	// cancellable barrier.
	HybridImproved HybridMode = iota
	// HybridStaged is the naive fork-join structure: parallel region
	// until the pool drains, then a sequential MPI phase.
	HybridStaged
)

// RunHybrid executes UTS on one rank with an OpenMP-style team of
// `threads` threads. The world should use one rank per node.
func RunHybrid(c *mpi.Comm, cfg Config, p Params, threads int, mode HybridMode) Counters {
	h := &hybridRun{
		comm: c, cfg: cfg, p: p.normalized(), threads: threads, mode: mode,
		rng: rand.New(rand.NewSource(int64(c.Rank())*104729 + 71)),
	}
	h.poolCond = sync.NewCond(&h.poolMu)
	h.bar = distsched.NewBarrier(c.Rank(), c.Size())
	if c.Rank() == 0 {
		h.pool = append(h.pool, []Node{cfg.Root()})
	}
	h.run()
	return h.ctr
}

type hybridRun struct {
	comm    *mpi.Comm
	cfg     Config
	p       Params
	threads int
	mode    HybridMode
	rng     *rand.Rand

	poolMu   sync.Mutex
	poolCond *sync.Cond
	pool     [][]Node
	idle     int
	done     bool

	commMu      sync.Mutex // funnels MPI calls through one thread at a time
	outstanding bool
	pendingResp *mpi.Request
	// Safra termination detector (EWD998), shared with distsched.
	bar *distsched.Barrier

	ctrMu sync.Mutex
	ctr   Counters
}

func (h *hybridRun) run() {
	var wg sync.WaitGroup
	for t := 0; t < h.threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h.threadLoop(tid)
		}(t)
	}
	wg.Wait()
	// Post-termination: reject stragglers.
	h.commMu.Lock()
	h.drainRejects()
	h.commMu.Unlock()
}

func (h *hybridRun) threadLoop(tid int) {
	w := &hybridThread{run: h, tid: tid, rng: rand.New(rand.NewSource(int64(h.comm.Rank()*131+tid)*2699 + 5))}
	w.loop()
	h.ctrMu.Lock()
	h.ctr.Add(w.ctr)
	h.ctrMu.Unlock()
}

type hybridThread struct {
	run   *hybridRun
	tid   int
	rng   *rand.Rand
	stack []Node
	ctr   Counters
}

func (w *hybridThread) loop() {
	h := w.run
	for {
		h.poolMu.Lock()
		if h.done {
			h.poolMu.Unlock()
			return
		}
		if len(w.stack) == 0 {
			if len(h.pool) > 0 {
				chunk := h.pool[len(h.pool)-1]
				h.pool = h.pool[:len(h.pool)-1]
				h.poolMu.Unlock()
				w.stack = append(w.stack, chunk...)
			} else {
				// Idle thread: in the improved mode, kick off a global
				// steal immediately (the paper's overlap), then wait
				// cancellably.
				h.poolMu.Unlock()
				w.idlePhase()
				continue
			}
		} else {
			h.poolMu.Unlock()
		}

		for len(w.stack) > 0 {
			w.explore()
			w.offload()
			if h.mode == HybridImproved {
				// Improved overlap: busy threads lend MPI progress every
				// polling interval. The staged mode services MPI only
				// between "parallel regions" (team fully idle) — the
				// structural weakness the paper calls out.
				w.pollComm(false)
			}
			if h.isDone() {
				return
			}
		}
	}
}

func (w *hybridThread) explore() {
	w.stack = expandSlice(w.run.cfg, w.run.p.PollInterval, w.stack, &w.ctr)
}

// offload shares surplus work through the pool, waking idle teammates
// (the barrier cancellation of the improved scheme).
func (w *hybridThread) offload() {
	h := w.run
	c, rest, ok := splitBottom(w.stack, h.p.Chunk)
	if !ok {
		return
	}
	t0 := time.Now()
	w.stack = rest
	h.poolMu.Lock()
	h.pool = append(h.pool, c)
	h.poolCond.Broadcast()
	h.poolMu.Unlock()
	w.ctr.Overhead += time.Since(t0)
}

// idlePhase: the thread has nothing; overlap a global steal with whatever
// computation remains on other threads, then wait for pool changes.
func (w *hybridThread) idlePhase() {
	h := w.run
	t0 := time.Now()
	defer func() { w.ctr.Search += time.Since(t0) }()

	if h.mode == HybridImproved {
		w.pollComm(true)
	}

	h.poolMu.Lock()
	h.idle++
	if h.idle == h.threads && len(h.pool) == 0 {
		// Whole team idle: this thread becomes the communicator until
		// work or termination arrives (the staged mode reaches here too —
		// its "MPI phase" between parallel regions).
		h.poolMu.Unlock()
		w.fullIdleComm()
		h.poolMu.Lock()
	} else if len(h.pool) == 0 && !h.done {
		// Cancellable wait: woken by offload broadcasts, work arrival, or
		// termination. Bounded so MPI keeps being polled.
		waitWithTimeout(h.poolCond, &h.poolMu, 50*time.Microsecond) //hclint:allow poolCond is NewCond(&poolMu); Wait releases poolMu, association is through the parameters
	}
	h.idle--
	h.poolMu.Unlock()
}

// fullIdleComm runs MPI progress while the team is fully idle: issue
// steals, service requests, run the termination ring.
func (w *hybridThread) fullIdleComm() {
	w.pollComm(true)
	w.tryForwardToken()
	time.Sleep(2 * time.Microsecond)
}

// pollComm gives MPI progress to at most one thread at a time: service
// steal requests (victim side), collect steal responses, receive tokens
// and done. When wantSteal is set and no steal is outstanding, a new
// request goes out.
func (w *hybridThread) pollComm(wantSteal bool) {
	h := w.run
	if !h.commMu.TryLock() {
		return
	}
	defer h.commMu.Unlock()
	t0 := time.Now()
	defer func() { w.ctr.Overhead += time.Since(t0) }()

	// Victim side: answer steal requests from the shared pool.
	for {
		st, ok := h.comm.Iprobe(mpi.AnySource, tagStealReq)
		if !ok {
			break
		}
		var b [1]byte
		h.comm.Recv(b[:0], st.Source, tagStealReq)
		h.answerSteal(st.Source)
	}
	// Thief side: collect an outstanding response.
	if h.pendingResp != nil {
		if st, ok := h.pendingResp.Test(); ok {
			if st.Bytes > 0 {
				// Safra receipt rule: blacken before the work becomes
				// executable.
				h.bar.WorkReceived()
				nodes := DecodeNodes(h.pendingResp.Payload())
				h.poolMu.Lock()
				h.pool = append(h.pool, nodes)
				h.poolCond.Broadcast()
				h.poolMu.Unlock()
				w.ctr.Steals++
			} else {
				w.ctr.FailedSteals++
			}
			h.pendingResp = nil
			h.outstanding = false
		}
	}
	// New steal request.
	if wantSteal && !h.outstanding && h.comm.Size() > 1 {
		victim := pickVictim(h.rng, h.comm.Rank(), h.comm.Size())
		h.comm.SendDetached(nil, victim, tagStealReq)
		h.pendingResp = h.comm.IrecvAdopt(victim, tagStealResp)
		h.outstanding = true
	}
	// Token and done.
	if st, ok := h.comm.Iprobe(mpi.AnySource, tagToken); ok {
		buf := make([]byte, 9)
		h.comm.Recv(buf, st.Source, tagToken)
		h.bar.TokenArrived(distsched.DecodeToken(buf))
	}
	if _, ok := h.comm.Iprobe(mpi.AnySource, tagDone); ok {
		var b [1]byte
		h.comm.Recv(b[:0], mpi.AnySource, tagDone)
		h.setDone()
	}
}

// answerSteal (commMu held): hand a pool chunk to the thief or reject.
func (h *hybridRun) answerSteal(thief int) {
	h.poolMu.Lock()
	var chunk []Node
	if len(h.pool) > 1 { // keep one chunk for the team
		chunk = h.pool[0]
		h.pool = h.pool[1:]
	}
	h.poolMu.Unlock()
	if chunk != nil {
		// Safra: count the work-carrying send before it leaves.
		h.bar.WorkSent()
		h.comm.SendDetached(EncodeNodes(chunk), thief, tagStealResp)
		h.ctrMu.Lock()
		h.ctr.Released++
		h.ctrMu.Unlock()
		return
	}
	h.comm.SendDetached(nil, thief, tagStealResp)
}

// tryForwardToken: Dijkstra ring at rank granularity; requires the whole
// team idle with an empty pool and no outstanding steal.
func (w *hybridThread) tryForwardToken() {
	h := w.run
	if !h.commMu.TryLock() {
		return
	}
	defer h.commMu.Unlock()
	h.poolMu.Lock()
	quiescent := h.idle == h.threads && len(h.pool) == 0 && !h.done
	h.poolMu.Unlock()
	// An outstanding steal request does not block the token: the sender
	// of any in-flight work is black, so a transfer racing the token
	// forces another round rather than a premature termination.
	act, tok, next := h.bar.Advance(quiescent)
	switch act {
	case distsched.ActionForward:
		h.comm.SendDetached(tok, next, tagToken)
	case distsched.ActionTerminate:
		for r := 0; r < h.comm.Size(); r++ {
			if r != h.comm.Rank() {
				h.comm.SendDetached(nil, r, tagDone)
			}
		}
		h.setDone()
	}
}

func (h *hybridRun) setDone() {
	h.poolMu.Lock()
	h.done = true
	h.poolCond.Broadcast()
	h.poolMu.Unlock()
}

func (h *hybridRun) isDone() bool {
	h.poolMu.Lock()
	defer h.poolMu.Unlock()
	return h.done
}

func (h *hybridRun) drainRejects() {
	for {
		st, ok := h.comm.Iprobe(mpi.AnySource, tagStealReq)
		if !ok {
			return
		}
		var b [1]byte
		h.comm.Recv(b[:0], st.Source, tagStealReq)
		h.comm.SendDetached(nil, st.Source, tagStealResp)
	}
}

// waitWithTimeout waits on cond with a deadline; mu must be held.
func waitWithTimeout(cond *sync.Cond, mu *sync.Mutex, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	cond.Wait()
	timer.Stop()
}
