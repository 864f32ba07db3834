package hcmpi

import (
	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
)

// One-sided communication and non-blocking collectives — the paper's
// named future work ("support for more MPI-like APIs in the HCMPI
// programming model, including one-sided communication operations";
// "We will add support for non-blocking collectives to HCMPI once they
// become part of the MPI standard"). As with every HCMPI operation, the
// calls here create communication tasks executed by the communication
// worker; requests are DDFs and compose with finish/await/phasers.

// Win is an HCMPI window handle.
type Win struct {
	n   *Node
	win *mpi.Win
}

// WinCreate collectively creates an RMA window over buf
// (HCMPI_Win_create). Call from every rank in the same order.
func (n *Node) WinCreate(ctx *hc.Ctx, buf []byte) *Win {
	// Window creation includes a barrier; run it on the communication
	// worker like any collective.
	var win *mpi.Win
	t := n.allocTask()
	t.kind = kindCustom
	t.custom = func() *Status {
		win = n.comm.WinCreate(buf)
		return &Status{}
	}
	n.collective(ctx, t)
	return &Win{n: n, win: win}
}

// Buf returns the locally exposed window buffer.
func (w *Win) Buf() []byte { return w.win.Buf() }

// Put starts a one-sided write into target's window (HCMPI_Put). Like
// MPI_Put it has no request: the next Fence completes it, reporting any
// failure, and data must stay untouched until then.
func (w *Win) Put(data []byte, target, offset int) {
	w.write(func() { w.win.Put(data, target, offset) })
}

// Get starts a one-sided read of n bytes from target's window
// (HCMPI_Get); the data arrives in the completion status payload.
func (w *Win) Get(n, target, offset int) *Request {
	t := w.n.allocTask()
	t.kind = kindGet
	t.get = func() *mpi.Request { return w.win.Get(n, target, offset) }
	return w.n.post(t)
}

// Accumulate starts a one-sided reduction into target's window
// (HCMPI_Accumulate); like Put it has no request.
func (w *Win) Accumulate(data []byte, dt mpi.Datatype, op mpi.Op, target, offset int) {
	w.write(func() { w.win.Accumulate(data, dt, op, target, offset) })
}

// write posts a request-less comm task that issues the window write.
func (w *Win) write(issue func()) {
	t := w.n.allocTask()
	t.kind = kindWinWrite
	t.write = issue
	w.n.prescribe(t)
}

// Fence closes the access epoch (HCMPI_Win_fence): a collective through
// the communication worker that blocks the calling computation task. It
// returns the first error among this rank's epoch writes, else the
// closing barrier's (mpi.ErrRankFailed when a target or a rank died).
func (w *Win) Fence(ctx *hc.Ctx) error {
	t := w.n.allocTask()
	t.kind = kindCustom
	t.custom = func() *Status { return &Status{Err: w.win.Fence()} }
	return w.n.collective(ctx, t).Err
}

// --- non-blocking collectives ---

// IBarrier starts a non-blocking barrier (HCMPI_Ibarrier); synchronize
// with Wait / await on the request.
func (n *Node) IBarrier() *Request {
	t := n.allocTask()
	t.kind = kindBarrier
	return n.post(t)
}

// IBcast starts a non-blocking broadcast of root's buf (HCMPI_Ibcast).
// Do not touch buf until the request completes.
func (n *Node) IBcast(buf []byte, root int) *Request {
	t := n.allocTask()
	t.kind = kindBcast
	t.buf, t.peer = buf, root
	return n.post(t)
}

// IAllreduce starts a non-blocking allreduce (HCMPI_Iallreduce); the
// globally reduced value is the completion status payload.
func (n *Node) IAllreduce(data []byte, dt mpi.Datatype, op mpi.Op) *Request {
	t := n.allocTask()
	t.kind = kindAllreduce
	t.buf, t.dt, t.op = data, dt, op
	return n.post(t)
}
