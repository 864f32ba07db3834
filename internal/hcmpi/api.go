package hcmpi

import (
	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
)

// Point-to-point and collective API (paper Table I). Every call here runs
// in a computation task; the operation itself is carried out by the
// communication worker. Blocking variants are a non-blocking call plus
// Wait. The paper defines HCMPI_Wait as finish { async await(req) }; Wait
// here is equivalent but builds no no-op task, finish scope or await
// registration. The waiting task helps on the request itself
// (hc.Ctx.HelpUntil): its worker runs other tasks, exactly as it would
// while blocked at the end of that finish, until the communication worker
// puts the status into the request's DDF and wakes it.

// Isend starts an asynchronous send (HCMPI_Isend). The buffer is handed
// off immediately and may be reused by the caller. A negative tag goes
// out on the reserved path, for runtime protocols that need the request.
func (n *Node) Isend(buf []byte, dest, tag int) *Request {
	t := n.allocTask()
	t.kind = kindIsend
	t.buf, t.peer, t.tag = buf, dest, tag
	return n.post(t)
}

// Irecv starts an asynchronous receive into buf (HCMPI_Irecv).
func (n *Node) Irecv(buf []byte, src, tag int) *Request {
	t := n.allocTask()
	t.kind = kindIrecv
	t.buf, t.peer, t.tag = buf, src, tag
	return n.post(t)
}

// IrecvBytes starts an asynchronous receive of a variable-size message;
// the completion Status carries the payload.
func (n *Node) IrecvBytes(src, tag int) *Request {
	t := n.allocTask()
	t.kind = kindIrecv
	t.peer, t.tag = src, tag
	t.takeAll = true
	return n.post(t)
}

// Wait blocks the computation task until the request completes
// (HCMPI_Wait) and returns its status. It is equivalent to the paper's
// finish { async await(req) } without the no-op task: the worker
// executes other tasks while logically blocked, and returns to this task
// once the request's DDF is full.
func (n *Node) Wait(ctx *hc.Ctx, r *Request) *Status {
	ctx.HelpUntil(r.ddf.Full)
	return r.status()
}

// WaitAll blocks until every request completes (HCMPI_Waitall, the AND
// await list) and returns their statuses in order.
func (n *Node) WaitAll(ctx *hc.Ctx, rs ...*Request) []*Status {
	sts := make([]*Status, len(rs))
	for i, r := range rs {
		sts[i] = n.Wait(ctx, r)
	}
	return sts
}

// WaitAny blocks until at least one request completes (HCMPI_Waitany, the
// OR await list) and returns the index of a completed request and its
// status; -1 for an empty list.
func (n *Node) WaitAny(ctx *hc.Ctx, rs ...*Request) (int, *Status) {
	if len(rs) == 0 {
		return -1, nil
	}
	var i int
	var st *Status
	ctx.HelpUntil(func() bool {
		var ok bool
		i, st, ok = n.TestAny(rs...)
		return ok
	})
	return i, st
}

// Send is the blocking send (HCMPI_Send): a non-blocking send plus Wait.
func (n *Node) Send(ctx *hc.Ctx, buf []byte, dest, tag int) *Status {
	return n.Wait(ctx, n.Isend(buf, dest, tag))
}

// Recv is the blocking receive (HCMPI_Recv), per the paper's Fig. 3.
func (n *Node) Recv(ctx *hc.Ctx, buf []byte, src, tag int) *Status {
	return n.Wait(ctx, n.Irecv(buf, src, tag))
}

// RecvBytes is the blocking variable-size receive.
func (n *Node) RecvBytes(ctx *hc.Ctx, src, tag int) ([]byte, *Status) {
	st := n.Wait(ctx, n.IrecvBytes(src, tag))
	return st.Payload, st
}

// RequestCreate builds a fresh, unbound request handle
// (HCMPI_REQUEST_CREATE). Since HCMPI requests are DDFs, an unbound
// request is a user-managed synchronization cell: complete it with
// CompleteRequest and await it like any communication.
func (n *Node) RequestCreate() *Request { return &Request{} }

// CompleteRequest resolves a user-created request with st, releasing any
// tasks awaiting it or blocked in Wait on it. Completing a request twice
// is an error.
func (n *Node) CompleteRequest(ctx *hc.Ctx, r *Request, st *Status) error {
	if err := r.ddf.TryPut(ctx, st); err != nil {
		return err
	}
	n.rt.Wake()
	return nil
}

// Cancel asks the communication worker to cancel an outstanding
// operation (HCMPI_Cancel). Only posted-but-unmatched receives can be
// cancelled; the call blocks the computation task until the attempt has
// been made and reports whether it took effect. A cancelled operation's
// request completes with a Cancelled status, so awaiting tasks still run.
func (n *Node) Cancel(ctx *hc.Ctx, r *Request) bool {
	t := n.allocTask()
	t.kind = kindCancel
	t.cancelTarget = r
	return n.Wait(ctx, n.post(t)).Cancelled
}

// Test is HCMPI_Test.
func (n *Node) Test(r *Request) (*Status, bool) { return r.Test() }

// TestAll is HCMPI_Testall.
func (n *Node) TestAll(rs ...*Request) ([]*Status, bool) {
	sts := make([]*Status, len(rs))
	for i, r := range rs {
		st, ok := r.Test()
		if !ok {
			return nil, false
		}
		sts[i] = st
	}
	return sts, true
}

// TestAny is HCMPI_Testany.
func (n *Node) TestAny(rs ...*Request) (int, *Status, bool) {
	for i, r := range rs {
		if st, ok := r.Test(); ok {
			return i, st, true
		}
	}
	return -1, nil, false
}

// Listen installs a persistent handler for a reserved (negative) tag; the
// communication worker invokes fn for every arriving message. This is the
// listener-task facility the runtime uses for DDDF homes and that the UTS
// port uses to answer steal requests while computation workers are busy.
func (n *Node) Listen(tag int, fn func(src int, payload []byte)) {
	t := n.allocTask()
	t.kind = kindListen
	t.tag = tag
	t.listenFn = fn
	n.post(t).ddf.Await() // installation is synchronous and cheap
}

// SendDetached is Isend without a request: nothing awaits the outcome,
// and a failure is only counted (comm_failures). A negative tag takes the
// reserved path for runtime protocols.
func (n *Node) SendDetached(buf []byte, dest, tag int) {
	t := n.allocTask()
	t.kind = kindIsend
	t.buf, t.peer, t.tag = buf, dest, tag
	n.prescribe(t)
}

// --- Collectives (blocking, per paper §II-C) ---

// collective enqueues a collective comm task and blocks the computation
// task (Wait) until the communication worker has completed it; a nil ctx
// blocks the calling goroutine instead.
func (n *Node) collective(ctx *hc.Ctx, t *commTask) *Status {
	req := n.post(t)
	if ctx != nil {
		return n.Wait(ctx, req)
	}
	return req.ddf.Await().(*Status)
}

// Barrier blocks until every rank's computation reaches it
// (HCMPI_Barrier). It returns the barrier's Status.Err: mpi.ErrRankFailed
// when a rank died before entering (every survivor of that barrier learns
// of it, and its later operations against the dead rank fail fast), or
// mpi.ErrTimeout past Config.OpTimeout.
func (n *Node) Barrier(ctx *hc.Ctx) error {
	t := n.allocTask()
	t.kind = kindBarrier
	return n.collective(ctx, t).Err
}

// Bcast broadcasts root's buf into every rank's buf (HCMPI_Bcast).
func (n *Node) Bcast(ctx *hc.Ctx, buf []byte, root int) {
	t := n.allocTask()
	t.kind = kindBcast
	t.buf, t.peer = buf, root
	n.collective(ctx, t)
}

// Reduce folds data with op at root (HCMPI_Reduce); non-roots get nil.
func (n *Node) Reduce(ctx *hc.Ctx, data []byte, dt mpi.Datatype, op mpi.Op, root int) []byte {
	t := n.allocTask()
	t.kind = kindReduce
	t.buf, t.dt, t.op, t.peer = data, dt, op, root
	st := n.collective(ctx, t)
	if n.Rank() != root {
		return nil
	}
	return st.Payload
}

// Allreduce folds data with op on every rank (HCMPI_Allreduce).
func (n *Node) Allreduce(ctx *hc.Ctx, data []byte, dt mpi.Datatype, op mpi.Op) []byte {
	t := n.allocTask()
	t.kind = kindAllreduce
	t.buf, t.dt, t.op = data, dt, op
	return n.collective(ctx, t).Payload
}

// Scan computes the inclusive prefix fold (HCMPI_Scan).
func (n *Node) Scan(ctx *hc.Ctx, data []byte, dt mpi.Datatype, op mpi.Op) []byte {
	t := n.allocTask()
	t.kind = kindScan
	t.buf, t.dt, t.op = data, dt, op
	return n.collective(ctx, t).Payload
}

// Gather collects each rank's data at root (HCMPI_Gather).
func (n *Node) Gather(ctx *hc.Ctx, data []byte, root int) [][]byte {
	t := n.allocTask()
	t.kind = kindGather
	t.buf, t.peer = data, root
	return n.collective(ctx, t).Parts
}

// Allgather collects each rank's data everywhere (HCMPI_Allgather).
func (n *Node) Allgather(ctx *hc.Ctx, data []byte) [][]byte {
	t := n.allocTask()
	t.kind = kindAllgather
	t.buf = data
	return n.collective(ctx, t).Parts
}

// Scatter distributes root's parts (HCMPI_Scatter).
func (n *Node) Scatter(ctx *hc.Ctx, parts [][]byte, root int) []byte {
	t := n.allocTask()
	t.kind = kindScatter
	t.parts, t.peer = parts, root
	return n.collective(ctx, t).Payload
}
