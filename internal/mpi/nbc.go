package mpi

import (
	"encoding/binary"
	"errors"
)

// Non-blocking collectives. The paper (2013) predates MPI-3's official
// non-blocking collectives and says HCMPI "will add support ... once they
// become part of the MPI standard"; they since have (MPI_Ibarrier,
// MPI_Ibcast, MPI_Iallreduce, ...), so this substrate provides them as
// the paper's named future work. Each returns a Request that completes
// when the collective finishes; the algorithm runs on a helper goroutine
// over the same reserved tag space as the blocking collectives, so
// blocking and non-blocking collectives can be freely mixed as long as
// every rank issues them in the same order.

// Ibarrier starts a non-blocking barrier; its completion Status carries
// the error Barrier would return.
func (c *Comm) Ibarrier() *Request {
	seq := c.nextCollSeq()
	req := c.newRequest(reqSend)
	go func() {
		req.complete(Status{Err: c.barrierSeq(seq)})
	}()
	return req
}

// barrierSeq is the dissemination barrier body for a pre-taken sequence
// number. Each round's token carries the failure this rank knows of, as
// failed rank + 1 (0: none). A rank whose receive from a peer fails with
// ErrRankFailed, or whose incoming token names a failed rank, forwards
// it in every later token. The news therefore reaches every survivor in
// this same barrier, along the paths the dead rank's own arrival would
// have taken. A survivor that learns of a failure records it in its
// failure detector, so its next operation against the dead rank fails
// fast, and returns ErrRankFailed.
func (c *Comm) barrierSeq(seq int) error {
	p := c.size
	if p == 1 {
		return nil
	}
	me := c.rank
	failed := -1
	var err error
	var tok [8]byte
	in, out := tok[:4], tok[4:]
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		to := (me + k) % p
		from := (me - k + p) % p
		r := c.irecv(in, from, collTag(seq, round), false)
		binary.LittleEndian.PutUint32(out, uint32(failed+1))
		c.isendRetry(out, to, collTag(seq, round)).detach()
		st := r.WaitStatus()
		r.Free()
		switch {
		case errors.Is(st.Err, ErrRankFailed):
			if failed < 0 {
				failed = from
			}
		case st.Err != nil:
			if err == nil {
				err = st.Err
			}
		default:
			if f := int(binary.LittleEndian.Uint32(in)) - 1; f >= 0 && failed < 0 {
				failed = f
			}
		}
	}
	if failed >= 0 {
		c.recordFailure(failed)
		return ErrRankFailed
	}
	return err
}

// Ibcast starts a non-blocking broadcast of root's buf into every rank's
// buf. The buffer must not be touched until the request completes.
func (c *Comm) Ibcast(buf []byte, root int) *Request {
	seq := c.nextCollSeq()
	req := c.newRequest(reqSend)
	go func() {
		c.bcastSeq(buf, root, seq)
		req.complete(Status{Bytes: len(buf)})
	}()
	return req
}

// bcastSeq is Bcast's binomial tree for a pre-taken sequence number.
func (c *Comm) bcastSeq(buf []byte, root, seq int) {
	p := c.size
	if p == 1 {
		return
	}
	vrank := (c.rank - root + p) % p
	if vrank != 0 {
		parent := (vrank&(vrank-1) + root) % p
		rq := c.irecv(buf, parent, collTag(seq, 0), false)
		rq.WaitStatus()
		rq.Free()
	}
	stop := p
	if vrank != 0 {
		stop = vrank & -vrank
	}
	for mask := 1; mask < stop && vrank+mask < p; mask <<= 1 {
		child := (vrank + mask + root) % p
		c.isendRetry(buf, child, collTag(seq, 0)).detach()
	}
}

// Iallreduce starts a non-blocking allreduce; the result is delivered in
// the completion status payload (Request.Payload).
func (c *Comm) Iallreduce(data []byte, dt Datatype, op Op) *Request {
	seqR := c.nextCollSeq()
	seqB := c.nextCollSeq()
	req := c.newRequest(reqRecv)
	req.takeAll = true
	own := make([]byte, len(data))
	copy(own, data)
	go func() {
		res := c.reduceSeq(own, dt, op, 0, seqR)
		if res == nil {
			res = make([]byte, len(own))
		}
		c.bcastSeq(res, 0, seqB)
		req.payload = res
		req.complete(Status{Bytes: len(res)})
	}()
	return req
}

// reduceSeq is Reduce's binomial tree for a pre-taken sequence number.
func (c *Comm) reduceSeq(data []byte, dt Datatype, op Op, root, seq int) []byte {
	p := c.size
	acc := make([]byte, len(data))
	copy(acc, data)
	if p == 1 {
		return acc
	}
	vrank := (c.rank - root + p) % p
	tmp := make([]byte, len(data))
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % p
			c.isendRetry(acc, parent, collTag(seq, 1)).detach()
			return nil
		}
		if vrank+mask < p {
			child := (vrank + mask + root) % p
			rq := c.irecv(tmp, child, collTag(seq, 1), false)
			rq.WaitStatus()
			rq.Free()
			op.Combine(dt, acc, tmp)
		}
	}
	return acc
}
