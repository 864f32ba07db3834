package mpi

// Collective operations. All collectives are blocking (the paper's HCMPI
// supports exactly the blocking set and notes non-blocking collectives as
// future work, matching the MPI standard of the day). Every rank must call
// each collective in the same order; a per-rank sequence counter keys the
// reserved tag space so that successive collectives never cross-match.

const collSlots = 64

// nextCollSeq atomically takes this rank's next collective sequence
// number.
func (c *Comm) nextCollSeq() int {
	c.mu.Lock()
	s := c.collSeq
	c.collSeq++
	c.mu.Unlock()
	return s
}

func collTag(seq, slot int) int {
	return maxUserTag + seq*collSlots + slot
}

// Barrier blocks until every rank has entered it (dissemination
// algorithm, ceil(log2 p) rounds). It returns ErrRankFailed on every
// survivor when a rank died before entering; afterwards each survivor's
// operations against the dead rank fail fast.
func (c *Comm) Barrier() error {
	return c.barrierSeq(c.nextCollSeq())
}

// Bcast broadcasts root's buf to every rank's buf (binomial tree: the
// parent is vrank with its lowest set bit cleared; children are
// vrank+mask for masks below the lowest set bit). All ranks must pass
// buffers of the same length.
func (c *Comm) Bcast(buf []byte, root int) {
	c.bcastSeq(buf, root, c.nextCollSeq())
}

// Reduce folds every rank's data with op; the result lands at root (other
// ranks get nil). Binomial-tree reduction.
func (c *Comm) Reduce(data []byte, dt Datatype, op Op, root int) []byte {
	return c.reduceSeq(data, dt, op, root, c.nextCollSeq())
}

// Allreduce folds every rank's data and returns the result on every rank
// (reduce to rank 0, then broadcast).
func (c *Comm) Allreduce(data []byte, dt Datatype, op Op) []byte {
	res := c.Reduce(data, dt, op, 0)
	if res == nil {
		res = make([]byte, len(data))
	}
	c.Bcast(res, 0)
	return res
}

// Scan computes the inclusive prefix reduction: rank i receives the fold
// of ranks 0..i.
func (c *Comm) Scan(data []byte, dt Datatype, op Op) []byte {
	seq := c.nextCollSeq()
	acc := make([]byte, len(data))
	copy(acc, data)
	if c.rank > 0 {
		prev := make([]byte, len(data))
		rq := c.irecv(prev, c.rank-1, collTag(seq, 2), false)
		rq.WaitStatus()
		rq.Free()
		// acc = prev ⊕ own (fold order matters for non-commutative ops).
		op.Combine(dt, prev, acc)
		copy(acc, prev)
	}
	if c.rank < c.size-1 {
		c.isendRetry(acc, c.rank+1, collTag(seq, 2)).detach()
	}
	return acc
}

// Scatter distributes parts[i] from root to rank i; every rank returns its
// own part. Only root's parts argument is consulted.
func (c *Comm) Scatter(parts [][]byte, root int) []byte {
	seq := c.nextCollSeq()
	p := c.size
	if c.rank == root {
		if len(parts) != p {
			panic("mpi: Scatter needs one part per rank")
		}
		for r := 0; r < p; r++ {
			if r == root {
				continue
			}
			c.isendRetry(parts[r], r, collTag(seq, 3)).detach()
		}
		own := make([]byte, len(parts[root]))
		copy(own, parts[root])
		return own
	}
	r := c.irecv(nil, root, collTag(seq, 3), true)
	r.WaitStatus()
	part := r.payload
	r.Free()
	return part
}

// Gather collects each rank's data at root, which receives one slice per
// rank (indexed by rank); non-roots return nil.
func (c *Comm) Gather(data []byte, root int) [][]byte {
	seq := c.nextCollSeq()
	p := c.size
	if c.rank != root {
		c.isendRetry(data, root, collTag(seq, 4)).detach()
		return nil
	}
	out := make([][]byte, p)
	own := make([]byte, len(data))
	copy(own, data)
	out[root] = own
	reqs := make([]*Request, 0, p-1)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		reqs = append(reqs, c.irecv(nil, r, collTag(seq, 4), true))
	}
	for _, rq := range reqs {
		rq.WaitStatus()
	}
	i := 0
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		out[r] = reqs[i].payload
		reqs[i].Free()
		i++
	}
	return out
}

// Allgather collects each rank's data on every rank.
func (c *Comm) Allgather(data []byte) [][]byte {
	seq := c.nextCollSeq()
	p := c.size
	out := make([][]byte, p)
	own := make([]byte, len(data))
	copy(own, data)
	out[c.rank] = own
	reqs := make([]*Request, p)
	for r := 0; r < p; r++ {
		if r == c.rank {
			continue
		}
		reqs[r] = c.irecv(nil, r, collTag(seq, 5), true)
		c.isendRetry(data, r, collTag(seq, 5)).detach()
	}
	for r := 0; r < p; r++ {
		if r == c.rank {
			continue
		}
		reqs[r].WaitStatus()
		out[r] = reqs[r].payload
		reqs[r].Free()
	}
	return out
}

// Alltoall sends parts[r] to rank r and returns the slice of parts
// received, indexed by source rank.
func (c *Comm) Alltoall(parts [][]byte) [][]byte {
	seq := c.nextCollSeq()
	p := c.size
	if len(parts) != p {
		panic("mpi: Alltoall needs one part per rank")
	}
	out := make([][]byte, p)
	own := make([]byte, len(parts[c.rank]))
	copy(own, parts[c.rank])
	out[c.rank] = own
	reqs := make([]*Request, p)
	for r := 0; r < p; r++ {
		if r == c.rank {
			continue
		}
		reqs[r] = c.irecv(nil, r, collTag(seq, 6), true)
		c.isendRetry(parts[r], r, collTag(seq, 6)).detach()
	}
	for r := 0; r < p; r++ {
		if r == c.rank {
			continue
		}
		reqs[r].WaitStatus()
		out[r] = reqs[r].payload
		reqs[r].Free()
	}
	return out
}
