package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"hcmpi/internal/dddf"
	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/netsim"
)

// The ladder times the same operation at each layer of the stack, so
// the cost a layer adds over the one below is a measured number:
//
//	netsim link → mpi.Comm p2p → hcmpi comm task → DDDF remote await
//	                                             → distsched migration
//
// Rungs run over the workload's transport, except the netsim rung,
// which always times the in-process loopback link. Each rung checks
// what it moved.
const (
	rungRounds    = 2000 // round trips per p2p rung
	rungDDDFSteps = 1000 // remote awaits in the dddf rung's chain
	rungJobs      = 8    // fresh clusters in the distsched rung
	rungForest    = 200_000
)

// netsimRung times round trips of netsim.Network.Send delivery
// callbacks on the loopback link.
func netsimRung(p *probes, o *outcome) {
	nw := netsim.New(ranks, nil, netsim.Loopback)
	defer nw.Close()
	done := 0
	back := func() { done++ }
	there := func() { nw.Send(1, 0, 8, back) }
	for i := 0; i < rungRounds; i++ {
		t0 := time.Now()
		nw.Send(0, 1, 8, there)
		p.netsimRTT.add(time.Since(t0))
	}
	o.attempted++
	if done != rungRounds {
		o.fail(fmt.Sprintf("netsim rung: %d of %d round trips delivered", done, rungRounds))
	}
}

// mpiRung times Isend/Irecv/WaitStatus round trips of 8 B and 4 KiB
// and an 8 B Allreduce directly on mpi.Comm.
func mpiRung(transport string, p *probes, o *outcome) error {
	cs, err := dial(transport)
	if err != nil {
		return err
	}
	defer cs.close()
	var wg sync.WaitGroup
	var echoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		echoErr = mpiEcho(cs.ranks[1])
	}()
	c := cs.ranks[0]
	out := make([]byte, bigBytes)
	in := make([]byte, bigBytes)
	for _, size := range []int{8, bigBytes} {
		dst := &p.mpiRTT8
		if size == bigBytes {
			dst = &p.mpiRTT4k
		}
		for i := 0; i < rungRounds; i++ {
			fillBig(out, uint64(i))
			t0 := time.Now()
			r := c.Irecv(in[:size], 1, tagEcho)
			s := c.Isend(out[:size], 1, tagSmall)
			sst, rst := s.WaitStatus(), r.WaitStatus()
			dst.add(time.Since(t0))
			s.Free()
			r.Free()
			o.attempted++
			if sst.Err != nil || rst.Err != nil {
				o.fail(fmt.Sprintf("mpi rung: round trip %d: %v %v", i, sst.Err, rst.Err))
			} else if !bytes.Equal(in[:size], out[:size]) {
				o.fail(fmt.Sprintf("mpi rung: %d B echo %d differs", size, i))
			}
		}
	}
	for i := 0; i < rungRounds; i++ {
		t0 := time.Now()
		sum := c.Allreduce(mpi.EncodeInt64(int64(i)), mpi.Int64, mpi.OpSum)
		p.mpiAllreduce.add(time.Since(t0))
		o.attempted++
		if got := mpi.DecodeInt64(sum); got != 2*int64(i)+1 {
			o.fail(fmt.Sprintf("mpi rung: allreduce %d gave %d", i, got))
		}
	}
	wg.Wait()
	if echoErr != nil {
		o.attempted++
		o.fail("mpi rung: " + echoErr.Error())
	}
	return nil
}

// mpiEcho is rank 1 of the mpi rung: echo every payload, then join the
// allreduces (contributing i+1).
func mpiEcho(c *mpi.Comm) error {
	buf := make([]byte, bigBytes)
	for _, size := range []int{8, bigBytes} {
		for i := 0; i < rungRounds; i++ {
			r := c.Irecv(buf[:size], 0, tagSmall)
			st := r.WaitStatus()
			r.Free()
			if st.Err != nil {
				return st.Err
			}
			s := c.Isend(buf[:size], 0, tagEcho)
			st = s.WaitStatus()
			s.Free()
			if st.Err != nil {
				return st.Err
			}
		}
	}
	for i := 0; i < rungRounds; i++ {
		c.Allreduce(mpi.EncodeInt64(int64(i)+1), mpi.Int64, mpi.OpSum)
	}
	return nil
}

// dddfRung times a chain of DDDF puts that alternates between the
// ranks: step s is put by rank s%2 (its home) and awaited by the other
// rank, whose task, on starting, puts step s+1. Every await is
// registered before the chain starts, so each step measures put →
// remote dependent start. A local put → await pair per step on rank 0
// gives the local rung.
func dddfRung(transport string, p *probes, o *outcome, t tally) error {
	c, err := startCluster(transport)
	if err != nil {
		return err
	}
	home := func(guid int64) int { return int(guid % ranks) }
	var spaces [ranks]*dddf.Space
	for r, n := range c.nodes {
		spaces[r] = dddf.NewSpace(n, home, nil)
	}
	const localBase = 1 << 30 // guids of the local pairs, homed on rank 0
	putAt := make([]int64, rungDDDFSteps)
	var lat [ranks]samples
	var local, puts samples
	epoch := time.Now()
	clock := func() int64 { return int64(time.Since(epoch)) }
	bad := make([]int, ranks)
	c.run(func(rank int, ctx *hc.Ctx) {
		s := spaces[rank]
		put := func(ctx *hc.Ctx, step int) {
			putAt[step] = clock()
			s.Handle(int64(step)).Put(ctx, []byte{byte(step)})
			if rank == 0 {
				puts.add(time.Duration(clock() - putAt[step]))
			}
		}
		ctx.Finish(func(ctx *hc.Ctx) {
			for step := 1 - rank; step < rungDDDFSteps; step += ranks {
				step := step
				h := s.Handle(int64(step))
				s.AsyncAwait(ctx, func(ctx *hc.Ctx) {
					lat[rank].add(time.Duration(clock() - putAt[step]))
					if v := h.MustGet(); len(v) != 1 || v[0] != byte(step) {
						bad[rank]++
					}
					if step+1 < rungDDDFSteps {
						put(ctx, step+1)
					}
				}, h)
			}
			// Registrations travel ahead of the barrier's messages, so
			// every await is registered at its home before step 0.
			c.nodes[rank].Barrier(ctx)
			if rank == 0 {
				put(ctx, 0)
			}
		})
		if rank != 0 {
			return
		}
		for i := int64(0); i < rungDDDFSteps; i++ {
			h := s.Handle(localBase + i)
			var at int64
			ctx.Finish(func(ctx *hc.Ctx) {
				s.AsyncAwait(ctx, func(*hc.Ctx) { local.add(time.Duration(clock() - at)) }, h)
				at = clock()
				h.Put(ctx, []byte{1})
			})
		}
	})
	for r := range spaces {
		regs, data := spaces[r].Stats()
		t["dddf_registers_sent"] += regs
		t["dddf_data_sent"] += data
	}
	c.close()
	p.awaitRemote = append(append(p.awaitRemote, lat[0]...), lat[1]...)
	p.awaitLocal = append(p.awaitLocal, local...)
	p.put = append(p.put, puts...)
	o.attempted += rungDDDFSteps
	if n := bad[0] + bad[1]; n > 0 || len(lat[0])+len(lat[1]) != rungDDDFSteps {
		o.fail(fmt.Sprintf("dddf rung: %d of %d steps ran, %d with wrong data", len(lat[0])+len(lat[1]), rungDDDFSteps, n))
	}
	return nil
}

// distschedRung runs small UTS forests, seeded on rank 0, on fresh
// clusters and records the first migration to rank 1 and the
// termination tail.
func distschedRung(transport string, seed int64, p *probes, o *outcome, t tally) error {
	forest := newUTSForest(seed, rungForest)
	tr := newRecorder()
	for i := 0; i < rungJobs; i++ {
		c, err := startCluster(transport)
		if err != nil {
			return err
		}
		j := newUTSJob(c, forest, int64(i), tr)
		c.run(j.body)
		t.merge(c.counters())
		c.close()
		j.check(o)
		j.observe(p, t)
	}
	return nil
}

// hcmpiRung times comm rounds (Node.Send/Recv/Allreduce) for workloads
// whose own jobs do not call them directly.
func hcmpiRung(transport string, seed int64, p *probes, o *outcome) error {
	tr := newRecorder()
	for i := int64(0); i < rungRounds/commRounds; i++ {
		c, err := startCluster(transport)
		if err != nil {
			return err
		}
		j := newCommJob(c, uint64(seed), i, tr, false)
		c.run(j.body)
		c.close()
		j.check(o)
		j.observe(p, nil)
	}
	return nil
}
