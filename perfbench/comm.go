package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
)

// The comm-* workloads are closed loops with one client. In each round
// rank 0 sends 8 B and waits for the echo, sends 4 KiB and waits for
// the echo, then both ranks allreduce one int64. Rank 1 only answers.
// Payloads and allreduce operands derive from the seed and the round.
const (
	commRounds = 2000 // rounds per job
	bigBytes   = 4096
	tagSmall   = 1
	tagBig     = 2
	tagEcho    = 3
	tagBigEcho = 4
)

// commOps is the number of checked operations in one round: the 8 B
// round trip, the 4 KiB round trip and the allreduce.
const commOps = 3

// commJob is one batch of rounds on a fresh cluster.
type commJob struct {
	seed    uint64
	nodes   []*hcmpi.Node
	tr      *recorder
	id      int64
	corrupt bool
	// failed[r] is a bit set of the operations of round r that failed
	// (bit 0: 8 B, bit 1: 4 KiB, bit 2: allreduce), written by both ranks.
	mu     sync.Mutex
	failed [commRounds]uint8
	notes  []string
	lat    commLatency // rank 0's
}

type commLatency struct {
	round, rtt8, rtt4k, allreduce, send, recv samples
}

func newCommJob(c *cluster, seed uint64, id int64, tr *recorder, corrupt bool) *commJob {
	return &commJob{seed: seed, nodes: c.nodes, tr: tr, id: id, corrupt: corrupt}
}

// roundKey is the value round i of the job is built from.
func (j *commJob) roundKey(i int) uint64 { return mix(j.seed, uint64(j.id)<<20|uint64(i)) }

// fillBig writes round key k's 4 KiB pattern into b.
func fillBig(b []byte, k uint64) {
	for off := 0; off+8 <= len(b); off += 8 {
		binary.LittleEndian.PutUint64(b[off:], k+uint64(off)*0x9E3779B97F4A7C15)
	}
}

// operand is rank r's allreduce contribution in the round with key k;
// kept below 2^40 so the sum cannot overflow.
func operand(k uint64, r int) int64 { return int64(mix(k, uint64(r)) >> 24) }

func (j *commJob) fail(round int, op uint8, format string, args ...any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.failed[round] |= op
	if len(j.notes) < 4 {
		j.notes = append(j.notes, fmt.Sprintf("comm job %d round %d: ", j.id, round)+fmt.Sprintf(format, args...))
	}
}

const (
	opSmall uint8 = 1 << iota
	opBig
	opAllreduce
)

func (j *commJob) body(rank int, ctx *hc.Ctx) {
	n := j.nodes[rank]
	small := make([]byte, 8)
	smallIn := make([]byte, 8)
	big := make([]byte, bigBytes)
	bigIn := make([]byte, bigBytes)
	want := make([]byte, bigBytes)
	for i := 0; i < commRounds; i++ {
		k := j.roundKey(i)
		var sum int64
		if rank == 0 {
			t0 := time.Now()
			round := j.tr.begin("round", j.tr.jobSpan(), 0, int64(i), j.tr.now())
			j.ping(ctx, n, i, k, &round, small, smallIn, big, bigIn, want)
			t1 := time.Now()
			sum = j.allreduce(ctx, n, k, rank)
			t2 := time.Now()
			j.lat.allreduce.add(t2.Sub(t1))
			j.lat.round.add(t2.Sub(t0))
			if j.tr != nil {
				j.tr.add("hcmpi.Allreduce", &round, 0, int64(i), j.tr.ns(t1), j.tr.ns(t2))
				j.tr.end(round, j.tr.ns(t2))
			}
		} else {
			j.echo(ctx, n, i, smallIn, bigIn)
			sum = j.allreduce(ctx, n, k, rank)
		}
		expect := operand(k, 0) + operand(k, 1)
		if j.corrupt {
			expect++
		}
		if sum != expect {
			j.fail(i, opAllreduce, "rank %d allreduce sum %d, want %d", rank, sum, expect)
		}
	}
}

// ping is rank 0's half of the two round trips of round i. Latency
// samples are always taken (two clock reads per operation); spans only
// in traced runs.
func (j *commJob) ping(ctx *hc.Ctx, n *hcmpi.Node, i int, k uint64, round *spanRef, small, smallIn, big, bigIn, want []byte) {
	binary.LittleEndian.PutUint64(small, k)
	t0 := time.Now()
	st := n.Send(ctx, small, 1, tagSmall)
	t1 := time.Now()
	rst := n.Recv(ctx, smallIn, 1, tagEcho)
	t2 := time.Now()
	wantKey := k
	if j.corrupt {
		wantKey++
	}
	if err := statusErr(st, rst); err != nil {
		j.fail(i, opSmall, "8 B round trip: %v", err)
	} else if got := binary.LittleEndian.Uint64(smallIn); got != wantKey {
		j.fail(i, opSmall, "8 B echo %#x, want %#x", got, wantKey)
	}

	fillBig(big, k)
	t3 := time.Now()
	st = n.Send(ctx, big, 1, tagBig)
	t4 := time.Now()
	rst = n.Recv(ctx, bigIn, 1, tagBigEcho)
	t5 := time.Now()
	fillBig(want, wantKey)
	if err := statusErr(st, rst); err != nil {
		j.fail(i, opBig, "4 KiB round trip: %v", err)
	} else if !bytes.Equal(bigIn, want) {
		j.fail(i, opBig, "4 KiB echo differs from the round's pattern")
	}
	l := &j.lat
	l.send.add(t1.Sub(t0))
	l.send.add(t4.Sub(t3))
	l.recv.add(t2.Sub(t1))
	l.recv.add(t5.Sub(t4))
	l.rtt8.add(t2.Sub(t0))
	l.rtt4k.add(t5.Sub(t3))
	if tr := j.tr; tr != nil {
		for _, s := range [...]struct {
			name   string
			t0, t1 time.Time
		}{{"hcmpi.Send", t0, t1}, {"hcmpi.Recv", t1, t2}, {"hcmpi.Send", t3, t4}, {"hcmpi.Recv", t4, t5}} {
			tr.add(s.name, round, 0, int64(i), tr.ns(s.t0), tr.ns(s.t1))
		}
	}
}

// echo is rank 1's half: receive each payload and send it back.
func (j *commJob) echo(ctx *hc.Ctx, n *hcmpi.Node, i int, smallIn, bigIn []byte) {
	st := n.Recv(ctx, smallIn, 0, tagSmall)
	if err := statusErr(st, n.Send(ctx, smallIn, 0, tagEcho)); err != nil {
		j.fail(i, opSmall, "rank 1 echo: %v", err)
	}
	st = n.Recv(ctx, bigIn, 0, tagBig)
	if err := statusErr(st, n.Send(ctx, bigIn, 0, tagBigEcho)); err != nil {
		j.fail(i, opBig, "rank 1 echo: %v", err)
	}
}

func (j *commJob) allreduce(ctx *hc.Ctx, n *hcmpi.Node, k uint64, rank int) int64 {
	out := n.Allreduce(ctx, mpi.EncodeInt64(operand(k, rank)), mpi.Int64, mpi.OpSum)
	if len(out) != 8 {
		return 0
	}
	return mpi.DecodeInt64(out)
}

// statusErr returns the first operation error among sts.
func statusErr(sts ...*hcmpi.Status) error {
	for _, st := range sts {
		if st == nil {
			return fmt.Errorf("nil status")
		}
		if st.Err != nil {
			return st.Err
		}
	}
	return nil
}

func (j *commJob) check(o *outcome) {
	o.attempted += commRounds * commOps
	o.work += commRounds
	for _, f := range j.failed {
		for b := f; b != 0; b &= b - 1 {
			o.failed++
		}
	}
	o.notes = append(o.notes, j.notes...)
}

func (j *commJob) observe(p *probes, _ tally) {
	p.round = append(p.round, j.lat.round...)
	p.rtt8 = append(p.rtt8, j.lat.rtt8...)
	p.rtt4k = append(p.rtt4k, j.lat.rtt4k...)
	p.allreduce = append(p.allreduce, j.lat.allreduce...)
	p.send = append(p.send, j.lat.send...)
	p.recv = append(p.recv, j.lat.recv...)
}
