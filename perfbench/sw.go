package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hcmpi/internal/dddf"
	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/sw"
)

// The sw workload aligns two random DNA sequences generated from the
// workload seed: 8192×8192 cells in 64×64 outer tiles distributed
// column-cyclically over the ranks, each computed as a wavefront of
// 32×32 inner tiles. Every tile waits on DDDFs for its top edge (local),
// left edge and corner (remote, from the other rank's column).
var swConfig = sw.Config{LenA: 8192, LenB: 8192, OuterH: 64, OuterW: 64, InnerH: 32, InnerW: 32}

// swInput is the generated input and its ground truth.
type swInput struct {
	cfg    sw.Config
	a, b   []byte
	expect int32 // sequential best score (sw.SeqMax)
}

func newSWInput(seed int64) *swInput {
	cfg := swConfig
	cfg.Seed = seed
	a, b := cfg.Sequences()
	return &swInput{cfg: cfg, a: a, b: b, expect: sw.SeqMax(cfg)}
}

// Edge kinds of a tile's DDDF group, as in sw.Guid.
const (
	edgeRight = iota
	edgeBottom
	edgeCorner
)

// swJob is one alignment. The tile loop is the benchmark's own, over the
// public dddf API (Handle, AsyncAwait, Put, MustGet), with
// sw.ComputeTileParallel as the kernel.
type swJob struct {
	in     *swInput
	tr     *recorder
	id     int64
	home   dddf.HomeFunc
	spaces [ranks]*dddf.Space
	score  [ranks]int32
	errs   [ranks]error

	// Traced runs only: when each guid's producer called Put, and the
	// per-rank latency samples.
	putAt []atomic.Int64
	lat   [ranks]swLatency
}

type swLatency struct {
	mu                      sync.Mutex
	awaitRemote, awaitLocal samples
	put                     samples
	kernel                  time.Duration
}

func newSWJob(c *cluster, in *swInput, id int64, tr *recorder) *swJob {
	j := &swJob{in: in, tr: tr, id: id, home: sw.HomeFunc(in.cfg, sw.ColumnCyclic, ranks)}
	for r, n := range c.nodes {
		j.spaces[r] = dddf.NewSpace(n, j.home, nil)
	}
	if tr != nil {
		j.putAt = make([]atomic.Int64, in.cfg.TilesH()*in.cfg.TilesW()*3)
	}
	return j
}

func (j *swJob) body(rank int, ctx *hc.Ctx) {
	cfg := j.in.cfg
	space := j.spaces[rank]
	th, tw := cfg.TilesH(), cfg.TilesW()
	var mu sync.Mutex
	var best int32
	ctx.Finish(func(ctx *hc.Ctx) {
		for ti := 0; ti < th; ti++ {
			for tj := 0; tj < tw; tj++ {
				if sw.ColumnCyclic(ti, tj, th, tw, ranks) != rank {
					continue
				}
				ti, tj := ti, tj
				var top, left, corner *dddf.Handle
				var deps []*dddf.Handle
				if ti > 0 {
					top = space.Handle(sw.Guid(cfg, ti-1, tj, edgeBottom))
					deps = append(deps, top)
				}
				if tj > 0 {
					left = space.Handle(sw.Guid(cfg, ti, tj-1, edgeRight))
					deps = append(deps, left)
				}
				if ti > 0 && tj > 0 {
					corner = space.Handle(sw.Guid(cfg, ti-1, tj-1, edgeCorner))
					deps = append(deps, corner)
				}
				space.AsyncAwait(ctx, func(ctx *hc.Ctx) {
					m := j.tile(ctx, rank, ti, tj, top, left, corner, deps)
					mu.Lock()
					best = max(best, m)
					mu.Unlock()
				}, deps...)
			}
		}
	})
	node := space.Node()
	global := node.Allreduce(ctx, mpi.EncodeInt64(int64(best)), mpi.Int64, mpi.OpMax)
	if len(global) != 8 {
		j.errs[rank] = fmt.Errorf("allreduce returned %d bytes", len(global))
		return
	}
	j.score[rank] = int32(mpi.DecodeInt64(global))
}

// tile computes outer tile (ti, tj) once its edges are available,
// publishes its three outgoing edges and returns its best score.
func (j *swJob) tile(ctx *hc.Ctx, rank, ti, tj int, top, left, corner *dddf.Handle, deps []*dddf.Handle) int32 {
	cfg := j.in.cfg
	start := j.tr.now()
	id := int64(ti*cfg.TilesW() + tj)
	span := j.tr.begin("dddf.tile", j.tr.jobSpan(), rank, id, start)
	if j.tr != nil {
		j.noteAwait(rank, start, deps)
	}
	i0, i1, k0, k1 := cfg.TileSpan(ti, tj)
	topEdge := make([]int32, k1-k0)
	leftEdge := make([]int32, i1-i0)
	var cornerVal int32
	if top != nil {
		copy(topEdge, sw.DecodeEdge(top.MustGet()))
	}
	if left != nil {
		copy(leftEdge, sw.DecodeEdge(left.MustGet()))
	}
	if corner != nil {
		cornerVal = sw.DecodeEdge(corner.MustGet())[0]
	}
	kStart := j.tr.now()
	res := sw.ComputeTileParallel(ctx, cfg, j.in.a[i0:i1], j.in.b[k0:k1], topEdge, leftEdge, cornerVal)
	kEnd := j.tr.now()
	var puts samples
	for _, e := range [...]struct {
		edge int
		data []int32
	}{{edgeRight, res.Right}, {edgeBottom, res.Bottom}, {edgeCorner, []int32{res.Corner}}} {
		guid := sw.Guid(cfg, ti, tj, e.edge)
		h := j.spaces[rank].Handle(guid)
		data := sw.EncodeEdge(e.data)
		if j.tr == nil {
			h.Put(ctx, data)
			continue
		}
		t0 := j.tr.now()
		j.putAt[guid].Store(t0)
		h.Put(ctx, data)
		t1 := j.tr.now()
		puts.add(time.Duration(t1 - t0))
		j.tr.add("dddf.Put", &span, rank, id, t0, t1)
	}
	if j.tr != nil {
		end := j.tr.now()
		l := &j.lat[rank]
		l.mu.Lock()
		l.put = append(l.put, puts...)
		l.kernel += time.Duration(kEnd - kStart)
		l.mu.Unlock()
		j.tr.add("sw.kernel", &span, rank, id, kStart, kEnd)
		j.tr.end(span, end)
	}
	return res.Max
}

// noteAwait classifies the tile by its last-arriving dependency and
// records the latency from that dependency's Put to this task's start.
func (j *swJob) noteAwait(rank int, start int64, deps []*dddf.Handle) {
	var last int64
	remote := false
	for _, h := range deps {
		if at := j.putAt[h.Guid()].Load(); at > last {
			last, remote = at, j.home(h.Guid()) != rank
		}
	}
	if last == 0 {
		return
	}
	l := &j.lat[rank]
	l.mu.Lock()
	defer l.mu.Unlock()
	if remote {
		l.awaitRemote.add(time.Duration(start - last))
	} else {
		l.awaitLocal.add(time.Duration(start - last))
	}
}

func (j *swJob) check(o *outcome) {
	want := j.in.expect
	o.attempted++
	o.work += float64(j.in.cfg.LenA) * float64(j.in.cfg.LenB)
	if err := errors.Join(j.errs[:]...); err != nil {
		o.fail(fmt.Sprintf("sw job %d: %v", j.id, err))
		return
	}
	for r, s := range j.score {
		if s != want {
			o.fail(fmt.Sprintf("sw job %d: rank %d score %d, ground truth %d", j.id, r, s, want))
			return
		}
	}
}

func (j *swJob) observe(p *probes, t tally) {
	for r := range j.spaces {
		regs, data := j.spaces[r].Stats()
		t["dddf_registers_sent"] += regs
		t["dddf_data_sent"] += data
		l := &j.lat[r]
		p.awaitRemote = append(p.awaitRemote, l.awaitRemote...)
		p.awaitLocal = append(p.awaitLocal, l.awaitLocal...)
		p.put = append(p.put, l.put...)
		p.kernel += l.kernel
	}
}
