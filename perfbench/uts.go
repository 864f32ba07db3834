package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hcmpi/internal/distsched"
	"hcmpi/internal/hc"
	"hcmpi/internal/uts"
)

// The uts workload traverses a forest of T1-class geometric trees
// (branching factor 4 with fixed shape, SplitMix hashing) whose root
// seeds derive from the workload seed. Trees are added until the forest
// holds at least utsForestNodes nodes, so every seed gives the same
// amount of work to within one tree (at most a few hundred thousand
// nodes at depth cutoff utsDepth). One tree of T1Big's size would make
// the work, and so every time metric, vary several-fold with the seed.
const (
	utsForestNodes = 16_000_000
	utsDepth       = 8
	utsChunk       = 8 // nodes per spilled task, as in uts.DefaultParams
	utsInterval    = 4 // nodes expanded between spill checks
	utsKind        = "uts"
)

// utsTree is the branching process every tree of the forest shares;
// the seed only selects the root.
var utsTree = uts.Config{Name: "forest", Type: uts.Geometric, Hash: uts.HashSplitMix,
	B0: 4, GenMx: utsDepth, Shape: uts.ShapeFixed}

// utsForest is the generated input and its ground truth.
type utsForest struct {
	roots  []uts.Node
	expect int64 // sequential node count (uts.Config.SeqCount)
}

// newUTSForest grows the seed's forest to at least nodes nodes.
func newUTSForest(seed int64, nodes int64) *utsForest {
	f := &utsForest{}
	for i := uint64(0); f.expect < nodes; i++ {
		tree := utsTree
		tree.Seed = int64(mix(uint64(seed), i) >> 1)
		n, _ := tree.SeqCount()
		f.expect += n
		f.roots = append(f.roots, tree.Root())
	}
	return f
}

// utsJob is one traversal of the forest. Every root is submitted on
// rank 0 during set-up; rank 1 starts empty and gets work only through
// distsched steals.
type utsJob struct {
	forest *utsForest
	tr     *recorder
	id     int64
	scheds [ranks]*distsched.Scheduler
	state  [ranks]utsWorker // one computation worker per rank
	errs   [ranks]error

	runStart      atomic.Int64 // recorder clock at the first Run call
	firstMigrated atomic.Int64 // first handler start on rank 1
	runEnd        [ranks]int64
	runSpan       [ranks]spanRef
}

// utsWorker is one computation worker's private state.
type utsWorker struct {
	stack    []uts.Node
	nodes    int64
	handlers int64
	kernel   time.Duration
	lastEnd  int64
}

func newUTSJob(c *cluster, forest *utsForest, id int64, tr *recorder) *utsJob {
	j := &utsJob{forest: forest, tr: tr, id: id}
	for r, n := range c.nodes {
		j.scheds[r] = distsched.New(n, distsched.Config{})
		j.scheds[r].Register(utsKind, j.handler(r))
	}
	for i := range forest.roots {
		j.scheds[0].Submit(utsKind, uts.EncodeNodes(forest.roots[i:i+1]))
	}
	return j
}

// handler explores a task's nodes depth-first and spills the oldest
// chunk as a new migratable task whenever the stack can spare it.
func (j *utsJob) handler(rank int) distsched.Handler {
	return func(tc *distsched.TaskCtx, payload []byte) {
		w := &j.state[rank]
		start := j.tr.now()
		if rank == 1 && j.tr != nil {
			j.firstMigrated.CompareAndSwap(0, start)
		}
		stack := append(w.stack[:0], uts.DecodeNodes(payload)...)
		var nodes int64
		for len(stack) > 0 {
			for i := 0; i < utsInterval && len(stack) > 0; i++ {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				nodes++
				for c := utsTree.NumChildren(n) - 1; c >= 0; c-- {
					stack = append(stack, utsTree.Child(n, c))
				}
			}
			if len(stack) >= 2*utsChunk {
				tc.Spawn(utsKind, uts.EncodeNodes(stack[:utsChunk]))
				stack = append(stack[:0], stack[utsChunk:]...)
			}
		}
		w.stack = stack[:0]
		w.nodes += nodes
		if j.tr != nil {
			end := j.tr.now()
			w.handlers++
			w.kernel += time.Duration(end - start)
			w.lastEnd = end
		}
	}
}

func (j *utsJob) body(rank int, ctx *hc.Ctx) {
	start := j.tr.now()
	j.runStart.CompareAndSwap(0, start)
	j.runSpan[rank] = j.tr.begin("distsched.Run", j.tr.jobSpan(), rank, j.id, start)
	j.errs[rank] = j.scheds[rank].Run(ctx)
	j.runEnd[rank] = j.tr.now()
	j.tr.end(j.runSpan[rank], j.runEnd[rank])
}

func (j *utsJob) check(o *outcome) {
	var nodes int64
	for r := range j.state {
		nodes += j.state[r].nodes
	}
	want := j.forest.expect
	o.attempted++
	o.work += float64(nodes)
	if err := errors.Join(j.errs[:]...); err != nil {
		o.fail(fmt.Sprintf("uts job %d: distsched.Run: %v", j.id, err))
	} else if nodes != want {
		o.fail(fmt.Sprintf("uts job %d: counted %d nodes, ground truth %d", j.id, nodes, want))
	}
}

func (j *utsJob) observe(p *probes, t tally) {
	var lastEnd, runEnd int64
	for r := range j.state {
		w := &j.state[r]
		p.kernel += w.kernel
		j.tr.aggregate("uts.handler", &j.runSpan[r], w.handlers, w.kernel)
		lastEnd = max(lastEnd, w.lastEnd)
		runEnd = max(runEnd, j.runEnd[r])
		st := j.scheds[r].Stats()
		t["dist_search_ns"] += int64(st.Search)
	}
	if first := j.firstMigrated.Load(); first > 0 {
		p.firstMigration.add(time.Duration(first - j.runStart.Load()))
	}
	p.termTail.add(time.Duration(runEnd - lastEnd))
}

// mix derives the i-th value of a seed's stream (a SplitMix64 step).
func mix(seed, i uint64) uint64 {
	x := seed + (i+1)*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
