package dddf

import (
	"testing"

	"hcmpi/internal/hc"
)

// TestRemoteAwaitAllocFree pins one remote await between two
// single-worker ranks at 17 allocations, its measured count (GOMAXPROCS
// 1 and 2): rank 1 awaits a guid homed (and already put) on rank 0, so
// the registration goes home, the data comes back, and the released task
// runs. Both ranks' work is counted, because the malloc counters are
// process-wide. The AllocFree suffix places it in the allocation-pin CI
// job.
func TestRemoteAwaitAllocFree(t *testing.T) {
	const warm, runs = 100, 200
	const guids = warm + runs + 1 // +1: AllocsPerRun's warm-up call
	runSpaces(t, 2, 1, func(int64) int { return 0 }, nil, func(s *Space, ctx *hc.Ctx) {
		n := s.Node()
		if n.Rank() == 0 {
			for g := int64(0); g < guids; g++ {
				s.Handle(g).Put(ctx, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			}
			n.Barrier(ctx)
			n.Barrier(ctx)
			return
		}
		hs := make([]*Handle, guids)
		for g := range hs {
			hs[g] = s.Handle(int64(g))
		}
		n.Barrier(ctx)
		next := 0
		await := func() {
			h := hs[next]
			next++
			ctx.Finish(func(ctx *hc.Ctx) {
				s.AsyncAwait(ctx, func(*hc.Ctx) { _ = h.MustGet() }, h)
			})
		}
		for i := 0; i < warm; i++ {
			await()
		}
		if avg := testing.AllocsPerRun(runs, await); avg > 17 {
			t.Errorf("remote await allocated %.0f per run, want <= 17", avg)
		}
		n.Barrier(ctx)
	})
}
