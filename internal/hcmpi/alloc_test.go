package hcmpi

import (
	"runtime"
	"testing"

	"hcmpi/internal/hc"
)

// The hcmpi layer is not allocation-free yet: every operation allocates
// its Request (which embeds the DDF) and its Status, and the layers below
// add a few more. These pins hold the round trip and the barrier at their
// measured budgets; the AllocFree suffix places them in the allocation-pin
// CI job. The counts cover both ranks, because the malloc counters are
// process-wide.

// allocPinRuns is the measured window; the peer rank serves one extra
// iteration for AllocsPerRun's warm-up call.
const allocPinRuns = 200

// TestSendRecvRoundTripAllocFree pins an 8 B Send/Recv round trip
// between two single-worker ranks (the BenchmarkCommTaskRoundTrip
// operation) at 16 allocations.
func TestSendRecvRoundTripAllocFree(t *testing.T) {
	const warm = 100
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		buf := make([]byte, 8)
		if n.Rank() == 1 {
			for i := 0; i < warm+allocPinRuns+1; i++ {
				n.Recv(ctx, buf, 0, 0)
				n.Send(ctx, buf, 0, 1)
			}
			return
		}
		roundTrip := func() {
			n.Send(ctx, buf, 1, 0)
			n.Recv(ctx, buf, 1, 1)
		}
		for i := 0; i < warm; i++ {
			roundTrip()
		}
		if avg := testing.AllocsPerRun(allocPinRuns, roundTrip); avg > 16 {
			t.Errorf("8 B Send/Recv round trip allocated %.0f per run, want <= 16", avg)
		}
	})
}

// TestBarrierAllocFree pins a two-rank hcmpi Barrier (the
// BenchmarkHCMPIBarrier2Ranks operation) at 19 allocations as counted
// here. Both ranks must run the same collective sequence, so both
// measure, with allocsPerRound: testing.AllocsPerRun cannot run on two
// goroutines at once, because each call saves and restores GOMAXPROCS.
func TestBarrierAllocFree(t *testing.T) {
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		barrier := func() { n.Barrier(ctx) }
		for i := 0; i < 100; i++ {
			barrier()
		}
		if avg := allocsPerRound(allocPinRuns, barrier); avg > 19 {
			t.Errorf("rank %d: Barrier allocated %d per run, want <= 19", n.Rank(), avg)
		}
	})
}

// allocsPerRound is testing.AllocsPerRun without the GOMAXPROCS change:
// the process-wide mallocs during runs calls of f, divided by runs.
func allocsPerRound(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}
