package hcmpi

import (
	"sync/atomic"
	"testing"

	"hcmpi/internal/hc"
)

// Regression tests for the wait path: Wait and WaitAny help on the
// request itself and park when nothing else is runnable, so completion
// from outside the task pool must always wake them. A single worker
// leaves nothing to spin on, which makes a lost wake-up a hang.

const waitIters = 10000

// stagger delays a completer by a busy wait that grows in small steps
// with i, so that over the iterations completions land at every point of
// the waiter's spin, sleeper registration and park.
func stagger(i int) {
	for j := 0; j < (i%1024)*4; j++ {
		staggerSink.Add(1)
	}
}

var staggerSink atomic.Int64

// TestWaitWokenByCompleteRequest completes a user request from a plain
// goroutine while the only worker waits on it.
func TestWaitWokenByCompleteRequest(t *testing.T) {
	runNodes(t, 1, 1, func(n *Node, ctx *hc.Ctx) {
		for i := 0; i < waitIters; i++ {
			r := n.RequestCreate()
			go func() {
				stagger(i)
				if err := n.CompleteRequest(nil, r, &Status{Bytes: i}); err != nil {
					t.Errorf("CompleteRequest: %v", err)
				}
			}()
			if st := n.Wait(ctx, r); st.Bytes != i {
				t.Fatalf("iteration %d: Wait returned status for %d", i, st.Bytes)
			}
		}
	})
}

// TestWaitAnyReturnsCompletedRequest completes one of several requests
// and checks that WaitAny names exactly that one.
func TestWaitAnyReturnsCompletedRequest(t *testing.T) {
	const k = 4
	runNodes(t, 1, 1, func(n *Node, ctx *hc.Ctx) {
		for i := 0; i < waitIters; i++ {
			rs := make([]*Request, k)
			for j := range rs {
				rs[j] = n.RequestCreate()
			}
			want := i % k
			go func() {
				stagger(i)
				n.CompleteRequest(nil, rs[want], &Status{Tag: want})
			}()
			got, st := n.WaitAny(ctx, rs...)
			if got != want || st.Tag != want {
				t.Fatalf("iteration %d: WaitAny = %d (status tag %d), want %d", i, got, st.Tag, want)
			}
			if _, ok := rs[got].Test(); !ok {
				t.Fatalf("iteration %d: WaitAny returned incomplete request %d", i, got)
			}
		}
	})
}

// TestAwaitRequestDDFStillReleases checks that a data-driven task
// awaiting a request's DDF runs once the request completes: the request
// is still a DDF, whatever Wait does.
func TestAwaitRequestDDFStillReleases(t *testing.T) {
	runNodes(t, 1, 1, func(n *Node, ctx *hc.Ctx) {
		for i := 0; i < waitIters; i++ {
			r := n.RequestCreate()
			ran := false
			ctx.Finish(func(ctx *hc.Ctx) {
				ctx.AsyncAwait(func(*hc.Ctx) { ran = r.status().Bytes == i }, r.DDF())
				go func() {
					stagger(i)
					n.CompleteRequest(nil, r, &Status{Bytes: i})
				}()
			})
			if !ran {
				t.Fatalf("iteration %d: DDT awaiting the request did not run with its status", i)
			}
		}
	})
}
