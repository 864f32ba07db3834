// Package atomicmix is a known-bad fixture for the atomic-mix analyzer:
// every sync/atomic package-level helper call is flagged, and the typed
// atomics stay clean.
package atomicmix

import "sync/atomic"

type counter struct {
	n     int64
	typed atomic.Int64
}

func (c *counter) incr() {
	atomic.AddInt64(&c.n, 1) // want: package-level helper
	c.typed.Add(1)           // fine: typed atomic
}

func (c *counter) read() int64 {
	return atomic.LoadInt64(&c.n) + c.typed.Load() // want: package-level helper
}

func (c *counter) swap(old, new int64) bool {
	return atomic.CompareAndSwapInt64(&c.n, old, new) // want: package-level helper
}

// Methods of the typed atomics take &x as a stored value: still clean.
type node struct{ next *node }

type stack struct {
	head atomic.Pointer[node]
	stub node
}

func (s *stack) init() {
	s.head.Store(&s.stub) // fine: typed atomic method
}
