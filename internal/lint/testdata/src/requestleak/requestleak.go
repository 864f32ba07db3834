// Package requestleak exercises the request-leak analyzer: posts whose
// requests are discarded, leak on some path, or are handed to a callee
// that provably ignores them — and every sanctioned out: completion on
// all paths, defer, chaining, escapes, closures, and DDF handoff.
package requestleak

// Request mirrors the runtime's handle shape (matched by type name).
type Request struct{ done bool }

func (r *Request) Wait()      {}
func (r *Request) Test() bool { return r.done }
func (r *Request) Free()      {}
func (r *Request) DDF() *int  { return nil }

type Comm struct{ rank int }

func (c *Comm) Rank() int                               { return c.rank }
func (c *Comm) Isend(buf []byte, dst, tag int) *Request { return &Request{} }
func (c *Comm) Irecv(buf []byte, src, tag int) *Request { return &Request{} }
func (c *Comm) SendDetached(buf []byte, dst, tag int)   {}

type Win struct{}

func (w *Win) Put(buf []byte, dst, off int) {}
func (w *Win) Get(n, src, off int) *Request { return &Request{} }
func (w *Win) Fence() error                 { return nil }

// ---- discarded results: nobody can ever complete these ----

func discarded(c *Comm, buf []byte) {
	c.Isend(buf, 1, 0) // want: result discarded
}

func blanked(c *Comm, buf []byte) {
	_ = c.Irecv(buf, 0, 0) // want: assigned to _
}

func underGo(c *Comm, buf []byte) {
	go c.Isend(buf, 1, 0) // want: posted under `go`
}

func rmaDiscarded(w *Win, buf []byte) {
	w.Put(buf, 1, 0) // fine: no request, Fence completes it
	w.Get(1, 1, 0)   // want: result discarded
	w.Fence()
}

// Map's Get is not a post, whatever it returns.
type Map struct{}

func (m *Map) Get(key string) *Request { return nil }

func lookups(m *Map) {
	m.Get("k") // fine: not a Win
}

func detached(c *Comm, buf []byte) {
	c.SendDetached(buf, 1, 0) // fine: the runtime owns the request
}

// ---- path-sensitive leaks ----

func leakOnElsePath(c *Comm, buf []byte, flag bool) {
	r := c.Irecv(buf, 0, 0) // want: may leak
	if flag {
		r.Wait()
	}
}

func rebindLosesFirst(c *Comm, buf []byte) {
	r := c.Isend(buf, 1, 0) // want: may leak
	r = c.Isend(buf, 2, 0)
	r.Wait()
}

func ignore(r *Request) {}

func passedToDropper(c *Comm, buf []byte) {
	ignore(c.Isend(buf, 1, 0)) // want: ignores its request parameter
}

func localToDropper(c *Comm, buf []byte) {
	r := c.Irecv(buf, 0, 0) // want: may leak
	ignore(r)
}

// ---- clean shapes the analyzer must accept ----

func okAllPaths(c *Comm, buf []byte, flag bool) {
	r := c.Irecv(buf, 0, 0)
	if flag {
		r.Wait()
	} else {
		r.Free()
	}
}

func okDefer(c *Comm, buf []byte) {
	r := c.Isend(buf, 1, 0)
	defer r.Wait()
	if len(buf) == 0 {
		return
	}
}

func okChained(c *Comm, buf []byte) {
	c.Isend(buf, 1, 0).Wait()
}

func okTestLoop(c *Comm, buf []byte) {
	r := c.Irecv(buf, 0, 0)
	for !r.Test() {
	}
}

func okEscapesReturn(c *Comm, bufs [][]byte) []*Request {
	var rs []*Request
	for _, b := range bufs {
		rs = append(rs, c.Isend(b, 1, 0))
	}
	return rs
}

func complete(r *Request) { r.Wait() }

func okViaHelper(c *Comm, buf []byte) {
	complete(c.Isend(buf, 1, 0))
}

func okClosureCompletes(c *Comm, buf []byte) func() {
	r := c.Irecv(buf, 0, 0)
	return func() { r.Wait() }
}

func okDDFHandoff(c *Comm, buf []byte, await func(*int)) {
	r := c.Irecv(buf, 0, 0)
	await(r.DDF())
}
