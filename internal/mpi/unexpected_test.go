package mpi

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refMatcher is the reference for receive matching: the linear,
// arrival-order unexpected queue and post-order posted queue that the
// binned queue replaced, with its own copy of the matching rule.
type refMatcher struct {
	unexpected []refMsg
	posted     []refRecv
}

type refMsg struct{ src, tag, id int }

type refRecv struct{ src, tag, id int }

func refMatch(wantSrc, wantTag, src, tag int) bool {
	if wantSrc != AnySource && wantSrc != src {
		return false
	}
	if wantTag == AnyTag {
		return tag >= 0 && tag < maxUserTag
	}
	return wantTag == tag
}

// arrive delivers m: the oldest posted receive that matches takes it
// (its id is returned), else m queues.
func (r *refMatcher) arrive(m refMsg) (recvID int, matched bool) {
	for i, p := range r.posted {
		if refMatch(p.src, p.tag, m.src, m.tag) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return p.id, true
		}
	}
	r.unexpected = append(r.unexpected, m)
	return 0, false
}

// probe returns the oldest queued message matching (src, tag).
func (r *refMatcher) probe(src, tag int) (int, bool) {
	for i, m := range r.unexpected {
		if refMatch(src, tag, m.src, m.tag) {
			return i, true
		}
	}
	return 0, false
}

// recv takes the oldest matching queued message, or posts the receive.
func (r *refMatcher) recv(p refRecv) (refMsg, bool) {
	if i, ok := r.probe(p.src, p.tag); ok {
		m := r.unexpected[i]
		r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
		return m, true
	}
	r.posted = append(r.posted, p)
	return refMsg{}, false
}

func (r *refMatcher) cancel(id int) {
	for i, p := range r.posted {
		if p.id == id {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return
		}
	}
}

// TestUnexpectedMatchingModel drives a comm's binned unexpected queue and
// refMatcher through the same seeded mixes of arrivals, receives
// (specific, AnySource, AnyTag), probes (Iprobe, Probe, IprobeReserved),
// cancels and periodic drains, over user, reserved and churning
// collective tags, and asserts that both pick the same messages with the
// same envelopes.
func TestUnexpectedMatchingModel(t *testing.T) {
	seeds, steps := 16, 3000
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runMatchingModel(t, int64(seed), steps) })
	}
}

func runMatchingModel(t *testing.T, seed int64, steps int) {
	const ranks = 3
	w := NewWorld(ranks)
	defer w.Close()
	c := w.Comm(0)
	rng := rand.New(rand.NewSource(seed))
	var ref refMatcher

	userTags := []int{0, 1, 2, 7, maxUserTag - 1}
	reservedTags := []int{TagDDDFRegister, TagDDDFData, TagDistStealReq}
	coll := 0 // current collective sequence; advancing it churns tags
	pickTag := func() int {
		switch k := rng.Intn(10); {
		case k < 5:
			return userTags[rng.Intn(len(userTags))]
		case k < 8:
			return reservedTags[rng.Intn(len(reservedTags))]
		default:
			if rng.Intn(4) == 0 {
				coll++
			}
			return collTag(coll-rng.Intn(2), rng.Intn(3))
		}
	}
	pickSrc := func() int {
		if rng.Intn(3) == 0 {
			return AnySource
		}
		return rng.Intn(ranks)
	}

	nextID := 1
	type posted struct {
		id int
		r  *Request
	}
	var pending []posted // posted receives, post order
	takePending := func(id int) *Request {
		for i, p := range pending {
			if p.id == id {
				pending = append(pending[:i], pending[i+1:]...)
				return p.r
			}
		}
		t.Fatalf("seed %d: reference matched unknown receive %d", seed, id)
		return nil
	}
	checkFilled := func(step int, r *Request, m refMsg) {
		t.Helper()
		st, ok := r.TestStatus()
		if !ok {
			t.Fatalf("seed %d step %d: receive for message %d not complete", seed, step, m.id)
		}
		got := r.payload
		if !r.takeAll {
			got = r.buf[:st.Bytes]
		}
		if st.Source != m.src || st.Tag != m.tag || st.Bytes != 8 || st.Err != nil ||
			len(got) != 8 || int(binary.LittleEndian.Uint64(got)) != m.id {
			t.Fatalf("seed %d step %d: got %+v payload %v, want message %+v", seed, step, st, got, m)
		}
		r.Free()
	}
	checkProbe := func(step int, st *Status, ok bool, src, tag int) {
		t.Helper()
		i, want := ref.probe(src, tag)
		if ok != want {
			t.Fatalf("seed %d step %d: probe(%d, %d) found=%v, reference %v", seed, step, src, tag, ok, want)
		}
		if ok {
			m := ref.unexpected[i]
			if st.Source != m.src || st.Tag != m.tag || st.Bytes != 8 {
				t.Fatalf("seed %d step %d: probe(%d, %d) = %+v, reference %+v", seed, step, src, tag, st, m)
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(12); {
		case step%500 == 499: // drain: every bin empties, idle bins are swept
			for len(ref.unexpected) > 0 {
				p := refRecv{src: AnySource, tag: ref.unexpected[0].tag, id: nextID}
				nextID++
				r := c.irecv(nil, p.src, p.tag, true)
				m, _ := ref.recv(p)
				checkFilled(step, r, m)
			}
		case op < 5: // arrival
			m := refMsg{src: rng.Intn(ranks), tag: pickTag(), id: nextID}
			nextID++
			payload := make([]byte, 8)
			binary.LittleEndian.PutUint64(payload, uint64(m.id))
			c.deliver(inMsg{src: m.src, tag: m.tag, payload: payload})
			if id, ok := ref.arrive(m); ok {
				checkFilled(step, takePending(id), m)
			}
		case op < 9: // receive
			p := refRecv{src: pickSrc(), id: nextID}
			nextID++
			var r *Request
			if rng.Intn(3) == 0 {
				p.tag = AnyTag
			} else {
				p.tag = pickTag()
			}
			if rng.Intn(2) == 0 {
				r = c.irecv(nil, p.src, p.tag, true)
			} else {
				r = c.irecv(make([]byte, 8), p.src, p.tag, false)
			}
			if m, ok := ref.recv(p); ok {
				checkFilled(step, r, m)
			} else {
				if r.isDone() {
					t.Fatalf("seed %d step %d: receive(%d, %d) matched, reference queue has no match", seed, step, p.src, p.tag)
				}
				pending = append(pending, posted{p.id, r})
			}
		case op < 10: // Iprobe
			src, tag := pickSrc(), pickTag()
			if rng.Intn(2) == 0 {
				tag = AnyTag
			}
			st, ok := c.Iprobe(src, tag)
			checkProbe(step, st, ok, src, tag)
		case op < 11: // Probe when it cannot block, else IprobeReserved
			src, tag := pickSrc(), pickTag()
			if _, ok := ref.probe(src, tag); ok {
				checkProbe(step, c.Probe(src, tag), true, src, tag)
				break
			}
			tag = reservedTags[rng.Intn(len(reservedTags))]
			st, ok := c.IprobeReserved(src, tag)
			checkProbe(step, st, ok, src, tag)
		default: // cancel a posted receive
			if len(pending) == 0 {
				break
			}
			p := pending[rng.Intn(len(pending))]
			if !p.r.Cancel() {
				t.Fatalf("seed %d step %d: Cancel of posted receive %d failed", seed, step, p.id)
			}
			ref.cancel(p.id)
			takePending(p.id).Free()
		}
		if got, want := c.PendingUnexpected(), len(ref.unexpected); got != want {
			t.Fatalf("seed %d step %d: PendingUnexpected %d, reference %d", seed, step, got, want)
		}
	}
	for _, p := range pending {
		if !p.r.Cancel() {
			t.Fatalf("seed %d: posted receive %d completed without a reference match", seed, p.id)
		}
	}
}

// TestUnexpectedHWM checks that mpi_unexpected_hwm records the deepest
// backlog: 1000 messages nobody has received yet raise it to at least
// 1000, and draining them does not lower it.
func TestUnexpectedHWM(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	buf := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		c0.Send(buf, 1, i%3)
	}
	hwm := w.Metrics().Counter("mpi_unexpected_hwm")
	if got := hwm.Load(); got < 1000 {
		t.Fatalf("mpi_unexpected_hwm = %d after a 1000-message backlog, want >= 1000", got)
	}
	for i := 0; i < 1000; i++ {
		r := c1.Irecv(buf, 0, AnyTag)
		r.WaitStatus()
		r.Free()
	}
	if n := c1.PendingUnexpected(); n != 0 {
		t.Fatalf("%d messages left after draining", n)
	}
	if got := hwm.Load(); got < 1000 {
		t.Fatalf("mpi_unexpected_hwm fell to %d after draining", got)
	}
}

// TestUnexpectedBacklogAllocFree pins matching behind a standing backlog
// at zero allocations: a message on tag B received from behind 1024
// queued on tag A (its bin is recycled each time), and the backlog
// rotated by taking its oldest message and queueing one more (the bin
// compacts in place instead of growing).
func TestUnexpectedBacklogAllocFree(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	src := make([]byte, 8)
	dst := make([]byte, 8)
	for i := 0; i < 1024; i++ {
		c0.Send(src, 1, 1)
	}
	op := func() {
		c0.Send(src, 1, 2)
		r := c1.Irecv(dst, 0, 2)
		r.WaitStatus()
		r.Free()
		r = c1.Irecv(dst, 0, 1)
		r.WaitStatus()
		r.Free()
		c0.Send(src, 1, 1)
	}
	for i := 0; i < 3000; i++ {
		op()
	}
	if avg := testing.AllocsPerRun(500, op); avg != 0 {
		t.Errorf("receive behind a 1024-message backlog allocated %.2f per run, want 0", avg)
	}
	if n := c1.PendingUnexpected(); n != 1024 {
		t.Fatalf("backlog depth %d, want 1024", n)
	}
}
