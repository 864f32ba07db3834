package mpi

// unexpectedQueue holds arrived messages that no posted receive matched,
// binned by tag. Each bin is a FIFO with a head index, so taking the
// oldest message on a tag costs O(1) however deep other tags' backlogs
// run (a DDDF home can hold thousands of registrations while the data
// messages the wavefront waits on arrive behind them). Every message is
// stamped with a per-queue arrival number, so an AnyTag receive still
// takes the oldest user-tag message across bins.
//
// A bin that empties stays in the map, idle, so a tag in steady use
// costs one map lookup per arrival and per match, with no inserts or
// deletes. Once more than maxIdleBins bins (and half the map) are idle,
// a sweep moves them to a free list that keeps their backing arrays:
// the fresh tag each collective uses (collTag) then allocates nothing
// once warm, and idle bins never outnumber the busy ones by much.
//
// The zero value is an empty queue. All methods run under Comm.mu.
type unexpectedQueue struct {
	bins  map[int]*tagBin
	idle  int // bins in the map with nothing queued
	free  [maxIdleBins]*tagBin
	nfree int
	n     int    // messages queued across all bins
	hwm   int    // the largest n so far
	seq   uint64 // arrival counter, stamped into inMsg.seq
}

// tagBin is one tag's FIFO: msgs[head:] are queued, oldest first.
type tagBin struct {
	msgs []inMsg
	head int
}

func (b *tagBin) empty() bool { return b.head == len(b.msgs) }

const (
	// maxIdleBins is how many empty bins the map keeps before a sweep,
	// and the size of the free list.
	maxIdleBins = 8
	// maxKeptBinCap is the largest backing array an emptied bin keeps;
	// a bin that drained a larger backlog gives its array to the GC, so
	// one burst does not pin its peak memory for the comm's lifetime.
	maxKeptBinCap = 1024
)

// push queues m behind every earlier arrival and reports whether the
// queue is now deeper than it has ever been.
func (q *unexpectedQueue) push(m inMsg) (newHigh bool) {
	q.seq++
	m.seq = q.seq
	b := q.bins[m.tag]
	switch {
	case b == nil:
		b = q.newBin()
		if q.bins == nil {
			q.bins = make(map[int]*tagBin)
		}
		q.bins[m.tag] = b
	case b.empty():
		q.idle--
	}
	if len(b.msgs) == cap(b.msgs) && b.head > 0 && b.head >= len(b.msgs)/2 {
		// Compact instead of growing: at least half the array is
		// already consumed.
		n := copy(b.msgs, b.msgs[b.head:])
		clear(b.msgs[n:])
		b.msgs = b.msgs[:n]
		b.head = 0
	}
	b.msgs = append(b.msgs, m)
	q.n++
	if q.n > q.hwm {
		q.hwm = q.n
		return true
	}
	return false
}

// find locates the oldest queued message matching (src, tag), with the
// same rules as match: AnyTag covers user tags only, reserved and
// collective tags match exactly. i is -1 when nothing matches.
func (q *unexpectedQueue) find(src, tag int) (b *tagBin, i int) {
	if q.n == 0 {
		return nil, -1
	}
	if tag != AnyTag {
		b = q.bins[tag]
		if b == nil {
			return nil, -1
		}
		return b, b.index(src)
	}
	i = -1
	for t, cand := range q.bins {
		if t < 0 || t >= maxUserTag {
			continue
		}
		if j := cand.index(src); j >= 0 && (i < 0 || cand.msgs[j].seq < b.msgs[i].seq) {
			b, i = cand, j
		}
	}
	return b, i
}

// index returns the position of the bin's oldest message from src
// (any message for AnySource), or -1.
func (b *tagBin) index(src int) int {
	if src == AnySource {
		if b.empty() {
			return -1
		}
		return b.head
	}
	for i := b.head; i < len(b.msgs); i++ {
		if b.msgs[i].src == src {
			return i
		}
	}
	return -1
}

// peek returns the oldest message matching (src, tag) without removing
// it, or nil.
func (q *unexpectedQueue) peek(src, tag int) *inMsg {
	b, i := q.find(src, tag)
	if i < 0 {
		return nil
	}
	return &b.msgs[i]
}

// take removes and returns the oldest message matching (src, tag).
func (q *unexpectedQueue) take(src, tag int) (inMsg, bool) {
	b, i := q.find(src, tag)
	if i < 0 {
		return inMsg{}, false
	}
	m := b.msgs[i]
	// Close the gap by shifting the older messages (other sources) up
	// one slot; for the head this copies nothing.
	copy(b.msgs[b.head+1:i+1], b.msgs[b.head:i])
	b.msgs[b.head] = inMsg{}
	b.head++
	q.n--
	if b.empty() {
		b.head = 0
		b.msgs = b.msgs[:0]
		if cap(b.msgs) > maxKeptBinCap {
			b.msgs = nil
		}
		q.idle++
		if q.idle > maxIdleBins && q.idle > len(q.bins)/2 {
			q.sweep()
		}
	}
	return m, true
}

// sweep moves every idle bin from the map to the free list; bins past
// its capacity go to the GC.
func (q *unexpectedQueue) sweep() {
	for t, b := range q.bins {
		if b.empty() {
			delete(q.bins, t)
			if q.nfree < maxIdleBins {
				q.free[q.nfree] = b
				q.nfree++
			}
		}
	}
	q.idle = 0
}

func (q *unexpectedQueue) newBin() *tagBin {
	if q.nfree == 0 {
		return &tagBin{}
	}
	q.nfree--
	b := q.free[q.nfree]
	q.free[q.nfree] = nil
	return b
}
