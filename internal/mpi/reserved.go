package mpi

import "fmt"

// Reserved-tag operations for runtime protocols (HCMPI's communication
// worker, DDDF registration/data transfer). Reserved tags are negative,
// disjoint from both user tags ([0, maxUserTag)) and collective tags
// (>= maxUserTag); AnyTag wildcards never match them.

func checkReservedTag(tag int) {
	if tag >= 0 {
		panic(fmt.Sprintf("mpi: reserved tag %d must be negative", tag))
	}
}

// IsendReserved starts a non-blocking send on a reserved (negative) tag.
func (c *Comm) IsendReserved(buf []byte, dest, tag int) *Request {
	checkReservedTag(tag)
	return c.isend(buf, dest, tag)
}

// IrecvReserved posts a receive on a reserved tag that adopts the full
// payload regardless of size; read it with Request.Payload after
// completion.
func (c *Comm) IrecvReserved(src, tag int) *Request {
	checkReservedTag(tag)
	return c.irecv(nil, src, tag, true)
}

// IprobeReserved is Iprobe for reserved tags.
func (c *Comm) IprobeReserved(src, tag int) (*Status, bool) {
	checkReservedTag(tag)
	return c.iprobe(src, tag)
}
