// Package tagspace exercises the tag-space analyzer against the
// module's reserved-tag registry: constants and call-site tags inside
// a foreign subsystem's block, and system tags that can never match
// because only one side of the exchange exists.
package tagspace

type comm struct{}

func (c *comm) IsendReserved(buf []byte, dest, tag int)    {}
func (c *comm) SendDetached(buf []byte, dest, tag int)     {}
func (c *comm) IrecvReserved(buf []byte, src, tag int)     {}
func (c *comm) Listen(tag int, fn func(src int, b []byte)) {}

// tagLocal collides with the distributed scheduler's reserved block.
const tagLocal = -502 // want: constant in a foreign reserved block

// tagPrivate is far from every reserved block: fine to declare, but
// wire uses it one-sidedly below.
const tagPrivate = -888

func wire(c *comm) {
	c.IsendReserved(nil, 1, -203)       // want: tag in the dddf block
	c.Listen(-401, nil)                 // want: tag in the rma block
	c.IsendReserved(nil, 2, -777)       // want: sent but never received
	c.IrecvReserved(nil, 3, tagPrivate) // want: received but never sent
	c.IsendReserved(nil, 4, -900)       // ok: the pair below matches
	c.IrecvReserved(nil, 4, -900)
	c.IsendReserved(nil, 5, 7)   // ok: user tag space
	c.SendDetached(nil, 6, -202) // want: tag in the dddf block
	c.SendDetached(nil, 7, -901) // ok: the pair below matches
	c.IrecvReserved(nil, 7, -901)
}
