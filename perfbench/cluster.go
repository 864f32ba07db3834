package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/trace"
)

// Every workload runs this job shape: two ranks in one process, one
// computation worker per rank plus each rank's communication worker.
const (
	ranks   = 2
	workers = 1
)

// Transports a workload's ranks talk over.
const (
	netsimTransport = "netsim" // in-process mpi.World over a netsim loopback network
	tcpTransport    = "tcp"    // mpi.Distributed mesh over one loopback TCP connection pair
)

// comms is one two-rank MPI job without HCMPI nodes on top: the ladder's
// mpi rung drives it directly.
type comms struct {
	ranks   []*mpi.Comm
	world   *mpi.World       // netsim transport only
	closers []io.Closer      // tcp transport only
	regs    []*trace.Metrics // per-rank transport counters (request and buffer pools, TCP)
}

// dial brings up both ranks' communicators over transport.
func dial(transport string) (*comms, error) {
	switch transport {
	case netsimTransport:
		w := mpi.NewWorld(ranks)
		c := &comms{world: w, regs: []*trace.Metrics{w.Metrics()}}
		for r := 0; r < ranks; r++ {
			c.ranks = append(c.ranks, w.Comm(r))
		}
		return c, nil
	case tcpTransport:
		return dialTCP()
	}
	return nil, fmt.Errorf("unknown transport %q", transport)
}

// Mesh bring-up needs every rank's address before any rank listens, so
// ports are picked by binding port 0 and releasing them. Another socket
// can take a released port in between, which makes that rank's listen
// fail; bring-up then starts over on fresh ports. The short dial
// timeout bounds how long the surviving rank waits for its peer.
const (
	meshAttempts    = 3
	meshDialTimeout = 2 * time.Second
)

// dialTCP builds a loopback mesh.
func dialTCP() (*comms, error) {
	var err error
	for attempt := 1; attempt <= meshAttempts; attempt++ {
		var c *comms
		if c, err = dialTCPOnce(); err == nil {
			return c, nil
		}
		fmt.Fprintf(os.Stderr, "perfbench: tcp mesh bring-up attempt %d: %v\n", attempt, err)
	}
	return nil, err
}

func dialTCPOnce() (*comms, error) {
	// Hold every picked port until all are picked, so no two ranks get
	// the same one.
	addrs := make([]string, ranks)
	lns := make([]net.Listener, 0, ranks)
	for r := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, fmt.Errorf("pick a loopback port: %w", err)
		}
		lns = append(lns, ln)
		addrs[r] = ln.Addr().String()
	}
	closeAll(lns)
	c := &comms{
		ranks:   make([]*mpi.Comm, ranks),
		closers: make([]io.Closer, ranks),
		regs:    make([]*trace.Metrics, ranks),
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		c.regs[r] = trace.NewMetrics()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c.ranks[r], c.closers[r], errs[r] = mpi.Distributed(r, addrs,
				mpi.WithMeshMetrics(c.regs[r]), mpi.WithDialTimeout(meshDialTimeout))
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		c.close()
		return nil, fmt.Errorf("tcp mesh bring-up: %w", err)
	}
	return c, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// close tears the transport down. Call after the ranks' last operation.
func (c *comms) close() {
	if c.world != nil {
		c.world.Close()
	}
	for _, cl := range c.closers {
		if cl != nil {
			cl.Close()
		}
	}
}

// cluster is comms plus one HCMPI node per rank.
type cluster struct {
	*comms
	nodes []*hcmpi.Node
}

// startCluster brings up the transport and both HCMPI nodes.
func startCluster(transport string) (*cluster, error) {
	cs, err := dial(transport)
	if err != nil {
		return nil, err
	}
	c := &cluster{comms: cs}
	for _, comm := range cs.ranks {
		c.nodes = append(c.nodes, hcmpi.NewNode(comm, hcmpi.Config{Workers: workers}))
	}
	return c, nil
}

// run executes body as every rank's main task, concurrently, and
// returns once all of them have completed.
func (c *cluster) run(body func(rank int, ctx *hc.Ctx)) {
	var wg sync.WaitGroup
	for r, n := range c.nodes {
		wg.Add(1)
		go func(r int, n *hcmpi.Node) {
			defer wg.Done()
			n.Main(func(ctx *hc.Ctx) { body(r, ctx) })
		}(r, n)
	}
	wg.Wait()
}

// counters sums the public counters of every layer in the cluster:
// the nodes' registries (hc, hcmpi, distsched), the transport's
// registries (mpi request pool, bufpool, tcp) and the netsim network.
func (c *cluster) counters() tally {
	t := tally{}
	for _, n := range c.nodes {
		t.addMetrics(n.Metrics())
	}
	for _, m := range c.regs {
		t.addMetrics(m)
	}
	if c.world != nil {
		st := c.world.Net().Stats()
		t["netsim_messages"] += st.Messages
		t["netsim_bytes"] += st.Bytes
	}
	return t
}

// close runs every node's Close (a barrier across ranks) concurrently,
// then tears the transport down.
func (c *cluster) close() {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *hcmpi.Node) {
			defer wg.Done()
			n.Close()
		}(n)
	}
	wg.Wait()
	c.comms.close()
}

// tally is a set of named counter totals, summed over ranks and jobs.
// Names ending in _hwm are high-water marks and keep their maximum.
type tally map[string]int64

func (t tally) addMetrics(m *trace.Metrics) {
	for _, mv := range m.Snapshot() {
		t.add(mv.Name, mv.Value)
	}
}

func (t tally) add(name string, v int64) {
	if strings.HasSuffix(name, "_hwm") {
		t[name] = max(t[name], v)
		return
	}
	t[name] += v
}

func (t tally) merge(o tally) {
	for k, v := range o {
		t.add(k, v)
	}
}
