// Command perfbench is the repository's benchmark: it runs the real
// runtime (hc, distsched, dddf, hcmpi, mpi over netsim or TCP) on one
// named workload, checks every output against ground truth computed
// outside the timed regions, and prints every metric by name and unit.
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// they are the per-layer ones, from a traced run that also times the
// ladder. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload uts --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh compare old.txt new.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"hcmpi/internal/hc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// job is one unit of a workload's work on a fresh cluster.
type job interface {
	// body is every rank's main task.
	body(rank int, ctx *hc.Ctx)
	// check verifies the job's outputs against ground truth.
	check(o *outcome)
	// observe adds the job's latency samples and the counters not on
	// the cluster's registries.
	observe(p *probes, t tally)
}

// workload is one named input set. prepare generates the seed's input
// and computes its ground truth (off by one everywhere when corrupt,
// which tests the checks); the returned factory sets a job up on a
// fresh cluster.
type workload struct {
	name      string
	transport string
	unit      string // what a unit of work does: tree nodes, matrix cells or rounds
	// roundsPerJob is how many units of work a job holds, and so what
	// per-layer counts are normalized by: comm rounds on comm-*, the job
	// itself on uts and sw.
	roundsPerJob int
	// Layers whose per-layer latencies come from the workload's own jobs
	// rather than from that layer's ladder rung.
	ownsDistsched, ownsDDDF, ownsHCMPI bool
	prepare                            func(seed int64, corrupt bool) func(c *cluster, id int64, tr *recorder) job
}

var workloads = []workload{
	{
		name:          "uts",
		transport:     netsimTransport,
		unit:          "tree nodes",
		roundsPerJob:  1,
		ownsDistsched: true,
		prepare: func(seed int64, corrupt bool) func(*cluster, int64, *recorder) job {
			f := newUTSForest(seed, utsForestNodes)
			if corrupt {
				f.expect++
			}
			return func(c *cluster, id int64, tr *recorder) job { return newUTSJob(c, f, id, tr) }
		},
	},
	{
		name:         "sw",
		transport:    netsimTransport,
		unit:         "matrix cells",
		roundsPerJob: 1,
		ownsDDDF:     true,
		prepare: func(seed int64, corrupt bool) func(*cluster, int64, *recorder) job {
			in := newSWInput(seed)
			if corrupt {
				in.expect++
			}
			return func(c *cluster, id int64, tr *recorder) job { return newSWJob(c, in, id, tr) }
		},
	},
	{
		name:         "comm-netsim",
		transport:    netsimTransport,
		unit:         "rounds",
		roundsPerJob: commRounds,
		ownsHCMPI:    true,
		prepare:      commPrepare,
	},
	{
		name:         "comm-tcp",
		transport:    tcpTransport,
		unit:         "rounds",
		roundsPerJob: commRounds,
		ownsHCMPI:    true,
		prepare:      commPrepare,
	},
}

func commPrepare(seed int64, corrupt bool) func(*cluster, int64, *recorder) job {
	return func(c *cluster, id int64, tr *recorder) job { return newCommJob(c, uint64(seed), id, tr, corrupt) }
}

// unitName names the workload's unit of work.
func (w workload) unitName() string {
	if w.roundsPerJob > 1 {
		return "round"
	}
	return "job"
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome counts checked operations. A job's operations are its
// traversal (uts), its alignment (sw) or a round's three exchanges
// (comm-*); ladder rungs add their own checks.
type outcome struct {
	attempted, failed int64
	work              float64 // work items completed: nodes, cells or rounds
	notes             []string
}

func (o *outcome) fail(msg string) {
	o.failed++
	o.notes = append(o.notes, msg)
}

// probes gathers the latency samples the per-layer metrics come from.
type probes struct {
	round                              samples // comm-*: a whole round, rank 0
	rtt8, rtt4k, allreduce, send, recv samples // hcmpi, rank 0
	mpiRTT8, mpiRTT4k, mpiAllreduce    samples
	netsimRTT                          samples
	awaitRemote, awaitLocal, put       samples // dddf
	firstMigration, termTail           samples // distsched
	kernel                             time.Duration
}

// phase is what a sequence of jobs measured.
type phase struct {
	jobs       int
	setup      samples // µs per set-up
	wall       samples // µs per job
	cpu        samples // process CPU µs per unit of work, one sample per job
	memPeak    samples // bytes, per job
	work       float64
	counters   tally
	probes     probes
	allocs     uint64
	gcCycles   uint64
	gcPause    time.Duration
	tracedTime time.Duration
}

// units returns the phase's unit-of-work times (µs) and the work one
// unit does: jobs on uts and sw, rounds on comm-*.
func (ph *phase) units() (samples, float64) {
	if len(ph.probes.round) > 0 {
		return ph.probes.round, 1
	}
	return ph.wall, ph.work / float64(ph.jobs)
}

// bench runs one workload's jobs.
type bench struct {
	w      workload
	seed   int64
	newJob func(c *cluster, id int64, tr *recorder) job
	out    outcome
	dog    *watchdog
	nextID int64
}

// runJob sets up a fresh cluster, runs one job on it, verifies it and
// adds its timings to ph (nil for the discarded warm-up).
func (b *bench) runJob(ph *phase, tr *recorder) error {
	id := b.nextID
	b.nextID++
	b.dog.arm(fmt.Sprintf("job %d", id))
	// Every job starts from a collected heap, so jobs do not pay for
	// each other's garbage and the heap peak is the job's own.
	runtime.GC()
	base := heapObjects()
	t0 := time.Now()
	c, err := startCluster(b.w.transport)
	if err != nil {
		return err
	}
	j := b.newJob(c, id, tr)
	setup := time.Since(t0)

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
		js := tr.begin("job", nil, -1, id, tr.now())
		tr.job = &js
	}
	mem := startHeapSampler()
	cpu0 := cpuTime()
	t1 := time.Now()
	c.run(j.body)
	wall := time.Since(t1)
	cpu := cpuTime() - cpu0
	peak := mem.stop()
	if tr != nil {
		tr.end(*tr.job, tr.now())
		tr.job = nil
		runtime.ReadMemStats(&after)
	}
	counters := c.counters()
	c.close()
	work := b.out.work
	j.check(&b.out)
	if ph == nil {
		return nil
	}
	ph.work += b.out.work - work
	ph.jobs++
	ph.setup.add(setup)
	ph.wall.add(wall)
	ph.cpu.add(cpu / time.Duration(b.w.roundsPerJob))
	ph.memPeak = append(ph.memPeak, float64(peak-min(peak, base)))
	if tr != nil {
		ph.counters.merge(counters)
		j.observe(&ph.probes, ph.counters)
		ph.allocs += after.Mallocs - before.Mallocs
		ph.gcCycles += uint64(after.NumGC - before.NumGC)
		ph.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		ph.tracedTime += wall
	} else {
		j.observe(&ph.probes, tally{})
	}
	return nil
}

// setupOnly times set-ups that run no job, so setup_s rests on more
// samples than a run has jobs.
const setupOnly = 24

// setUp brings up a cluster and a job on it, times that, and tears the
// cluster down again without running the job.
func (b *bench) setUp(ph *phase) error {
	runtime.GC()
	t0 := time.Now()
	c, err := startCluster(b.w.transport)
	if err != nil {
		return err
	}
	b.newJob(c, -1, nil)
	ph.setup.add(time.Since(t0))
	c.close()
	return nil
}

// measure times setupOnly extra set-ups, then runs jobs until d has
// elapsed (at least one job).
func (b *bench) measure(d time.Duration, tr *recorder) (*phase, error) {
	ph := &phase{counters: tally{}}
	b.dog.arm("set-ups")
	for i := 0; i < setupOnly; i++ {
		if err := b.setUp(ph); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for ph.jobs == 0 || time.Since(start) < d {
		if err := b.runJob(ph, tr); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// cpuTime returns the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the Go heap's live-object bytes every
// millisecond and keeps the peak.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapObjects returns the bytes of live and not yet swept heap objects.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// watchdog turns a hang into a reported failure: if the armed phase
// has not finished by its deadline, it prints a failed result naming
// the workload and exits.
type watchdog struct {
	workload string
	stdout   io.Writer
	stderr   io.Writer
	hardStop time.Time // the whole run must end by then

	mu    sync.Mutex
	phase string
	timer *time.Timer
}

const (
	jobLimit = 60 * time.Second  // longest a single job or rung may take
	runLimit = 170 * time.Second // longest a whole run may take
)

func newWatchdog(workload string, stdout, stderr io.Writer) *watchdog {
	d := &watchdog{workload: workload, stdout: stdout, stderr: stderr, hardStop: time.Now().Add(runLimit)}
	d.timer = time.AfterFunc(runLimit, d.fire)
	d.phase = "ground truth"
	return d
}

// arm starts a new phase with a fresh deadline.
func (d *watchdog) arm(phase string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.phase = phase
	d.timer.Reset(min(jobLimit, time.Until(d.hardStop)))
}

func (d *watchdog) stop() { d.timer.Stop() }

func (d *watchdog) fire() {
	d.mu.Lock()
	phase := d.phase
	d.mu.Unlock()
	fmt.Fprintf(d.stderr, "perfbench: workload %s hung: %s did not finish in time\n", d.workload, phase)
	// The hung operation is the one failure this result can vouch for;
	// an empty result always encodes.
	_ = printResult(d.stdout, result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
	os.Exit(3)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints r as one JSON line. It fails, printing nothing,
// when a metric is not a finite number.
func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: uts, sw, comm-netsim or comm-tcp")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measured time")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	corrupt := fs.Bool("corrupt-expected", false, "check against deliberately wrong ground truth (tests the checks)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (uts, sw, comm-netsim, comm-tcp), --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	b := &bench{w: w, seed: *seed}
	b.dog = newWatchdog(w.name, stdout, stderr)
	defer b.dog.stop()
	truthStart := time.Now()
	b.newJob = w.prepare(*seed, *corrupt)
	truth := time.Since(truthStart)
	fmt.Fprintf(stdout, "perfbench: workload %s (%s transport), seed %d, ground truth in %.2f s, untimed\n",
		w.name, w.transport, *seed, truth.Seconds())

	// One discarded warm-up job: the first job in a process is the
	// slowest (code paths and pools still cold).
	if err := b.runJob(nil, nil); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: warm-up: %v\n", w.name, err)
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	var ms map[string]metricValue
	var counts map[string]int
	if *traced == 0 {
		ph, err := b.measure(d, nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		ms = endToEnd(ph)
		counts = map[string]int{"setups": len(ph.setup), "jobs": ph.jobs, "wall_samples": len(ph.wall) + len(ph.probes.round)}
		reportEndToEnd(stdout, w, ph, ms)
	} else {
		var err error
		ms, counts, err = b.tracedRun(d, stdout, *outDir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
	}
	b.dog.stop()

	o := &b.out
	fmt.Fprintf(stdout, "fail_frac %.6g (%d failed of %d operations)\n", frac(o.failed, o.attempted), o.failed, o.attempted)
	for i, n := range o.notes {
		if i == 8 {
			fmt.Fprintf(stderr, "perfbench: ... and %d more failures\n", len(o.notes)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, n)
	}
	m := collectMeta(w.name, *seed, *seconds, *traced, counts)
	mb, err := json.Marshal(map[string]any{"meta": m})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(stdout, string(mb))
	ok = o.failed == 0 && o.attempted > 0
	if err := printResult(stdout, result{Correct: ok, Attempted: o.attempted, Failed: o.failed, Metrics: ms}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: no result: %v\n", w.name, err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metricDef describes one reported metric.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEndDefs are the metrics a user of the runtime sees, reported on
// every workload by untraced runs and gated by their bounds.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.2},
}

// endToEnd computes the end-to-end metrics. A unit of work is a job on
// uts and sw and a round on comm-*. cpu_s is the median over jobs of
// the process CPU time (user + system, every thread) per unit: the
// machine time the work costs. Wall-clock time per unit is reported
// too but not gated: on a shared host it follows the CPU time other
// tenants take, while CPU time does not.
func endToEnd(ph *phase) map[string]metricValue {
	return withUnits(endToEndDefs, map[string]float64{
		"setup_s":     ph.setup.median() / 1e6,
		"cpu_s":       ph.cpu.median() / 1e6,
		"mem_peak_mb": ph.memPeak.median() / (1 << 20),
	})
}

// wallPerUnit returns the median wall time of a unit of work (s) and
// the work it does per second at that median.
func (ph *phase) wallPerUnit() (wall, workPerS float64) {
	units, perUnit := ph.units()
	wall = units.median() / 1e6
	return wall, perUnit / wall
}

func withUnits(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return out
}

func reportEndToEnd(w io.Writer, wl workload, ph *phase, ms map[string]metricValue) {
	units, _ := ph.units()
	fmt.Fprintf(w, "%-12s %14.6g %-3s median of %d set-ups\n", "setup_s", ms["setup_s"].Value, "s", len(ph.setup))
	fmt.Fprintf(w, "%-12s %14.6g %-3s median over %d jobs of process CPU time per %s\n", "cpu_s", ms["cpu_s"].Value, "s", ph.jobs, wl.unitName())
	fmt.Fprintf(w, "%-12s %14.6g %-3s median over jobs of the heap peak over the collected heap before set-up\n", "mem_peak_mb", ms["mem_peak_mb"].Value, "MB")
	wall, rate := ph.wallPerUnit()
	fmt.Fprintf(w, "diagnostics, not gated: wall %.6g s per %s (median of %d), %.6g %s per second\n", wall, wl.unitName(), len(units), rate, wl.unit)
	p := &ph.probes
	for _, l := range []struct {
		name string
		s    samples
	}{{"job", ph.wall}, {"round", p.round}, {"rtt_8b", p.rtt8}, {"rtt_4k", p.rtt4k}, {"allreduce", p.allreduce}} {
		if len(l.s) > 0 {
			fmt.Fprintf(w, "  %-10s p50 %.6g us, p90 %.6g us, p99 %.6g us over %d samples\n",
				l.name, l.s.median(), l.s.quantile(0.9), l.s.quantile(0.99), len(l.s))
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
