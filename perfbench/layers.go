package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"
)

// layerDefs are the per-layer metrics of a traced run, reported on every
// workload. Counts marked 1/round are per round: a comm round on
// comm-*, one job on uts and sw. The distsched metrics come from the
// uts jobs on uts and from the distsched ladder rung elsewhere; the
// dddf metrics from the sw jobs on sw and from the dddf rung elsewhere;
// the hcmpi latencies from the comm jobs on comm-* and from the hcmpi
// rung elsewhere. Everything else comes from the workload's own jobs.
var layerDefs = []metricDef{
	{name: "hc.tasks_run", unit: "1/round", better: "lower"},
	{name: "hc.steal_attempts", unit: "1/round", better: "lower"},
	{name: "hc.steal_success_ratio", unit: "ratio", better: "higher"},
	{name: "hc.parks", unit: "1/round", better: "lower"},
	{name: "hc.kernel_busy_frac", unit: "frac", better: "higher"},

	{name: "distsched.steal_reqs", unit: "1/round", better: "lower"},
	{name: "distsched.grant_ratio", unit: "ratio", better: "higher"},
	{name: "distsched.migrated_tasks", unit: "1/round", better: "lower"},
	{name: "distsched.term_rounds", unit: "1/round", better: "lower"},
	{name: "distsched.search_s", unit: "s", better: "lower"},
	{name: "distsched.first_migration_ms", unit: "ms", better: "lower"},
	{name: "distsched.term_tail_ms", unit: "ms", better: "lower"},

	{name: "dddf.remote_fetches", unit: "1/round", better: "lower"},
	{name: "dddf.data_sent", unit: "1/round", better: "lower"},
	{name: "dddf.await_remote_p50_us", unit: "us", better: "lower"},
	{name: "dddf.await_remote_p99_us", unit: "us", better: "lower"},
	{name: "dddf.await_local_p50_us", unit: "us", better: "lower"},
	{name: "dddf.put_p50_us", unit: "us", better: "lower"},

	{name: "hcmpi.rtt_8b_p50_us", unit: "us", better: "lower"},
	{name: "hcmpi.rtt_4k_p50_us", unit: "us", better: "lower"},
	{name: "hcmpi.allreduce_p50_us", unit: "us", better: "lower"},
	{name: "hcmpi.send_p50_us", unit: "us", better: "lower"},
	{name: "hcmpi.recv_p50_us", unit: "us", better: "lower"},
	{name: "hcmpi.polls_per_round", unit: "1/round", better: "lower"},
	{name: "hcmpi.recycle_ratio", unit: "ratio", better: "higher"},
	{name: "hcmpi.retries", unit: "1/round", better: "lower"},
	{name: "hcmpi.failures", unit: "1/round", better: "lower"},

	{name: "mpi.rtt_8b_p50_us", unit: "us", better: "lower"},
	{name: "mpi.rtt_4k_p50_us", unit: "us", better: "lower"},
	{name: "mpi.allreduce_p50_us", unit: "us", better: "lower"},
	{name: "mpi.req_pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "bufpool.hit_ratio", unit: "ratio", better: "higher"},

	{name: "tcp.frames_per_flush", unit: "ratio", better: "higher"},
	{name: "tcp.queue_hwm", unit: "count", better: "lower"},
	{name: "tcp.redials", unit: "1/round", better: "lower"},
	{name: "tcp.bytes_per_round", unit: "B/round", better: "lower"},

	{name: "netsim.rtt_8b_p50_us", unit: "us", better: "lower"},
	{name: "netsim.messages", unit: "1/round", better: "lower"},
	{name: "netsim.bytes", unit: "B/round", better: "lower"},

	{name: "ladder.mpi_over_netsim_8b_us", unit: "us", better: "lower"},
	{name: "ladder.hcmpi_over_mpi_8b_us", unit: "us", better: "lower"},
	{name: "ladder.hcmpi_over_mpi_4k_us", unit: "us", better: "lower"},
	{name: "ladder.dddf_over_hcmpi_us", unit: "us", better: "lower"},
	{name: "ladder.distsched_over_hcmpi_us", unit: "us", better: "lower"},

	{name: "go.allocs_per_round", unit: "1/round", better: "lower"},
	{name: "go.allocs_per_op", unit: "1/op", better: "lower"},
	{name: "go.gc_cycles", unit: "1/round", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms/s", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},

	{name: "e2e.wall_s", unit: "s", better: "lower"},
	{name: "e2e.work_per_s", unit: "1/s", better: "higher"},
}

// The e2e.* entries are the wall-clock figures of the untraced part of
// a traced run: the median time of a unit of work (a job on uts and sw,
// a round on comm-*) and the work per second at that median. They are
// recorded here, ungated, because on a shared host they follow the CPU
// time other tenants take.

// tracedRun measures the workload untraced and traced for two fifths of
// d each, then climbs the ladder, and reports the per-layer metrics.
func (b *bench) tracedRun(d time.Duration, w io.Writer, outDir string) (map[string]metricValue, map[string]int, error) {
	share := d * 2 / 5
	plain, err := b.measure(share, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newRecorder()
	ph, err := b.measure(share, tr)
	if err != nil {
		return nil, nil, err
	}

	// Rungs get their own probes and tallies; only the samples and
	// counters of layers the workload does not drive itself are kept.
	rp := &probes{}
	o := &b.out
	transport := b.w.transport
	b.dog.arm("netsim rung")
	netsimRung(rp, o)
	b.dog.arm("mpi rung")
	if err := mpiRung(transport, rp, o); err != nil {
		return nil, nil, err
	}
	p := &ph.probes
	p.netsimRTT, p.mpiRTT8, p.mpiRTT4k, p.mpiAllreduce = rp.netsimRTT, rp.mpiRTT8, rp.mpiRTT4k, rp.mpiAllreduce
	if !b.w.ownsHCMPI {
		b.dog.arm("hcmpi rung")
		if err := hcmpiRung(transport, b.seed, rp, o); err != nil {
			return nil, nil, err
		}
		p.rtt8, p.rtt4k, p.allreduce, p.send, p.recv = rp.rtt8, rp.rtt4k, rp.allreduce, rp.send, rp.recv
	}
	rounds := float64(ph.jobs * b.w.roundsPerJob)
	distT, distRounds := ph.counters, rounds
	if !b.w.ownsDistsched {
		b.dog.arm("distsched rung")
		distT, distRounds = tally{}, rungJobs
		if err := distschedRung(transport, b.seed, rp, o, distT); err != nil {
			return nil, nil, err
		}
		p.firstMigration, p.termTail = rp.firstMigration, rp.termTail
	}
	dddfT, dddfRounds := ph.counters, rounds
	if !b.w.ownsDDDF {
		b.dog.arm("dddf rung")
		dddfT, dddfRounds = tally{}, 1
		if err := dddfRung(transport, rp, o, dddfT); err != nil {
			return nil, nil, err
		}
		p.awaitRemote, p.awaitLocal, p.put = rp.awaitRemote, rp.awaitLocal, rp.put
	}

	traced, _ := ph.units()
	untraced, _ := plain.units()
	t := ph.counters
	per := func(name string, n float64) float64 { return float64(t[name]) / n }
	v := map[string]float64{
		"hc.tasks_run":           per("hc_tasks_run", rounds),
		"hc.steal_attempts":      per("hc_steal_attempts", rounds),
		"hc.steal_success_ratio": frac(t["hc_steals"], t["hc_steal_attempts"]),
		"hc.parks":               per("hc_parks", rounds),
		"hc.kernel_busy_frac":    p.kernel.Seconds() / (ph.tracedTime.Seconds() * ranks * workers),

		"distsched.steal_reqs":         float64(distT["dist_steal_req_sent"]) / distRounds,
		"distsched.grant_ratio":        frac(distT["dist_steal_grants_in"], distT["dist_steal_req_sent"]),
		"distsched.migrated_tasks":     float64(distT["dist_steal_tasks_migrated"]) / distRounds,
		"distsched.term_rounds":        float64(distT["dist_term_rounds"]) / distRounds,
		"distsched.search_s":           float64(distT["dist_search_ns"]) / 1e9 / distRounds,
		"distsched.first_migration_ms": p.firstMigration.median() / 1e3,
		"distsched.term_tail_ms":       p.termTail.median() / 1e3,

		"dddf.remote_fetches":      float64(dddfT["dddf_registers_sent"]) / dddfRounds,
		"dddf.data_sent":           float64(dddfT["dddf_data_sent"]) / dddfRounds,
		"dddf.await_remote_p50_us": p.awaitRemote.median(),
		"dddf.await_remote_p99_us": p.awaitRemote.quantile(0.99),
		"dddf.await_local_p50_us":  p.awaitLocal.median(),
		"dddf.put_p50_us":          p.put.median(),

		"hcmpi.rtt_8b_p50_us":    p.rtt8.median(),
		"hcmpi.rtt_4k_p50_us":    p.rtt4k.median(),
		"hcmpi.allreduce_p50_us": p.allreduce.median(),
		"hcmpi.send_p50_us":      p.send.median(),
		"hcmpi.recv_p50_us":      p.recv.median(),
		"hcmpi.polls_per_round":  per("comm_polls", rounds),
		"hcmpi.recycle_ratio":    frac(t["comm_recycled"], t["comm_recycled"]+t["comm_allocated"]),
		"hcmpi.retries":          per("comm_retries", rounds),
		"hcmpi.failures":         per("comm_failures", rounds),

		"mpi.rtt_8b_p50_us":      p.mpiRTT8.median(),
		"mpi.rtt_4k_p50_us":      p.mpiRTT4k.median(),
		"mpi.allreduce_p50_us":   p.mpiAllreduce.median(),
		"mpi.req_pool_hit_ratio": frac(t["mpi_req_pool_hit"], t["mpi_req_pool_hit"]+t["mpi_req_pool_miss"]),
		"bufpool.hit_ratio":      frac(t["buf_pool_hit"], t["buf_pool_hit"]+t["buf_pool_miss"]),

		"tcp.frames_per_flush": frac(t["comm_tcp_frames_sent"], t["comm_tcp_flush_batches"]),
		"tcp.queue_hwm":        float64(t["comm_tcp_queue_hwm"]),
		"tcp.redials":          per("comm_tcp_redials", rounds),
		"tcp.bytes_per_round":  per("comm_tcp_bytes_sent", rounds),

		"netsim.rtt_8b_p50_us": p.netsimRTT.median(),
		"netsim.messages":      per("netsim_messages", rounds),
		"netsim.bytes":         per("netsim_bytes", rounds),

		"go.allocs_per_round": float64(ph.allocs) / rounds,
		"go.allocs_per_op":    float64(ph.allocs) / ph.work,
		"go.gc_cycles":        float64(ph.gcCycles) / rounds,
		"go.gc_pause_ms":      ph.gcPause.Seconds() * 1e3 / ph.tracedTime.Seconds(),
		"trace.overhead_frac": traced.median()/untraced.median() - 1,
	}
	v["e2e.wall_s"], v["e2e.work_per_s"] = plain.wallPerUnit()
	h8, h4k := v["hcmpi.rtt_8b_p50_us"], v["hcmpi.rtt_4k_p50_us"]
	m8, m4k := v["mpi.rtt_8b_p50_us"], v["mpi.rtt_4k_p50_us"]
	v["ladder.mpi_over_netsim_8b_us"] = m8 - v["netsim.rtt_8b_p50_us"]
	v["ladder.hcmpi_over_mpi_8b_us"] = h8 - m8
	v["ladder.hcmpi_over_mpi_4k_us"] = h4k - m4k
	// A remote await is one message (put → data at the awaiter), so its
	// rung below is half an hcmpi round trip; a first migration is a
	// steal request and its grant, one round trip.
	v["ladder.dddf_over_hcmpi_us"] = v["dddf.await_remote_p50_us"] - h8/2
	v["ladder.distsched_over_hcmpi_us"] = v["distsched.first_migration_ms"]*1e3 - h8

	counts := map[string]int{
		"untraced_jobs": plain.jobs, "traced_jobs": ph.jobs,
		"hcmpi_rtt_samples": len(p.rtt8), "mpi_rtt_samples": len(p.mpiRTT8),
		"netsim_rtt_samples": len(p.netsimRTT), "dddf_await_remote_samples": len(p.awaitRemote),
		"distsched_migration_samples": len(p.firstMigration),
	}
	reportLayers(w, v, tr, p, counts)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	if err := tr.writeFile(path); err != nil {
		fmt.Fprintf(w, "spans: not written: %v\n", err)
	} else {
		fmt.Fprintf(w, "spans: %s\n", path)
	}
	return withUnits(layerDefs, v), counts, nil
}

func reportLayers(w io.Writer, v map[string]float64, tr *recorder, p *probes, counts map[string]int) {
	fmt.Fprintln(w, "per-layer metrics:")
	for _, d := range layerDefs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, v[d.name], d.unit)
	}
	fmt.Fprintln(w, "ladder (p50; Δ over the rung below):")
	rungs := []struct {
		name     string
		us, base float64
		n        int
	}{
		{"netsim link rtt 8 B", v["netsim.rtt_8b_p50_us"], 0, len(p.netsimRTT)},
		{"mpi rtt 8 B", v["mpi.rtt_8b_p50_us"], v["netsim.rtt_8b_p50_us"], len(p.mpiRTT8)},
		{"hcmpi rtt 8 B", v["hcmpi.rtt_8b_p50_us"], v["mpi.rtt_8b_p50_us"], len(p.rtt8)},
		{"mpi rtt 4 KiB", v["mpi.rtt_4k_p50_us"], 0, len(p.mpiRTT4k)},
		{"hcmpi rtt 4 KiB", v["hcmpi.rtt_4k_p50_us"], v["mpi.rtt_4k_p50_us"], len(p.rtt4k)},
		{"mpi allreduce 8 B", v["mpi.allreduce_p50_us"], 0, len(p.mpiAllreduce)},
		{"hcmpi allreduce 8 B", v["hcmpi.allreduce_p50_us"], v["mpi.allreduce_p50_us"], len(p.allreduce)},
		{"dddf remote await", v["dddf.await_remote_p50_us"], v["hcmpi.rtt_8b_p50_us"] / 2, len(p.awaitRemote)},
		{"distsched first migration", v["distsched.first_migration_ms"] * 1e3, v["hcmpi.rtt_8b_p50_us"], len(p.firstMigration)},
	}
	for _, r := range rungs {
		delta := "-"
		if r.base > 0 {
			delta = fmt.Sprintf("%+.2f us", r.us-r.base)
		}
		fmt.Fprintf(w, "  %-26s %12.2f us  %-14s n=%d\n", r.name, r.us, delta, r.n)
	}
	fmt.Fprintln(w, "self time by span (benchmark-timed calls into each layer):")
	for _, s := range tr.selfTimes() {
		fmt.Fprintf(w, "  %-18s n=%-9d total %10.4f s  self %10.4f s\n", s.name, s.count, s.total.Seconds(), s.self.Seconds())
	}
	var ks []string
	for _, k := range sortedKeys(counts) {
		ks = append(ks, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	fmt.Fprintf(w, "samples: %s\n", strings.Join(ks, " "))
}
