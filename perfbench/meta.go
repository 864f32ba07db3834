package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// meta describes the host and run a result came from. Timing metrics
// are comparable only between results whose host fields agree.
type meta struct {
	Host       string         `json:"host"`
	CPU        string         `json:"cpu"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	Samples    map[string]int `json:"samples"`
}

func collectMeta(workload string, seed int64, seconds, trace int, samples map[string]int) meta {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return meta{
		Host: host, CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit("."), Workload: workload,
		Seed: seed, Seconds: seconds, Trace: trace, Samples: samples,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory under root without
// running git; "unknown" when root is not a git checkout.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// timeUnits are the units of timing metrics, which compare refuses to
// diff across hosts.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "1/s": true, "ms/s": true}

// compare diffs two saved outputs of the benchmark (its standard
// output, redirected to a file). It refuses to diff timing metrics when
// the host metadata differ, and exits 2 if it refused any.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <old-output> <new-output>")
		return 2
	}
	var ms [2]meta
	var rs [2]result
	for i, path := range args {
		var err error
		if ms[i], rs[i], err = readOutput(path); err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 2
		}
	}
	a, b := ms[0], ms[1]
	var mismatch []string
	for _, f := range []struct{ name, a, b string }{
		{"host", a.Host, b.Host},
		{"cpu", a.CPU, b.CPU},
		{"nproc", fmt.Sprint(a.NumCPU), fmt.Sprint(b.NumCPU)},
		{"gomaxprocs", fmt.Sprint(a.GOMAXPROCS), fmt.Sprint(b.GOMAXPROCS)},
		{"go_version", a.GoVersion, b.GoVersion},
		{"workload", a.Workload, b.Workload},
		{"trace", fmt.Sprint(a.Trace), fmt.Sprint(b.Trace)},
	} {
		if f.a != f.b {
			mismatch = append(mismatch, fmt.Sprintf("%s %q vs %q", f.name, f.a, f.b))
		}
	}
	fmt.Fprintf(stdout, "old: %s seed %d commit %s\nnew: %s seed %d commit %s\n",
		a.Workload, a.Seed, a.Commit, b.Workload, b.Seed, b.Commit)
	refused := 0
	for _, name := range sortedKeys(rs[0].Metrics) {
		old := rs[0].Metrics[name]
		cur, ok := rs[1].Metrics[name]
		if !ok {
			continue
		}
		if len(mismatch) > 0 && timeUnits[old.Unit] {
			refused++
			continue
		}
		delta := "-"
		if old.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cur.Value-old.Value)/old.Value)
		}
		fmt.Fprintf(stdout, "  %-32s %14.6g -> %-14.6g %s %s\n", name, old.Value, cur.Value, old.Unit, delta)
	}
	if refused > 0 {
		fmt.Fprintf(stdout, "refused to diff %d timing metrics: metadata differ: %s\n", refused, strings.Join(mismatch, "; "))
		return 2
	}
	return 0
}

// readOutput finds the meta line and the final result line of a saved
// benchmark output.
func readOutput(path string) (meta, result, error) {
	f, err := os.Open(path)
	if err != nil {
		return meta{}, result{}, err
	}
	defer f.Close()
	var m struct {
		Meta *meta `json:"meta"`
	}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, `{"meta"`) {
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				return meta{}, result{}, fmt.Errorf("%s: meta line: %w", path, err)
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return meta{}, result{}, fmt.Errorf("%s: %w", path, err)
	}
	if m.Meta == nil {
		return meta{}, result{}, fmt.Errorf("%s: no meta line", path)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return meta{}, result{}, fmt.Errorf("%s: result line: %w", path, err)
	}
	return *m.Meta, r, nil
}
