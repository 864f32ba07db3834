package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runBench runs the benchmark in-process and returns its exit code and
// parsed result line.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errb.String())
	}
	return code, r, out.String() + errb.String()
}

// A wrong expected value must fail every checked operation and the run.
func TestCorruptedExpectedFailsEveryOperation(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, r, log := runBench(t, "--workload", w.name, "--seed", "3", "--seconds", "1", "--corrupt-expected")
			if code == 0 {
				t.Errorf("exit code 0, want non-zero\n%s", log)
			}
			if r.Correct || r.Attempted == 0 || r.Failed != r.Attempted {
				t.Errorf("correct=%v attempted=%d failed=%d, want fail_frac 1\n%s", r.Correct, r.Attempted, r.Failed, log)
			}
		})
	}
}

func TestCleanRunReportsEndToEndMetrics(t *testing.T) {
	code, r, log := runBench(t, "--workload", "comm-netsim", "--seed", "1", "--seconds", "1", "--trace", "0")
	if code != 0 || !r.Correct || r.Failed != 0 {
		t.Fatalf("exit %d correct=%v failed=%d\n%s", code, r.Correct, r.Failed, log)
	}
	checkMetrics(t, r, endToEndDefs)
	for name, m := range r.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	code, r, log := runBench(t, "--workload", "comm-netsim", "--seed", "2", "--seconds", "1", "--trace", "1")
	if code != 0 || !r.Correct {
		t.Fatalf("exit %d correct=%v\n%s", code, r.Correct, log)
	}
	checkMetrics(t, r, layerDefs)
	for _, want := range []string{"ladder (p50", "self time by span", "hcmpi.Send"} {
		if !strings.Contains(log, want) {
			t.Errorf("traced report lacks %q", want)
		}
	}
}

func checkMetrics(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// BENCHMARK.json at the repository root must describe what the
// benchmark prints.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{spec.EndToEnd, endToEndDefs}, {spec.PerLayer, layerDefs}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics in BENCHMARK.json, want %d", len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			g := c.got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("BENCHMARK.json has %+v, the benchmark %+v", g, d)
			}
		}
	}
}

func TestCompareRefusesTimingAcrossHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, host string, wall float64) string {
		m := meta{Host: host, CPU: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", Workload: "uts"}
		mb, err := json.Marshal(map[string]any{"meta": m})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"wall_s": {Value: wall, Unit: "s"}, "mem_peak_mb": {Value: 3, Unit: "MB"}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("report\n"+string(mb)+"\n"+string(rb)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a", "h1", 1), write("b", "h1", 1.5), write("c", "h2", 1.5)
	var out bytes.Buffer
	if code := compare([]string{a, b}, &out, &out); code != 0 || !strings.Contains(out.String(), "+50.0%") {
		t.Errorf("same host: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare([]string{a, c}, &out, &out); code != 2 || !strings.Contains(out.String(), "refused") ||
		strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "mem_peak_mb") {
		t.Errorf("other host: exit %d, want 2 with only mem_peak_mb diffed\n%s", code, out.String())
	}
}
