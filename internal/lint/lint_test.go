package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// fixtures maps each analyzer to its known-bad testdata package.
var fixtures = map[string]string{
	"atomic-mix":     "atomicmix",
	"lifecycle":      "lifecycle",
	"ddf-once":       "ddfonce",
	"hotpath-alloc":  "hotpath",
	"lock-order":     "lockorder",
	"nonblocking":    "nonblocking",
	"tag-space":      "tagspace",
	"goroutine-leak": "goroutineleak",

	"request-leak":          "requestleak",
	"buffer-reuse":          "bufferreuse",
	"collective-divergence": "collectivediv",
}

// TestFixtures runs each analyzer alone over its fixture package and
// compares the diagnostics (with basename-relative positions) against
// the package's expect.txt golden. Regenerate with: go test -run
// Fixtures ./internal/lint -update
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		dir, ok := fixtures[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no fixture package", a.Name)
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			root := filepath.Join("testdata", "src", dir)
			pkg, err := LoadPackageDir(root)
			if err != nil {
				t.Fatalf("load %s: %v", root, err)
			}
			for _, e := range pkg.Errors {
				t.Errorf("fixture %s has type errors: %v", dir, e)
			}
			var lines []string
			for _, f := range RunAll([]*Package{pkg}, []*Analyzer{a}) {
				f.Pos.Filename = filepath.Base(f.Pos.Filename)
				lines = append(lines, f.String())
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}
			golden := filepath.Join(root, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantB, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if want := string(wantB); got != want {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			// Cross-check the findings against the // want: markers in the
			// fixture source, so the two cannot silently drift apart.
			mismatches, err := WantMismatches(root, RunAll([]*Package{pkg}, []*Analyzer{a}))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mismatches {
				t.Error(m)
			}
		})
	}
}

// waiverBudget caps the //hclint:allow comments the live tree carries
// outside the analyzer's own packages. Like an allocation pin it only
// moves on purpose: a new waiver needs a deliberate bump here.
const waiverBudget = 9

// TestLiveTreeClean loads the real module and asserts the full analyzer
// suite reports nothing, within the waiver budget: `make lint` must stay
// green.
func TestLiveTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, p := range pkgs {
		for _, e := range p.Errors {
			t.Errorf("%s: type error: %v", p.Path, e)
		}
	}
	for _, f := range RunAll(pkgs, All()) {
		t.Errorf("live tree finding: %s", f)
	}
	waivers := map[string]bool{}
	for _, p := range pkgs {
		for _, ac := range p.allowComments() {
			rel, err := filepath.Rel(root, ac.File)
			if err != nil {
				t.Fatal(err)
			}
			rel = filepath.ToSlash(rel)
			if !strings.HasPrefix(rel, "internal/lint/") && !strings.HasPrefix(rel, "cmd/hclint/") {
				waivers[fmt.Sprintf("%s:%d", rel, ac.Line)] = true
			}
		}
	}
	if len(waivers) > waiverBudget {
		t.Errorf("%d //hclint:allow waivers in the live tree, budget %d: fix the finding or raise waiverBudget deliberately",
			len(waivers), waiverBudget)
	}
}

// TestAllowAuditAndSuppressions covers the suppression bookkeeping: a
// hit //hclint:allow surfaces in Result.Suppressed with its reason (for
// the SARIF writer), and a stale one is flagged by AuditAllows.
func TestAllowAuditAndSuppressions(t *testing.T) {
	pkg, err := LoadPackageDir(filepath.Join("testdata", "src", "allowaudit"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.Errors {
		t.Fatalf("fixture type error: %v", e)
	}
	pkgs := []*Package{pkg}
	res := RunAllResult(pkgs, All())
	if len(res.Findings) != 0 {
		t.Errorf("allow did not suppress: %v", res.Findings)
	}
	if len(res.Suppressed) != 1 {
		t.Fatalf("Suppressed = %d, want 1: %+v", len(res.Suppressed), res.Suppressed)
	}
	s := res.Suppressed[0]
	if s.Finding.Check != "request-leak" ||
		s.Reason != "transport completes control messages autonomously" {
		t.Errorf("suppression = %+v", s)
	}
	stale := AuditAllows(pkgs)
	if len(stale) != 1 {
		t.Fatalf("AuditAllows = %d, want exactly the stale comment: %v", len(stale), stale)
	}
	if stale[0].Check != "allow-audit" || !strings.Contains(stale[0].Msg, "stale") ||
		!strings.Contains(stale[0].Msg, "this line produces no finding") {
		t.Errorf("stale finding = %v", stale[0])
	}
}

// TestByName covers the analyzer-selection path used by the -checks flag.
func TestByName(t *testing.T) {
	as, err := ByName([]string{"ddf-once", "atomic-mix"})
	if err != nil || len(as) != 2 || as[0].Name != "ddf-once" || as[1].Name != "atomic-mix" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}
