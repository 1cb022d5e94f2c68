package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

var update = flag.Bool("update", false, "rewrite the golden report files under testdata/golden")

// goldenIDs are the experiments pinned by golden reports: the analytic
// impedance curve, the full-suite classification, the headline
// technique comparison, the two-domain PDN scenario, and the three
// technique sweeps of Tables 3-5. Together they cover the circuit
// models, the workload generator, the base machine, all three
// techniques, and the multi-domain stack — a drift in any of them shows
// up as a golden diff.
var goldenIDs = []string{"fig1c", "table2", "fig5", "multidomain", "table3", "table4", "table5"}

// goldenInstructions keeps the harness fast enough for every CI run; the
// reports differ from the paper-scale ones only in magnitude, not in
// which code they exercise.
const goldenInstructions = 30_000

// TestGoldenReports regenerates a scaled-down subset of the paper's
// reports and diffs them against the checked-in goldens. After an
// intentional behavior change, refresh them with
//
//	go test ./internal/experiments -run TestGoldenReports -update
//
// and review the golden diff like any other code change.
func TestGoldenReports(t *testing.T) {
	// One engine for the whole harness: table2 and fig5 share their
	// 26-app baseline suite through its cache.
	opts := Options{
		Instructions: goldenInstructions,
		Engine:       engine.New(engine.Options{}),
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			exp, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := exp.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Text == "" {
				t.Fatal("experiment produced an empty report")
			}
			path := filepath.Join("testdata", "golden", id+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(rep.Text), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden report (regenerate with -update): %v", err)
			}
			if rep.Text != string(want) {
				t.Errorf("report %s drifted from its golden:\n%s", id, firstDiff(string(want), rep.Text))
			}
		})
	}
}

// firstDiff renders the first few differing lines between the golden and
// the regenerated report, with one line of context.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	var b strings.Builder
	shown := 0
	for i := 0; i < n && shown < 5; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		if shown == 0 && i > 0 {
			fmt.Fprintf(&b, "  line %d: %s\n", i, wl[i-1])
		}
		fmt.Fprintf(&b, "- line %d: %s\n+ line %d: %s\n", i+1, w, i+1, g)
		shown++
	}
	if shown == 5 {
		b.WriteString("  ... (more differences elided)\n")
	}
	return b.String()
}
