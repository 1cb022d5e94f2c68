package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table2Row is one application's classification.
type Table2Row struct {
	App                string
	IPC                float64
	PaperIPC           float64
	ViolationFrac      float64
	PaperViolationFrac float64
	Violating          bool
	PaperViolating     bool
}

// Table2Data is the full classification of the 26 applications.
type Table2Data struct {
	Rows []Table2Row
	// Results are the raw base-machine runs, reusable by other
	// experiments.
	Results []sim.Result
}

// Table2 reproduces Table 2: every SPEC2K application's IPC and fraction
// of cycles in noise-margin violation on the base (uncontrolled) Table 1
// processor, classified into violating and non-violating sets.
func Table2(opts Options) (Report, error) {
	c, err := compare(opts, workload.Names(), engine.Spec{})
	if err != nil {
		return Report{}, err
	}
	apps := workload.Apps()
	data := &Table2Data{Results: c.base}
	for i, r := range c.base {
		app := apps[i]
		data.Rows = append(data.Rows, Table2Row{
			App:                r.App,
			IPC:                r.IPC,
			PaperIPC:           app.PaperIPC,
			ViolationFrac:      r.ViolationFraction,
			PaperViolationFrac: app.PaperViolationFrac,
			Violating:          r.Violations > 0,
			PaperViolating:     app.PaperViolating,
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: classification of SPEC2K applications (%d instructions/app)\n\n", opts.instructions())
	tab := metrics.Table{Headers: []string{
		"app", "IPC", "paper IPC", "viol frac", "paper frac", "class", "paper class", "match",
	}}
	agree := 0
	for _, row := range data.Rows {
		class := func(v bool) string {
			if v {
				return "violating"
			}
			return "clean"
		}
		match := ""
		if row.Violating == row.PaperViolating {
			match = "yes"
			agree++
		}
		tab.AddRow(row.App,
			fmt.Sprintf("%.2f", row.IPC), fmt.Sprintf("%.2f", row.PaperIPC),
			fmt.Sprintf("%.2e", row.ViolationFrac), fmt.Sprintf("%.2e", row.PaperViolationFrac),
			class(row.Violating), class(row.PaperViolating), match)
	}
	b.WriteString(tab.String())
	fmt.Fprintf(&b, "\nclassification agreement: %d/%d applications\n", agree, len(data.Rows))
	b.WriteString("note: violation fractions are per scaled run; the paper's absolute\n" +
		"fractions are over 500M instructions. Both show violations are rare and\n" +
		"uncorrelated with IPC.\n")
	return Report{ID: "table2", Text: b.String(), Data: data}, nil
}
