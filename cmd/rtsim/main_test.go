package main

import (
	"flag"
	"slices"
	"testing"
)

// TestIgnoredFlags: every flag set on the command line that the selected
// mode would not read is named, and the flags a mode reads pass.
func TestIgnoredFlags(t *testing.T) {
	cases := []struct {
		args []string
		mode string
		want []string
	}{
		{[]string{"-replay", "p.rti", "-tech", "tuning", "-initial-response", "75", "-delay", "5"},
			"-replay", []string{"-delay", "-initial-response"}},
		{[]string{"-replay", "p.rti", "-tech", "base", "-trace", "x.csv", "-spectrum", "-energy"},
			"-replay", []string{"-energy", "-spectrum", "-trace"}},
		{[]string{"-replay", "p.rti", "-app", "swim", "-insts", "5", "-cache-dir", "d"},
			"-replay", []string{"-app", "-cache-dir", "-insts"}},
		{[]string{"-record", "p.rti", "-app", "parser", "-insts", "20000"}, "-record", nil},
		{[]string{"-record", "p.rti", "-replay", "q.rti", "-tech", "tuning", "-trace-budget-mb", "8"},
			"-record", []string{"-replay", "-tech", "-trace-budget-mb"}},
		{[]string{"-list"}, "-list", nil},
		{[]string{"-list", "-app", "swim", "-cache-gc"}, "-list", []string{"-app", "-cache-gc"}},
		{[]string{"-app", "lucas", "-insts", "9", "-tech", "tuning", "-initial-response", "75", "-delay", "5",
			"-trace", "f.csv", "-spectrum", "-energy", "-cache-dir", "d", "-cache-gc", "-trace-budget-mb", "8"},
			"-tech tuning", nil},
		{[]string{"-tech", "dual-band", "-initial-response", "75"}, "-tech dual-band", []string{"-initial-response"}},
		{[]string{"-delay", "5"}, "-tech base", []string{"-delay"}},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("rtsim", flag.ContinueOnError)
		declare(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if mode, got := ignored(fs); mode != c.mode || !slices.Equal(got, c.want) {
			t.Errorf("%v: mode %q ignores %v, want %q ignoring %v", c.args, mode, got, c.mode, c.want)
		}
	}
}
