package main

import (
	"bytes"
	"testing"
)

// TestUsageErrorsExit2: a target efficiency outside (0, 1] is refused
// before amr.NodesForEfficiency, which panics on a non-positive one, and
// before a NaN prints a meaningless analysis.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-eff", "0"},
		{"-eff", "-1"},
		{"-eff", "NaN"},
		{"-eff", "1.5"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q; want a diagnostic on stderr only", args, &stdout, &stderr)
		}
	}
}

// TestEffBoundsAccepted: both ends of the accepted range run the analysis.
func TestEffBoundsAccepted(t *testing.T) {
	for _, eff := range []string{"1", "1e-3"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-eff", eff}, &stdout, &stderr); code != 0 || stdout.Len() == 0 {
			t.Errorf("-eff %s: exit code %d, stderr %q; want the analysis", eff, code, &stderr)
		}
	}
}
