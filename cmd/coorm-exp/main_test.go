package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-exp", "fig3", "-report", "yaml"},
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

// TestFigureAsJSON: -report json works for a figure experiment too — the
// title line, then one JSON document.
func TestFigureAsJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig3", "-report", "json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, &stderr)
	}
	title, body, _ := strings.Cut(stdout.String(), "\n")
	if !strings.HasPrefix(title, "== Fig. 3") {
		t.Errorf("first line %q, want the Fig. 3 title", title)
	}
	var doc struct {
		Name string
		Rows [][]string
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("body is not one JSON document: %v\n%s", err, body)
	}
	if doc.Name != "fig3" || len(doc.Rows) == 0 {
		t.Errorf("decoded %+v", doc)
	}
}

// TestNonPositiveStepsKeepsDefault: -steps overrides the profile length
// only when it is positive, so a non-positive one runs at the scale's
// default and never reaches amr.GenerateProfile's non-positive-steps panic.
func TestNonPositiveStepsKeepsDefault(t *testing.T) {
	var want, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig1"}, &want, &stderr); code != 0 {
		t.Fatalf("-exp fig1: exit code %d: %s", code, &stderr)
	}
	for _, steps := range []string{"-1", "0"} {
		var stdout bytes.Buffer
		if code := run([]string{"-exp", "fig1", "-steps", steps}, &stdout, &stderr); code != 0 {
			t.Fatalf("-steps %s: exit code %d: %s", steps, code, &stderr)
		}
		if stdout.String() != want.String() {
			t.Errorf("-steps %s: output differs from the default length's", steps)
		}
	}
}

// TestBadRebalanceIntervalExits1: a non-positive load-check interval is
// refused by the experiment as an error, not by the rebalancer's panic.
func TestBadRebalanceIntervalExits1(t *testing.T) {
	for _, iv := range []string{"0", "-5", "NaN"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", "rebalance", "-rebalance-interval", iv}, &stdout, &stderr); code != 1 {
			t.Errorf("-rebalance-interval %s: exit code %d, want 1", iv, code)
		}
		if !strings.Contains(stderr.String(), "rebalance interval") {
			t.Errorf("-rebalance-interval %s: stderr %q, want the interval named", iv, &stderr)
		}
	}
}

// TestBadFaultDelaysExit1: a negative or NaN mean restart delay or repair
// time is refused by the experiment as an error. A negative one drew fault
// plans whose restarts or recoveries fell before 0, where the simulator
// panics (sim.Engine.At); a NaN restart delay drew a plan without end.
func TestBadFaultDelaysExit1(t *testing.T) {
	for _, c := range []struct{ exp, flag, want string }{
		{"chaos", "-restart-delay", "restart delay"},
		{"rebalance", "-restart-delay", "restart delay"},
		{"nodechaos", "-node-repair", "node repair time"},
	} {
		for _, v := range []string{"-1000", "NaN"} {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-exp", c.exp, c.flag, v}, &stdout, &stderr); code != 1 {
				t.Errorf("-exp %s %s %s: exit code %d, want 1", c.exp, c.flag, v, code)
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("-exp %s %s %s: stderr %q, want the %s named", c.exp, c.flag, v, &stderr, c.want)
			}
		}
	}
}

// TestTenantCountClamped: -tenants below 2 runs the two-tenant mix, so the
// tenants preset adds the distinct queues t0 and t1 and never reaches
// tenants.Tree.MustAdd's panic on a duplicate or empty path.
func TestTenantCountClamped(t *testing.T) {
	var want, stderr bytes.Buffer
	if code := run([]string{"-exp", "tenants", "-tenants", "2"}, &want, &stderr); code != 0 {
		t.Fatalf("-tenants 2: exit code %d: %s", code, &stderr)
	}
	for _, n := range []string{"-3", "1"} {
		var stdout bytes.Buffer
		if code := run([]string{"-exp", "tenants", "-tenants", n}, &stdout, &stderr); code != 0 {
			t.Fatalf("-tenants %s: exit code %d: %s", n, code, &stderr)
		}
		if stdout.String() != want.String() {
			t.Errorf("-tenants %s: output differs from -tenants 2's", n)
		}
	}
}
