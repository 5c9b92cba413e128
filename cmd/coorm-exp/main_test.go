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
