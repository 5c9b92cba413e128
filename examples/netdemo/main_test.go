package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLoopbackSmoke runs the demo end to end over loopback TCP. There is no
// golden file: the port and the node IDs each client gets vary run to run.
func TestLoopbackSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit code %d, stderr %q, stdout:\n%s", code, &stderr, &stdout)
	}
	if !strings.Contains(stdout.String(), "netdemo: OK") {
		t.Errorf("output lacks %q:\n%s", "netdemo: OK", &stdout)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("exit code %d, stdout %q; want 2 and nothing on stdout", code, &stdout)
	}
}
