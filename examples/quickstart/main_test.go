package main

import (
	"bytes"
	"os"
	"testing"
)

// TestDefaultOutputGolden pins the whole Fig. 8 log byte for byte; the
// script's requests are all accepted, so the run exits 0 with nothing on
// stderr. After an intended change, regenerate with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/default.golden
func TestDefaultOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit code %d, stderr %q", code, &stderr)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("output differs from testdata/default.golden:\n%s", got)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("exit code %d, stdout %q; want 2 and nothing on stdout", code, &stdout)
	}
}
