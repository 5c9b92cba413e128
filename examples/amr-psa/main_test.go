package main

import (
	"bytes"
	"os"
	"testing"
)

// TestDefaultOutputGolden pins the default comparison byte for byte. After
// an intended change, regenerate with
//
//	go run ./examples/amr-psa > examples/amr-psa/testdata/default.golden
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

// TestUsageErrorsExit2: a PSA task duration that is not positive is refused
// before it reaches apps.NewPSA, which panics on one.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-task", "0"},
		{"-task", "-1"},
		{"-task", "NaN"},
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
