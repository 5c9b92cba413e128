package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// lockedBuffer is a bytes.Buffer both run and the client's notification
// goroutine can print into.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-no-such-flag"},
		{"frobnicate"},
		{"run", "-n", "many"},
		{"watch", "-no-such-flag"},
		{"stats", "-events", "few"},
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

// startDaemon serves a 2-shard federated RMS over TCP plus its obs snapshot
// over HTTP — what coormd assembles — and returns the two addresses.
func startDaemon(t *testing.T) (addr, obsAddr string) {
	clk := clock.NewRealClock()
	reg := obs.NewRegistry()
	srv := transport.NewServer(federation.New(federation.Config{
		Clusters:        map[view.ClusterID]int{"a": 32, "b": 32},
		Shards:          2,
		ReschedInterval: 0.05,
		Clock:           clk,
		Obs:             reg,
	}))
	srv.Logf = t.Logf
	srv.Obs = reg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/obs" {
			http.NotFound(w, r)
			return
		}
		js, _ := reg.Snapshot(clk.Now()).JSON()
		w.Write(js)
	}))
	t.Cleanup(hs.Close)
	return addr, strings.TrimPrefix(hs.URL, "http://")
}

// TestRunWatchStats drives the three subcommands against a live daemon:
// run reports the job's lifecycle, watch prints pushed views, and stats
// renders (and, with -json, relays) the snapshot the job left behind.
func TestRunWatchStats(t *testing.T) {
	addr, obsAddr := startDaemon(t)

	var stdout, stderr lockedBuffer
	if code := run([]string{"-addr", addr, "run", "-cluster", "a", "-n", "4", "-d", "0.1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run: exit code %d: %s", code, stderr.String())
	}
	for _, want := range []string{"connected as application 1", "submitted rigid request 1 (4 nodes, 0.1s)",
		"request 1 started on nodes [0 1 2 3]", "finished"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("run output lacks %q:\n%s", want, stdout.String())
		}
	}

	stdout, stderr = lockedBuffer{}, lockedBuffer{}
	if code := run([]string{"-addr", addr, "watch", "-for", "0.2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("watch: exit code %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "views: non-preemptive") {
		t.Errorf("watch printed no view push:\n%s", stdout.String())
	}

	stdout, stderr = lockedBuffer{}, lockedBuffer{}
	if code := run([]string{"stats", "-obs", obsAddr, "-events", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("stats: exit code %d: %s", code, stderr.String())
	}
	for _, want := range []string{"counters:", "shard0.rms.churn_requests", "fed.killed_sessions",
		"transport.sessions", "histograms:", "shard0.rms.wait_seconds", "last 3 events:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stats output lacks %q:\n%s", want, stdout.String())
		}
	}

	stdout, stderr = lockedBuffer{}, lockedBuffer{}
	if code := run([]string{"stats", "-obs", obsAddr, "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("stats -json: exit code %d: %s", code, stderr.String())
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(stdout.String()), &snap); err != nil {
		t.Fatalf("stats -json is not the snapshot: %v\n%s", err, stdout.String())
	}
	if snap.Counters["shard0.rms.churn_requests"] != 1 {
		t.Errorf("snapshot counters = %v, want one accepted request on shard0", snap.Counters)
	}
}

// TestFailuresExit1: an unreachable daemon and a refused request are
// command failures, reported on stderr.
func TestFailuresExit1(t *testing.T) {
	addr, _ := startDaemon(t)
	for _, args := range [][]string{
		{"-addr", addr, "run", "-cluster", "nowhere"},
		{"stats", "-obs", addr}, // not an HTTP listener
	} {
		var stdout, stderr lockedBuffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit code %d, want 1", args, code)
		}
		if !strings.HasPrefix(stderr.String(), "coormctl: ") {
			t.Errorf("%v: stderr %q, want a coormctl diagnostic", args, stderr.String())
		}
	}
}
