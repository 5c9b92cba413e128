package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// lockedBuffer is a bytes.Buffer the daemon's goroutines can log into.
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
		{"-no-such-flag"},
		{"-cluster", "a"},
		{"-cluster", "a=0"},
		// core.NewScheduler panics on a negative capacity: the flag is the
		// only way a node count reaches it from outside the program.
		{"-cluster", "a=-3"},
		// The servers would read these as 1 s (0, -1), turn pacing off
		// (NaN) or never schedule (+Inf).
		{"-interval", "NaN"},
		{"-interval", "+Inf"},
		{"-interval", "-Inf"},
		{"-interval", "0"},
		{"-interval", "-1"},
		{"-grace", "NaN"},
		{"-grace", "+Inf"},
		{"-grace", "-1"},
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

// TestFloatFlagsAtTheirBounds: the smallest values -interval and -grace
// take are served, not refused.
func TestFloatFlagsAtTheirBounds(t *testing.T) {
	var logs lockedBuffer
	d, code := start([]string{"-listen", "127.0.0.1:0", "-interval", "1e-3", "-grace", "0"}, &logs)
	if d == nil {
		t.Fatalf("exit code %d: %s", code, logs.String())
	}
	d.Close()
}

// TestDefaultClusterWithoutFlag pins that no flag combination hands
// federation.New (and through it rms.NewServer) an empty cluster set or a
// nil clock (both panic): without -cluster the daemon serves one default
// cluster on one shard, on the real clock, however many shards are asked
// for.
func TestDefaultClusterWithoutFlag(t *testing.T) {
	for _, args := range [][]string{{}, {"-shards", "3"}} {
		var logs lockedBuffer
		d, code := start(append([]string{"-listen", "127.0.0.1:0"}, args...), &logs)
		if d == nil {
			t.Fatalf("%v: exit code %d: %s", args, code, logs.String())
		}
		d.Close()
		if !strings.Contains(logs.String(), "shard0=default=64") {
			t.Errorf("%v: startup log names no default cluster on shard 0:\n%s", args, logs.String())
		}
	}
}

func TestListenFailureExits1(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-listen", taken.Addr().String()}, &stdout, &stderr); code != 1 {
		t.Errorf("exit code %d, want 1 (stderr %q)", code, &stderr)
	}
}

// startedApp is the client side of `coormctl run`: it waits for its start.
type startedApp struct{ started chan request.ID }

func (a *startedApp) OnViews(_, _ view.View) {}
func (a *startedApp) OnKill(string)          {}
func (a *startedApp) OnStart(id request.ID, _ []int) {
	a.started <- id
}

// renamedCounters maps every counter key a 2-shard daemon served before the
// fault/recovery counters left internal/metrics (the "metrics" and
// "fed.merge" groups) to the key that serves the same count now, or to ""
// when no key does: the merge counters went with the per-session view merge.
// Per-shard keys exist once per shard; "shard0" stands for all of them.
var renamedCounters = map[string]string{
	"metrics.killed-sessions":        "fed.killed_sessions",
	"metrics.requeued-requests":      "fed.requeued_requests",
	"metrics.replayed-requests":      "fed.replayed_requests",
	"metrics.dropped-requests":       "fed.dropped_requests",
	"metrics.migrated-clusters":      "fed.migrated_clusters",
	"metrics.gang-committed":         "fed.gang_committed",
	"metrics.gang-aborted":           "fed.gang_aborted",
	"metrics.gang-retried":           "fed.gang_retried",
	"metrics.remerged-shard-views":   "",
	"metrics.reused-shard-views":     "",
	"fed.merge.remerged_shard_views": "",
	"fed.merge.reused_shard_views":   "",
	"fed.remerged_shard_views":       "",
	"fed.reused_shard_views":         "",
	"metrics.churn-requests":         "shard0.rms.churn_requests",
	"metrics.migrated-requests":      "shard0.rms.migrated_requests",
	"metrics.failed-nodes":           "shard0.rms.failed_nodes",
	"metrics.recovered-nodes":        "shard0.rms.recovered_nodes",
	"metrics.node-killed-requests":   "shard0.rms.node_killed_requests",
	"metrics.node-requeued-requests": "shard0.rms.node_requeued_requests",
	"metrics.node-reduced-requests":  "shard0.rms.node_reduced_requests",
	"metrics.preempted-requests":     "shard0.rms.preempted_requests",
}

// unchangedCounters are the keys of the groups the counter move did not
// touch, as the daemon serves them after one job ("shard0" for every
// shard), plus the transport's views-frame counters added since.
var unchangedCounters = []string{
	"shard0.sched.artifacts_recomputed", "shard0.sched.artifacts_reused",
	"shard0.sched.cbf_recomputed", "shard0.sched.cbf_reused",
	"shard0.sched.eqapp_recomputed", "shard0.sched.eqapp_reused",
	"shard0.sched.eqocc_recomputed", "shard0.sched.eqocc_reused",
	"shard0.sched.fold_clusters_recomputed", "shard0.sched.full_rounds",
	"shard0.sched.rounds", "shard0.sched.walks_recomputed", "shard0.sched.walks_reused",
	"transport.conn_drops", "transport.conns_accepted", "transport.errors_sent",
	"transport.evictions", "transport.grace_expiries", "transport.idem_replays",
	"transport.oversized_frames", "transport.resumes", "transport.resumes_rejected",
	"transport.sessions",
	"transport.views_full_frames", "transport.views_delta_frames", "transport.views_bytes",
}

// TestDaemonServesObs starts a daemon over clusters a and b with the obs
// side listener on free ports — on its default single shard, and on two
// shards — drives one rigid job per cluster through it the way `coormctl
// run` does, and checks both export surfaces: /metrics is Prometheus 0.0.4
// text with TYPE lines and coorm_-prefixed histogram samples, /debug/obs is
// the JSON snapshot with counters, histograms and events, every counter key
// the daemon served before the counters moved is still served under its
// shard's prefix, and the start event of b's job quotes the request ID the
// client was given.
func TestDaemonServesObs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags []string
		// topology matches the startup log's shard list; owners are the
		// shards owning a and b.
		topology string
		owners   []string
	}{
		{"default", nil, `serving shard0=(a=32,b=32|b=32,a=32) on `, []string{"shard0", "shard0"}},
		{"shards=2", []string{"-shards", "2"}, `serving shard0=a=32 shard1=b=32 on `, []string{"shard0", "shard1"}},
	} {
		t.Run(tc.name, func(t *testing.T) { testDaemonServesObs(t, tc.flags, tc.topology, tc.owners) })
	}
}

func testDaemonServesObs(t *testing.T, flags []string, topology string, owners []string) {
	var logs lockedBuffer
	d, code := start(append([]string{
		"-listen", "127.0.0.1:0", "-pprof", "127.0.0.1:0",
		"-cluster", "a=32", "-cluster", "b=32", "-interval", "0.05",
	}, flags...), &logs)
	if d == nil {
		t.Fatalf("start: exit code %d: %s", code, logs.String())
	}
	served := make(chan error, 1)
	go func() { served <- d.srv.Serve() }()
	defer func() {
		d.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve after Close: %v", err)
		}
	}()
	if !regexp.MustCompile(topology).MatchString(logs.String()) {
		t.Errorf("startup log does not describe the topology:\n%s", logs.String())
	}

	app := &startedApp{started: make(chan request.ID, 1)}
	c, err := transport.Dial(d.addr, app)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One job on each cluster: on two shards the second is shard1's first
	// admission, so its ID differs from shard1's admission sequence.
	var onB request.ID
	for _, cid := range []view.ClusterID{"a", "b"} {
		id, err := c.Request(rms.RequestSpec{Cluster: cid, N: 4, Duration: 0.1, Type: request.NonPreempt})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-app.started:
			if got != id {
				t.Fatalf("request %d started while waiting for %d", got, id)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the job never started")
		}
		c.Done(id, nil) // may already have expired server-side
		onB = id
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", d.obsLn.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return body
	}

	get("/debug/pprof/cmdline") // the profiling endpoints share the side listener
	prom := get("/metrics")
	for _, re := range []string{`(?m)^# TYPE coorm_`, `(?m)^coorm_.*_count `} {
		if !regexp.MustCompile(re).Match(prom) {
			t.Errorf("/metrics has no line matching %s:\n%s", re, prom)
		}
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(get("/debug/obs"), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 || len(snap.Events) == 0 {
		t.Fatalf("/debug/obs: %d counters, %d histograms, %d events; want all non-empty",
			len(snap.Counters), len(snap.Histograms), len(snap.Events))
	}
	want := append([]string(nil), unchangedCounters...)
	for _, now := range renamedCounters {
		if now != "" {
			want = append(want, now)
		}
	}
	for _, key := range want {
		for _, shard := range owners {
			k := strings.Replace(key, "shard0", shard, 1)
			if _, ok := snap.Counters[k]; !ok {
				t.Errorf("/debug/obs serves no counter %q", k)
			}
		}
	}
	// The counters of a shard are only ever served under its prefix.
	for k := range snap.Counters {
		if strings.HasPrefix(k, "rms.") || strings.HasPrefix(k, "sched.") {
			t.Errorf("/debug/obs serves the unprefixed shard counter %q", k)
		}
	}
	for _, k := range []string{"fed.killed_sessions", "fed.migrated_clusters"} {
		if _, ok := snap.Counters[k]; !ok {
			t.Errorf("/debug/obs serves no federation counter %q", k)
		}
	}
	for old := range renamedCounters {
		if _, ok := snap.Counters[old]; ok {
			t.Errorf("/debug/obs still serves the old key %q", old)
		}
	}
	quoted := false
	for _, ev := range snap.Events {
		if ev.Type == obs.EvStart && ev.Shard == owners[1] && ev.Cluster == "b" {
			quoted = true
			if ev.Request != int(onB) {
				t.Errorf("%s start event on b quotes request %d, the client holds %d", owners[1], ev.Request, onB)
			}
		}
	}
	if !quoted {
		t.Errorf("no start event on b from %s among %d events", owners[1], len(snap.Events))
	}
	churn := map[string]int64{}
	for _, shard := range owners {
		churn[shard]++
	}
	for shard, want := range churn {
		if got := snap.Counters[shard+".rms.churn_requests"]; got != want {
			t.Errorf("%s.rms.churn_requests = %d after %d requests on its clusters, want %d", shard, got, want, want)
		}
	}
	if got := snap.Counters["transport.sessions"]; got != 1 {
		t.Errorf("transport.sessions = %d, want 1", got)
	}
	// One connection: its first views frame is the only full one.
	if got := snap.Counters["transport.views_full_frames"]; got != 1 {
		t.Errorf("transport.views_full_frames = %d, want 1", got)
	}
}
