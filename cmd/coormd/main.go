// Command coormd runs a CooRMv2 RMS daemon over TCP — the "real-life
// prototype RMS" counterpart of the simulator (§5). Applications connect
// with the newline-delimited JSON protocol of internal/proto (see
// cmd/coormctl and examples/netdemo).
//
// Usage:
//
//	coormd -listen :7777 -cluster main=128 -cluster gpu=16 -interval 1
//	coormd -cluster a=64 -cluster b=64 -cluster c=64 -shards 3 -workers 32
//	coormd -cluster a=64 -pprof 127.0.0.1:6060   # live profiling side listener
//
// The daemon runs a federated RMS: -shards (default 1) partitions the
// cluster set across that many independent scheduler shards and every
// session's requests are routed to the shard owning their target cluster
// (see internal/federation). One shard is the single RMS.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/core"
	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// clusterFlags collects repeated -cluster name=nodes flags.
type clusterFlags map[view.ClusterID]int

func (c clusterFlags) String() string {
	var parts []string
	for cid, n := range c {
		parts = append(parts, fmt.Sprintf("%s=%d", cid, n))
	}
	return strings.Join(parts, ",")
}

func (c clusterFlags) Set(s string) error {
	name, nodesStr, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=nodes, got %q", s)
	}
	n, err := strconv.Atoi(nodesStr)
	if err != nil || n <= 0 {
		return fmt.Errorf("invalid node count in %q", s)
	}
	c[view.ClusterID(name)] = n
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it starts the daemon and serves until
// the listener is closed. Exit code 2 is a usage error, 1 a runtime failure.
// The daemon only logs, so nothing is written to stdout.
func run(args []string, _, stderr io.Writer) int {
	d, code := start(args, stderr)
	if d == nil {
		return code
	}
	defer d.Close()
	if err := d.srv.Serve(); err != nil {
		fmt.Fprintf(stderr, "coormd: %v\n", err)
		return 1
	}
	return 0
}

// daemon is a started coormd: the RMS protocol listener (bound, not yet
// serving) and, with -pprof, the pprof/obs side listener (serving).
type daemon struct {
	srv   *transport.Server
	addr  string       // RMS protocol address
	obsLn net.Listener // pprof/obs side listener; nil when off
}

// Close stops both listeners.
func (d *daemon) Close() {
	d.srv.Close()
	if d.obsLn != nil {
		d.obsLn.Close()
	}
}

// start parses args, builds the federated RMS and binds the listeners. Logs
// and errors go to stderr; on failure it returns nil and the exit code.
func start(args []string, stderr io.Writer) (*daemon, int) {
	logger := log.New(stderr, "", log.LstdFlags)
	clusters := clusterFlags{}
	fs := flag.NewFlagSet("coormd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:7777", "TCP listen address")
		interval = fs.Float64("interval", 1, "re-scheduling interval in seconds (§3.2)")
		grace    = fs.Float64("grace", 0, "preemption grace period in seconds (0 = 5×interval)")
		strict   = fs.Bool("strict", false, "use strict equi-partitioning instead of filling")
		shards   = fs.Int("shards", 1, "scheduler shards the cluster set is partitioned across (1: a single RMS)")
		workers  = fs.Int("workers", 0, "admission limit: max concurrently served application sessions; further connections wait unserved until one ends (0 = unlimited)")
		pprofOn  = fs.String("pprof", "", "side listener for net/http/pprof (e.g. 127.0.0.1:6060; empty = off), so scheduling hot paths can be profiled against the live daemon")
		graceWin = fs.Duration("grace-window", 15*time.Second, "how long a session whose connection dropped survives awaiting a resume (0 = tear down immediately, no resume)")
		writeQ   = fs.Int("write-queue", 0, "per-connection outbound frame queue; a client that falls this many frames behind is evicted into the grace window (0 = default 256)")
		maxFrame = fs.Int("max-frame", 0, "received frame size cap in bytes; oversized frames are skipped and reported as structured errors (0 = default 4 MiB)")
	)
	fs.Var(clusters, "cluster", "cluster as name=nodes (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	// The servers read an interval ≤ 0 as 1 s and a grace ≤ 0 as five
	// intervals, a NaN interval turns pacing off and an infinite one never
	// schedules: a value the flag cannot mean is refused here.
	if !(*interval > 0) || math.IsInf(*interval, 1) {
		fmt.Fprintf(stderr, "coormd: -interval must be a finite number of seconds above 0, got %g\n", *interval)
		return nil, 2
	}
	if !(*grace >= 0) || math.IsInf(*grace, 1) {
		fmt.Fprintf(stderr, "coormd: -grace must be a finite number of seconds, 0 or more, got %g\n", *grace)
		return nil, 2
	}

	if len(clusters) == 0 {
		clusters["default"] = 64
	}
	clk := clock.NewRealClock()
	// Every layer registers its counters and histograms with this one
	// registry (rms and federation at construction, transport in Serve);
	// the side listener below only exports it.
	reg := obs.NewRegistry()
	policy := core.EquiPartitionFilling
	if *strict {
		policy = core.StrictEquiPartition
	}
	d := &daemon{}
	fed := federation.New(federation.Config{
		Clusters:        clusters,
		Shards:          *shards,
		ReschedInterval: *interval,
		GracePeriod:     *grace,
		Clock:           clk,
		Policy:          policy,
		Obs:             reg,
	})
	d.srv = transport.NewServer(fed)
	shardDesc := make([]string, fed.NumShards())
	for cid, n := range clusters {
		i, _ := fed.Owner(cid)
		shardDesc[i] = strings.TrimPrefix(fmt.Sprintf("%s,%s=%d", shardDesc[i], cid, n), ",")
	}
	for i, desc := range shardDesc {
		shardDesc[i] = fmt.Sprintf("shard%d=%s", i, desc)
	}
	topology := strings.Join(shardDesc, " ")
	d.srv.Logf = logger.Printf
	d.srv.Workers = *workers
	d.srv.Grace = *graceWin
	d.srv.WriteQueue = *writeQ
	d.srv.MaxFrame = *maxFrame
	d.srv.Obs = reg
	var err error
	if d.addr, err = d.srv.Listen(*listen); err != nil {
		fmt.Fprintf(stderr, "coormd: %v\n", err)
		return nil, 1
	}
	if *pprofOn != "" {
		// A dedicated side listener, so profiling endpoints are never
		// exposed on the RMS protocol port. The observability endpoints
		// share it: /metrics (Prometheus text) and /debug/obs (JSON
		// snapshot + structured event ring). net/http/pprof registered
		// itself on the default mux, which is mounted for its paths only.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.Snapshot(clk.Now()).WritePrometheus(w); err != nil {
				logger.Printf("coormd: /metrics: %v", err)
			}
		})
		mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
			js, err := reg.Snapshot(clk.Now()).JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(js)
		})
		if d.obsLn, err = net.Listen("tcp", *pprofOn); err != nil {
			d.srv.Close()
			fmt.Fprintf(stderr, "coormd: pprof listener: %v\n", err)
			return nil, 1
		}
		go http.Serve(d.obsLn, mux)
		logger.Printf("coormd: pprof/obs listening on http://%s/debug/pprof/ /metrics /debug/obs", d.obsLn.Addr())
	}
	logger.Printf("coormd: serving %s on %s (policy %s, interval %gs, workers %d, grace window %s)",
		topology, d.addr, policy, *interval, *workers, *graceWin)
	return d, 0
}
